// Umbrella header: the full public API of the PSRA-HGADMM library.
//
//   #include "psra/psra.hpp"
//
// pulls in everything a downstream application needs — problem construction,
// the algorithm family, the communication layer, the cluster model, and the
// supporting utilities. Individual headers remain includable on their own
// for finer-grained dependencies.
#pragma once

// Supporting utilities.
#include "support/cli.hpp"        // IWYU pragma: export
#include "support/log.hpp"        // IWYU pragma: export
#include "support/rng.hpp"        // IWYU pragma: export
#include "support/status.hpp"       // IWYU pragma: export
#include "support/string_util.hpp"  // IWYU pragma: export
#include "support/table.hpp"        // IWYU pragma: export

// Numerics.
#include "linalg/csr_matrix.hpp"     // IWYU pragma: export
#include "linalg/dense_ops.hpp"      // IWYU pragma: export
#include "linalg/sparse_vector.hpp"  // IWYU pragma: export

// Data.
#include "data/dataset.hpp"    // IWYU pragma: export
#include "data/libsvm_io.hpp"  // IWYU pragma: export
#include "data/partition.hpp"  // IWYU pragma: export
#include "data/synthetic.hpp"  // IWYU pragma: export

// Simulated cluster.
#include "simnet/cost_model.hpp"   // IWYU pragma: export
#include "simnet/event_queue.hpp"  // IWYU pragma: export
#include "simnet/straggler.hpp"    // IWYU pragma: export
#include "simnet/topology.hpp"     // IWYU pragma: export

// Communication.
#include "comm/collective.hpp"  // IWYU pragma: export
#include "comm/group.hpp"       // IWYU pragma: export
#include "comm/intranode.hpp"   // IWYU pragma: export

// WLG framework.
#include "wlg/group_generator.hpp"  // IWYU pragma: export
#include "wlg/leader.hpp"           // IWYU pragma: export

// Solvers and metrics.
#include "solver/logistic.hpp"  // IWYU pragma: export
#include "solver/metrics.hpp"   // IWYU pragma: export
#include "solver/prox.hpp"      // IWYU pragma: export
#include "solver/tron.hpp"      // IWYU pragma: export

// Execution.
#include "engine/ledger.hpp"       // IWYU pragma: export
#include "engine/thread_pool.hpp"  // IWYU pragma: export

// The algorithms.
#include "admm/ad_admm.hpp"       // IWYU pragma: export
#include "admm/checkpoint.hpp"    // IWYU pragma: export
#include "admm/gadmm.hpp"         // IWYU pragma: export
#include "admm/admmlib.hpp"       // IWYU pragma: export
#include "admm/problem.hpp"       // IWYU pragma: export
#include "admm/psra_hgadmm.hpp"   // IWYU pragma: export
#include "admm/reference.hpp"     // IWYU pragma: export
#include "admm/registry.hpp"      // IWYU pragma: export
#include "admm/trace.hpp"         // IWYU pragma: export
