// ADMMLib baseline (Xie & Lei 2019, paper ref [22]).
//
// Hierarchical communication (intra-node reduce -> inter-node Ring-Allreduce
// among Leaders -> intra-node broadcast) under the SSP computation model
// with the paper's two hyper-parameters:
//   Min_barrier — a global round fires once this many workers have fresh
//                 contributions (the paper sets workers/2);
//   Max_delay   — no node's contribution may be staler than this many
//                 rounds; the round blocks on nodes that would exceed it.
//
// Simulation semantics (DESIGN.md §2): nodes compute asynchronously; a round
// aggregates fresh w from participants and the cached (stale) w of
// non-participants — exactly SSP's stale-parameter behaviour, which is what
// degrades ADMMLib's per-iteration convergence relative to the BSP
// PSRA-HGADMM in Figure 5. Ring-Allreduce timing is charged to the
// participants' Leaders. ADMMLib models no faults: Run rejects a non-empty
// ClusterConfig::fault (DESIGN.md §8), as it rejects stopping and adaptive
// rho.
#pragma once

#include <string>

#include "admm/common.hpp"
#include "comm/collective.hpp"

namespace psra::admm {

struct AdmmLibConfig {
  ClusterConfig cluster;
  /// Fraction of *workers* with fresh updates required to fire a round;
  /// the node-level barrier is ceil(min_barrier_fraction * nodes).
  double min_barrier_fraction = 0.5;
  std::uint32_t max_delay = 5;
  comm::AllreduceKind allreduce = comm::AllreduceKind::kRing;
  bool sparse_comm = true;
};

class AdmmLib {
 public:
  explicit AdmmLib(const AdmmLibConfig& config);

  std::string Name() const { return "ADMMLib"; }

  RunResult Run(const ConsensusProblem& problem,
                const RunOptions& options) const;

 private:
  AdmmLibConfig cfg_;
};

}  // namespace psra::admm
