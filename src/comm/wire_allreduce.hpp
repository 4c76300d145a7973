// SPMD allreduce collectives over a comm::Transport.
//
// The simulator's collectives are omniscient: one call sees every member's
// input. These are the rank-local counterparts — each rank contributes only
// its own vector and exchanges real messages — and they run the very
// schedules the simulator prices (comm/schedule.hpp: psr, ring, naive). Each
// rank posts the sends its schedule gives it and folds what it receives in
// the schedule's fold order, so the reduced values are bitwise identical to
// the simulator's by construction.
//
// Traffic accounting goes through the same CountSend formula and
// ElemPricing the simulator uses, and a send counts exactly when the
// simulator counts it: an empty sparse payload in a skip_empty phase (psr,
// the naive gather) still travels as a zero-length frame, so its receiver
// never blocks on a message that is not coming, but is not counted. Summing
// WireStats across all ranks therefore reproduces the simulator's aggregate
// CommStats traffic, and per-rank `rounds` equals the simulator's phase
// count. A sparse payload's frame says which encoding it carries: in the
// store phases and the multi-level redistribution a block travels in the
// cheaper of the sparse and dense encodings for its nnz, exactly as the
// simulator prices it (comm/schedule.hpp rules 4 and 5). A dense frame must
// carry exactly the length its schedule step expects and a sparse frame
// must match its own header and hold indices only inside the block it
// fills; a mismatch or an unknown frame kind throws InvalidArgument.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "comm/collective.hpp"
#include "comm/pricing.hpp"
#include "comm/transport.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/sparse_vector.hpp"

namespace psra::comm {

struct WireScratch;  // wire_allreduce.cpp

/// Per-rank traffic accounting of one wire collective. Aggregate across
/// members to compare against the simulator's CommStats (see above).
struct WireStats {
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
  /// Communication phases this rank participated in; equals the simulator's
  /// CommStats::rounds for the flat collectives.
  std::size_t rounds = 0;

  // Multi-level decomposition (zero for flat collectives). The simulator
  // books each rack stage's rounds once per rack plus the root stage once;
  // per-rank totals cannot be summed naively, so the stages are kept apart
  // for the cross-backend aggregation.
  std::size_t rack_rounds = 0;
  std::size_t root_rounds = 0;  // nonzero only on rack leaders
  /// Stage-3 redistribution traffic (leaders only), matching the simulator's
  /// separately-reported redistribution_elements()/messages().
  std::size_t redist_elements = 0;
  std::size_t redist_messages = 0;

  void Reset() { *this = WireStats{}; }
  void CountSend(std::size_t elems, std::size_t per_elem_bytes) {
    detail::CountSend(elems, per_elem_bytes, elements_sent, messages_sent,
                      bytes_sent);
  }

  bool operator==(const WireStats& other) const = default;
};

/// Runs the simulator's collectives SPMD over a Transport. One instance per
/// rank; every member of a collective must call the same method with the
/// same member list in the same program order (tags are derived from a
/// per-instance epoch counter that must advance in lockstep).
class WireCollectives {
 public:
  /// `pricing` must equal the simulator cost model's widths (see
  /// GroupComm::pricing()) for byte counters to be comparable.
  /// When `obs` is non-null every collective records a wall-clock span
  /// (wire_allreduce / wire_multilevel with nested per-stage spans) and
  /// wire.collective.* / wire.phase.* wall histograms into it; null costs
  /// one branch per collective.
  WireCollectives(Transport& transport, ElemPricing pricing,
                  obs::WireObs* obs = nullptr);
  ~WireCollectives();

  Transport& transport() { return transport_; }

  /// Flat allreduce over `members` (distinct transport ranks; order defines
  /// group rank and therefore the fold order). The calling rank must be a
  /// member; `out` receives the group sum.
  void AllreduceDense(AllreduceKind kind,
                      std::span<const Transport::Rank> members,
                      const linalg::DenseVector& input,
                      linalg::DenseVector& out, WireStats& st);
  void AllreduceSparse(AllreduceKind kind,
                       std::span<const Transport::Rank> members,
                       const linalg::SparseVector& input,
                       linalg::SparseVector& out, WireStats& st);

  /// Multi-level (rack -> root -> redistribute) allreduce mirroring
  /// MultiLevelAllreduce: `members` are partitioned into contiguous racks of
  /// `per_rack`; each rack runs `kind` over its members, the rack leaders
  /// (first member of each rack) run `kind` across racks, then every leader
  /// serializes the global sum back to its rack peers (accounted in
  /// redist_*). Every rank in `members` must call.
  void MultiLevelDense(AllreduceKind kind,
                       std::span<const Transport::Rank> members,
                       std::uint32_t per_rack,
                       const linalg::DenseVector& input,
                       linalg::DenseVector& out, WireStats& st);
  void MultiLevelSparse(AllreduceKind kind,
                        std::span<const Transport::Rank> members,
                        std::uint32_t per_rack,
                        const linalg::SparseVector& input,
                        linalg::SparseVector& out, WireStats& st);

 private:
  template <typename V>
  void Allreduce(AllreduceKind kind, std::span<const Transport::Rank> members,
                 const V& input, V& out, WireStats& st);
  template <typename V>
  void MultiLevel(AllreduceKind kind, std::span<const Transport::Rank> members,
                  std::uint32_t per_rack, const V& input, V& out,
                  WireStats& st);
  Transport::Tag NextBaseTag();

  Transport& transport_;
  ElemPricing pricing_;
  obs::WireObs* obs_ = nullptr;
  std::uint32_t epoch_ = 0;
  std::unique_ptr<WireScratch> scratch_;  // buffers every collective reuses
};

}  // namespace psra::comm
