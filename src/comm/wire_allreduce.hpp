// SPMD allreduce collectives over a comm::Transport.
//
// The simulator's collectives are omniscient: one call sees every member's
// input and computes the sum with a fixed floating-point fold order. These
// are the rank-local counterparts — each rank contributes only its own
// vector and exchanges real messages — written to mirror each simulator
// algorithm's fold order EXACTLY, so the reduced values are bitwise
// identical to the simulator's across every backend:
//
//   psr    dense:  owner accumulates block contributions in ascending
//                  group-rank order into a zero-initialized block (the
//                  simulator's zeros + Axpy fold restricted to the block);
//          sparse: owner folds the block contributions in ascending
//                  group-rank order through linalg::SparseBlockFold, the
//                  simulator's own block reduce.
//   ring   both:   receiver folds the incoming partial INTO its local block
//                  (dst += src) following the ring schedule — deliberately
//                  NOT ascending-rank order, because that is what the
//                  simulator's RingRunner computes.
//   naive  dense:  root folds all vectors ascending into zeros + Axpy;
//          sparse: root starts from rank 0's vector, SumInto ascending.
//
// Traffic accounting goes through the same CountSend formula and
// ElemPricing the simulator uses, and messages are counted exactly where
// the simulator counts them (notably: PSR and the naive sparse gather skip
// EMPTY sparse payloads in the counters — the wire still ships a
// zero-length frame so receivers never block on a message that is not
// coming, but the counters stay comparable). Summing WireStats across all
// ranks therefore reproduces the simulator's aggregate CommStats traffic,
// and per-rank `rounds` equals the simulator's phase count.
#pragma once

#include <cstdint>
#include <span>

#include "comm/collective.hpp"
#include "comm/pricing.hpp"
#include "comm/transport.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/sparse_vector.hpp"

namespace psra::comm {

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
                  obs::WireObs* obs = nullptr)
      : transport_(transport), pricing_(pricing), obs_(obs) {}

  Transport& transport() { return transport_; }

  /// Flat allreduce over `members` (distinct transport ranks; order defines
  /// group rank and therefore the fold order). The calling rank must be a
  /// member; `out` receives the group sum. Supported kinds: kPsr, kRing,
  /// kNaive.
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
  Transport::Tag NextBaseTag();

  Transport& transport_;
  ElemPricing pricing_;
  obs::WireObs* obs_ = nullptr;
  std::uint32_t epoch_ = 0;
};

}  // namespace psra::comm
