// The allreduce entry API and the shared timing model.
//
// Execution model (DESIGN.md §2): collectives run over the virtual-time
// simulator, so an algorithm receives *all* members' input vectors plus the
// virtual time at which each member entered the collective, and returns the
// group sum plus the virtual time at which each member finished. Costs
// follow the paper's Section 4.2 accounting:
//
//   * transfers are SENDER-SERIALIZED: a worker's outgoing messages leave its
//     NIC one after another, each costing latency + elements * theta(link);
//     receives are not a bottleneck (the paper's bounds, eq. 11-16, charge
//     only send-side element time);
//   * sparse elements cost theta_s = (value+index)/B, dense elements
//     value/B, with B the bus or network bandwidth of the link crossed; a
//     sparse payload's store-phase sends (allgather, broadcast) travel in
//     the cheaper of the two encodings for their nnz (ElemPricing::Cheaper);
//   * a step that needs data from another worker cannot begin before that
//     data has arrived (pipeline/synchronization delays emerge naturally).
//
// Each of the paper's algorithms (psr, ring, naive) is one schedule in
// comm/schedule.hpp; the simulator executor behind ReduceDense/ReduceSparse
// prices it and the wire executor (comm/wire_allreduce.hpp) runs it over
// real messages. Both executors hold every sparse payload dense on the
// host: the sparse encoding decides what each send is priced at and how a
// wire frame carries it, not how the host stores or folds it. The engines
// reduce dense inputs (ReduceSparse's dense overload); a SparseVector is an
// input format whose sum is packed once, at the end.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "comm/group.hpp"
#include "comm/pricing.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/sparse_vector.hpp"

namespace psra::simnet {
class FaultPlan;
}

namespace psra::comm {

/// Cost accounting for one collective invocation.
struct CommStats {
  /// Virtual time at which each member finished (indexed by group rank).
  std::vector<simnet::VirtualTime> finish_times;
  /// Completion of the scatter-reduce stage (max across members); 0 for
  /// algorithms without that stage.
  simnet::VirtualTime scatter_reduce_done = 0.0;
  /// Completion of the whole collective (max finish time).
  simnet::VirtualTime all_done = 0.0;
  /// Total elements serialized onto links (sparse nnz or dense values).
  std::size_t elements_sent = 0;
  /// Total messages.
  std::size_t messages_sent = 0;
  /// Total bytes serialized onto links: elements priced at the cost model's
  /// per-element width (value bytes, plus index bytes for sparse payloads).
  /// This is the observable behind the paper's eq. 11-16 traffic bounds.
  std::size_t bytes_sent = 0;
  /// Serialized communication rounds (hops) the algorithm performed: 2 for
  /// PSR/naive (scatter-reduce + allgather / gather + bcast), 2(N-1) for the
  /// ring.
  std::size_t rounds = 0;

  /// Max finish minus max start: the wall-clock the collective added.
  simnet::VirtualTime Span(std::span<const simnet::VirtualTime> starts) const;

  /// Zeroes every field and sizes finish_times to `n` members, reusing its
  /// storage.
  void Reset(std::size_t n);

  /// Books one posted message carrying `elems` elements priced at
  /// `per_elem_bytes` (see ElemPricing). The simulator executor counts
  /// traffic through this call — the same formula the wire executor uses —
  /// so counters are comparable across backends.
  void CountSend(std::size_t elems, std::size_t per_elem_bytes) {
    detail::CountSend(elems, per_elem_bytes, elements_sent, messages_sent,
                      bytes_sent);
  }

  bool operator==(const CommStats& other) const = default;
};

/// Which coordinates of a dense vector that stands for a sparse one are its
/// entries (ReduceSparse's dense overload).
enum class SparseEntries {
  /// |v| > 0: what SparseVector::AssignFromDense packs, dropping ±0.0 and
  /// NaN. The engines' collective inputs.
  kPacked,
  /// Every value whose bits are not +0.0, NaN included: a completed sum
  /// (SparseVector::AssignFromDenseBlock), the input of a multi-level
  /// collective's root stage. A sum folded from +0.0 holds no -0.0.
  kCanonical,
};

/// Entries of one block of a sparse vector: parallel arrays, indices
/// strictly increasing and in the vector's coordinates (not the block's).
struct SparseSlice {
  std::span<const std::uint64_t> indices;
  std::span<const double> values;
};

/// The fold of every sparse block, in both executors: folds a block of the
/// caller's dense sum, which starts at +0.0, and counts its entries. It
/// takes two forms of input:
///   * a dense slice whose entries follow a SparseEntries rule: every other
///     coordinate reads as +0.0, so the fold adds the terms a fold of the
///     slices' packs adds, in the same order;
///   * (index, value) entries: a SparseVector's slice or a received sparse
///     frame. An index's first contribution is copied and later ones are
///     added in Add() order, so the block holds the bits of the SumInto
///     chain ((c0 + c1) + c2) + ... over the same entries, explicit ±0.0
///     included. This form needs presence flags.
/// A partial counts every coordinate some folded input carried, a cancelled
/// one included; a completed block counts the coordinates whose bits are
/// not +0.0 (IsCanonicalEntry). The flags are recycled across Reset() calls.
class PricedBlockFold {
 public:
  /// Starts a fold over `block` (zeroed), which covers coordinates
  /// [lo, lo + block.size()), of dense slices whose entries follow `rule`.
  /// `flags` keeps one presence flag per coordinate: needed to read size()
  /// before the block is complete and to fold entries.
  void Reset(std::span<double> block, std::uint64_t lo, SparseEntries rule,
             bool flags);

  /// Folds in one input's dense slice of the block (block-sized).
  void Add(std::span<const double> x);

  /// Folds in entries, all inside the block.
  void Add(const SparseSlice& x);

  /// Marks the block complete: size() becomes its canonical count.
  void Canonicalize();

  /// Holds `block`, complete as it arrived rather than folded here, so
  /// size() is its canonical count.
  void Hold(std::span<double> block) {
    acc_ = block;
    Canonicalize();
  }

  /// Entries of the block: the coordinates some folded input carried, or,
  /// once complete, those whose bits are not +0.0.
  std::size_t size() const;

  /// Whether block coordinate k is one of those entries.
  bool IsEntry(std::size_t k) const {
    return complete_ ? linalg::IsCanonicalEntry(acc_[k]) : present_[k] != 0;
  }

 private:
  std::span<double> acc_;
  std::uint64_t lo_ = 0;
  SparseEntries rule_ = SparseEntries::kPacked;
  bool flags_ = false;
  bool complete_ = false;
  std::size_t size_ = 0;
  std::vector<unsigned char> present_;  // block-sized when flags_
};

/// Reusable buffers for ReduceDense/ReduceSparse. Callers keep one instance
/// per call site and pass it to every invocation; each buffer grows to its
/// working size on first use and is recycled afterwards, so steady-state
/// collectives perform no heap allocation. The fields are executor-private
/// scratch — callers must not read them.
struct AllreduceScratch {
  // Per-member clocks: current, sender-side busy-until, latest arrival.
  std::vector<simnet::VirtualTime> clock;
  std::vector<simnet::VirtualTime> send_clock;
  std::vector<simnet::VirtualTime> arrival;
  // One fold per block, by payload kind; every fold writes into the sum.
  std::tuple<std::vector<linalg::DenseBlockFold>, std::vector<PricedBlockFold>>
      folds;
  std::vector<GroupRank> folded;  // sources folded into each block
  linalg::DenseVector held;  // a SparseVector collective's sum until packed
};

/// Fault-injection context for ReduceDense/ReduceSparse.
/// Callers keep an instance per concurrent collective (like
/// AllreduceScratch) and set `iteration` and `channel` before each call.
/// The channel is the collective's position among the iteration's
/// collectives in formation order, so two collectives in the same iteration
/// draw independent fault coins however the host schedules them.
///
/// Timeout/retry semantics (DESIGN.md "Fault model"): when the plan drops a
/// member's transfer, the whole collective stalls for retry_timeout_s and
/// retries; after max_retries the still-failing members are EXCLUDED and the
/// collective completes over the surviving member set — the sum then covers
/// survivors only, and `excluded` reports who was left out so the engine can
/// skip their consensus update for the round. With no survivors the sum is
/// zero with no entries, no traffic is booked, and each member finishes at
/// its delayed and timed-out start.
struct FaultContext {
  const simnet::FaultPlan* plan = nullptr;  // null or empty plan: no faults
  std::uint64_t iteration = 0;              // 1-based engine iteration
  std::uint64_t channel = 0;                // collective id, set by the caller

  // Cumulative accounting across invocations.
  std::size_t dropped_messages = 0;
  std::size_t retries = 0;
  std::size_t delayed_messages = 0;

  /// Group ranks excluded by the LAST invocation (cleared on each call).
  std::vector<GroupRank> excluded;

  // Scratch recycled across invocations (private to the implementation).
  std::vector<simnet::VirtualTime> adj_starts;
  std::vector<simnet::Rank> survivor_ranks;
  std::vector<simnet::VirtualTime> survivor_starts;
  std::tuple<std::vector<linalg::DenseVector>,
             std::vector<linalg::SparseVector>>
      survivor_inputs;
  CommStats sub_stats;
};

enum class AllreduceKind { kNaive, kRing, kPsr };

/// One allreduce algorithm: its schedule (comm/schedule.hpp) run by the
/// simulator executor.
class AllreduceAlgorithm {
 public:
  explicit AllreduceAlgorithm(AllreduceKind kind) : kind_(kind) {}

  AllreduceKind kind() const { return kind_; }
  std::string Name() const;

  /// Reduces one input per member (inputs.size() == starts.size() ==
  /// group.size(), one shared dim): writes the group sum into `sum` and the
  /// cost accounting into `stats`, drawing all temporaries from `scratch`.
  /// With a non-null `fault` whose plan is non-empty, first applies the
  /// plan's message delays, then runs the timeout + bounded-retry protocol
  /// described on FaultContext; a null fault or a null/empty plan is the
  /// plain path, bitwise and allocation-free.
  void ReduceDense(const GroupComm& group,
                   std::span<const linalg::DenseVector> inputs,
                   std::span<const simnet::VirtualTime> starts,
                   AllreduceScratch& scratch, linalg::DenseVector& sum,
                   CommStats& stats, FaultContext* fault = nullptr) const;

  /// The sparse collective on SparseVector inputs: their entries are folded
  /// (PricedBlockFold) into a dense sum, which is packed into `sum` once
  /// complete, without +0.0 entries (canonical).
  void ReduceSparse(const GroupComm& group,
                    std::span<const linalg::SparseVector> inputs,
                    std::span<const simnet::VirtualTime> starts,
                    AllreduceScratch& scratch, linalg::SparseVector& sum,
                    CommStats& stats, FaultContext* fault = nullptr) const;

  /// The sparse collective over inputs the host keeps dense: each input
  /// stands for the sparse vector of its entries under `entries`, and every
  /// send is priced by the entries it would carry. Writes the dense sum and
  /// returns its entry count: bitwise ToDense of the sum, and the nnz and
  /// stats, that the SparseVector overload gives on the inputs' packs
  /// (AssignFromDense for kPacked, AssignFromDenseBlock for kCanonical).
  std::size_t ReduceSparse(
      const GroupComm& group, std::span<const linalg::DenseVector> inputs,
      std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
      linalg::DenseVector& sum, CommStats& stats,
      FaultContext* fault = nullptr,
      SparseEntries entries = SparseEntries::kPacked) const;

 private:
  AllreduceKind kind_;
};

/// Factory; names: "naive", "ring", "psr".
std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(AllreduceKind kind);
std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(const std::string& name);

}  // namespace psra::comm
