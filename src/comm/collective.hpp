// Allreduce collective interface and the shared timing model.
//
// Execution model (DESIGN.md §2): collectives run over the virtual-time
// simulator, so an algorithm receives *all* members' input vectors plus the
// virtual time at which each member entered the collective, and returns each
// member's output plus the virtual time at which each member finished. Costs
// follow the paper's Section 4.2 accounting:
//
//   * transfers are SENDER-SERIALIZED: a worker's outgoing messages leave its
//     NIC one after another, each costing latency + elements * theta(link);
//     receives are not a bottleneck (the paper's bounds, eq. 11-16, charge
//     only send-side element time);
//   * sparse elements cost theta_s = (value+index)/B, dense elements
//     value/B, with B the bus or network bandwidth of the link crossed;
//   * a step that needs data from another worker cannot begin before that
//     data has arrived (pipeline/synchronization delays emerge naturally).
//
// All algorithms reduce in ascending group-rank order so dense and sparse
// variants of every algorithm produce bitwise-identical sums.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
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
  /// ring, O(log N) exchanges for rhd/tree.
  std::size_t rounds = 0;
  /// Sum over members of busy send time (the paper's "communication cost").
  simnet::VirtualTime total_send_time = 0.0;

  /// Max finish minus max start: the wall-clock the collective added.
  simnet::VirtualTime Span(std::span<const simnet::VirtualTime> starts) const;

  /// Zeroes every field and sizes finish_times to `n` members, reusing its
  /// storage. Called by the in-place Reduce* entry points.
  void Reset(std::size_t n);

  /// Books one posted message carrying `elems` elements priced at
  /// `per_elem_bytes` (see ElemPricing). Every simulator timing loop counts
  /// traffic through this call — the same formula the wire executor uses —
  /// so counters are comparable across backends.
  void CountSend(std::size_t elems, std::size_t per_elem_bytes) {
    detail::CountSend(elems, per_elem_bytes, elements_sent, messages_sent,
                      bytes_sent);
  }

  bool operator==(const CommStats& other) const = default;
};

/// Reusable buffers for the in-place Reduce* entry points. Callers keep one
/// instance per call site and pass it to every invocation; each buffer grows
/// to its working size on first use and is recycled afterwards, so
/// steady-state collectives perform no heap allocation. The fields are
/// algorithm-private scratch — callers must not read them.
struct AllreduceScratch {
  // Virtual-time and size bookkeeping.
  std::vector<simnet::VirtualTime> times_a;
  std::vector<simnet::VirtualTime> times_b;
  std::vector<simnet::VirtualTime> times_c;
  std::vector<simnet::VirtualTime> times_d;
  std::vector<std::size_t> sizes;
  // Sparse payloads: the PSR owner's block fold and a merge accumulator.
  linalg::SparseBlockFold sparse_fold;
  linalg::SparseVector sparse_tmp;
  // Ring block state: blocks[member][block] plus per-round in-flight copies.
  std::vector<std::vector<linalg::DenseVector>> dense_ring;
  std::vector<linalg::DenseVector> dense_in_flight;
  std::vector<std::vector<linalg::SparseVector>> sparse_ring;
  std::vector<linalg::SparseVector> sparse_in_flight;
  // Per-member working vectors (rhd/tree).
  std::vector<linalg::DenseVector> dense_values;
  std::vector<linalg::SparseVector> sparse_values;
};

/// Fault-injection context for the fault-tolerant Reduce* entry points.
/// Callers keep one instance per run (like AllreduceScratch) and bump
/// `iteration` each round; `channel` auto-increments per invocation so two
/// collectives in the same iteration draw independent fault coins.
///
/// Timeout/retry semantics (DESIGN.md "Fault model"): when the plan drops a
/// member's transfer, the whole collective stalls for retry_timeout_s and
/// retries; after max_retries the still-failing members are EXCLUDED and the
/// collective completes over the surviving member set — the sum then covers
/// survivors only, and `excluded` reports who was left out so the engine can
/// skip their consensus update for the round.
struct FaultContext {
  const simnet::FaultPlan* plan = nullptr;  // null or empty plan: no faults
  std::uint64_t iteration = 0;              // 1-based engine iteration
  std::uint64_t channel = 0;                // next collective id (auto-bumped)

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
  std::vector<linalg::DenseVector> survivor_dense;
  std::vector<linalg::SparseVector> survivor_sparse;
  CommStats sub_stats;
};

struct DenseAllreduceResult {
  /// outputs[g] = sum over members of inputs (same for all g).
  std::vector<linalg::DenseVector> outputs;
  CommStats stats;
};

struct SparseAllreduceResult {
  std::vector<linalg::SparseVector> outputs;
  CommStats stats;
};

/// Strategy interface: Ring-Allreduce, PSR-Allreduce, naive gather+bcast.
class AllreduceAlgorithm {
 public:
  virtual ~AllreduceAlgorithm() = default;

  virtual std::string Name() const = 0;

  /// inputs.size() == starts.size() == group.size(); all inputs share a dim.
  virtual DenseAllreduceResult RunDense(
      const GroupComm& group, std::span<const linalg::DenseVector> inputs,
      std::span<const simnet::VirtualTime> starts) const = 0;

  virtual SparseAllreduceResult RunSparse(
      const GroupComm& group, std::span<const linalg::SparseVector> inputs,
      std::span<const simnet::VirtualTime> starts) const = 0;

  /// In-place reduction: writes the group sum (== RunDense().outputs[0],
  /// bitwise) into `sum` and the cost accounting into `stats`, drawing all
  /// temporaries from `scratch`. The base implementation delegates to
  /// RunDense; algorithms override it to run allocation-free in steady state.
  virtual void ReduceDense(const GroupComm& group,
                           std::span<const linalg::DenseVector> inputs,
                           std::span<const simnet::VirtualTime> starts,
                           AllreduceScratch& scratch, linalg::DenseVector& sum,
                           CommStats& stats) const;

  /// Sparse counterpart; `sum` matches RunSparse().outputs[0] bitwise.
  virtual void ReduceSparse(const GroupComm& group,
                            std::span<const linalg::SparseVector> inputs,
                            std::span<const simnet::VirtualTime> starts,
                            AllreduceScratch& scratch,
                            linalg::SparseVector& sum, CommStats& stats) const;

  /// Fault-tolerant in-place reduction: applies `fc.plan`'s message delays,
  /// then runs the timeout + bounded-retry protocol described on
  /// FaultContext. With a null/empty plan this is EXACTLY ReduceDense —
  /// bitwise-identical results and no extra allocation.
  void ReduceDenseFaulty(const GroupComm& group,
                         std::span<const linalg::DenseVector> inputs,
                         std::span<const simnet::VirtualTime> starts,
                         FaultContext& fc, AllreduceScratch& scratch,
                         linalg::DenseVector& sum, CommStats& stats) const;

  /// Sparse counterpart of ReduceDenseFaulty.
  void ReduceSparseFaulty(const GroupComm& group,
                          std::span<const linalg::SparseVector> inputs,
                          std::span<const simnet::VirtualTime> starts,
                          FaultContext& fc, AllreduceScratch& scratch,
                          linalg::SparseVector& sum, CommStats& stats) const;
};

enum class AllreduceKind { kNaive, kRing, kPsr, kRhd, kTree };

/// Factory; names: "naive", "ring", "psr", "rhd", "tree".
std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(AllreduceKind kind);
std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(const std::string& name);

namespace detail {
/// Validates the common preconditions and returns the shared dimension.
std::uint64_t CheckDenseInputs(const GroupComm& group,
                               std::span<const linalg::DenseVector> inputs,
                               std::span<const simnet::VirtualTime> starts);
std::uint64_t CheckSparseInputs(const GroupComm& group,
                                std::span<const linalg::SparseVector> inputs,
                                std::span<const simnet::VirtualTime> starts);
}  // namespace detail

}  // namespace psra::comm
