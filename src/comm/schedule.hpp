// Every allreduce algorithm, written once as a schedule.
//
// A schedule is an algorithm's communication pattern over a group of n
// ranks. The vector [0, dim) is split into blocks; each phase says which
// blocks every rank sends to which peers, in the order the sender
// serializes them, and what every rank receives, in the order it folds
// (reduce phases) or stores (the other phases) it. Steps are enumerated on
// demand; nothing is stored per (sender, receiver) pair. Two executors run
// every schedule, one code path each for dense and sparse payloads (the
// simulator also runs sparse payloads the host holds dense, PricedSparse):
//
//   * the simulator (collective.cpp) prices it under the sender-serialized
//     cost model of collective.hpp and folds straight from the inputs;
//   * the wire executor (wire_allreduce.cpp) posts and receives the same
//     steps over a comm::Transport.
//
// Send order, fold order and traffic therefore agree by construction. The
// algorithms (paper Section 4.2):
//
//   psr    n blocks, block j owned by rank j. scatter_reduce: rank i sends
//          its slice of block j straight to owner j (ascending j); owner j
//          folds the slices of ranks 0..n-1. allgather: owner j sends its
//          reduced block to every other rank.
//   ring   n blocks, 2(n-1) rounds. Scatter round r: rank i sends block
//          (i - r) to i + 1, which folds it with its own slice, so after
//          n - 1 rounds rank i holds complete block i + 1. Allgather rounds
//          forward the complete blocks around the ring.
//   naive  one block. gather: every rank sends its vector to rank 0, which
//          folds ranks 0..n-1; broadcast: rank 0 sends the sum to every rank.
//
// Five rules keep the two backends and the payload kinds bitwise equal
// (DESIGN.md §11):
//   1. dense psr and naive folds start from zeros; ring and every
//      SparseVector fold start from the first source; a sparse payload held
//      dense folds from +0.0 and reads every coordinate that is not an entry
//      of an input as +0.0, which adds the same terms in the same order;
//   2. scatter_reduce_done is the latest clock among the receivers of the
//      reduce phases, not among all ranks;
//   3. an empty sparse send in a phase marked skip_empty (psr, naive
//      gather) is neither timed nor counted; the wire still ships the empty
//      frame so its receiver does not wait for a message that never comes;
//   4. a sparse block is canonical once completely reduced: it carries no
//      explicit +0.0 entry (SparseBlockFold::Canonicalize), so a completed
//      block held dense counts the coordinates whose bits are not +0.0,
//      while a forwarded ring partial counts every coordinate a folded input
//      carried, a cancelled one included;
//   5. sparse sends in the store phases (allgather, broadcast) travel in the
//      cheaper encoding for their nnz (ElemPricing::Cheaper); the reduce
//      phases stay sparse, because that is where psr and ring differ.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "comm/collective.hpp"
#include "support/status.hpp"

namespace psra::comm {

struct SchedulePhase {
  const char* stage;  // span name: scatter_reduce, allgather, gather, broadcast
  bool reduce;        // receivers fold what arrives; otherwise they store it
  bool own_slice;     // senders ship their own input slice, not a fold
  bool skip_empty;    // rule 3
};

class Schedule {
 public:
  Schedule(AllreduceKind kind, GroupRank n) : kind_(kind), n_(n) {}

  GroupRank num_blocks() const {
    return kind_ == AllreduceKind::kNaive ? 1 : n_;
  }

  /// A lone rank communicates nothing: its sum is its own input, folded
  /// once under rule 1.
  std::size_t num_phases() const {
    if (n_ == 1) return 0;
    return kind_ == AllreduceKind::kRing ? 2 * (n_ - 1) : 2;
  }

  SchedulePhase phase(std::size_t p) const {
    switch (kind_) {
      case AllreduceKind::kPsr:
        return p == 0 ? SchedulePhase{"scatter_reduce", true, true, true}
                      : SchedulePhase{"allgather", false, false, true};
      case AllreduceKind::kRing:  // round 0 forwards own slices, then partials
        return p + 1 < n_ ? SchedulePhase{"scatter_reduce", true, p == 0, false}
                          : SchedulePhase{"allgather", false, false, false};
      case AllreduceKind::kNaive:
        return p == 0 ? SchedulePhase{"gather", true, true, true}
                      : SchedulePhase{"broadcast", false, false, false};
    }
    throw InvalidArgument("unknown allreduce kind");
  }

  /// Rule 1's starting point for dense folds.
  bool dense_folds_from_zero() const { return kind_ != AllreduceKind::kRing; }

  /// Whether some reduce phase sends partial folds rather than own slices
  /// (ring over more than two ranks).
  bool forwards_partials() const {
    for (std::size_t p = 0; p < num_phases(); ++p) {
      if (phase(p).reduce && !phase(p).own_slice) return true;
    }
    return false;
  }

  /// Whether phase p is the last reduce phase, so every block folded in it
  /// is complete (rule 4).
  bool completes_blocks(std::size_t p) const {
    return phase(p).reduce && (p + 1 == num_phases() || !phase(p + 1).reduce);
  }

  std::pair<std::uint64_t, std::uint64_t> BlockRange(std::uint64_t dim,
                                                     GroupRank b) const {
    return comm::BlockRange(dim, b, num_blocks());
  }

  /// Calls fn(to, block) for each send of rank `from` in phase p, in the
  /// order `from` serializes them.
  template <typename Fn>
  void ForEachSend(std::size_t p, GroupRank from, Fn&& fn) const {
    switch (kind_) {
      case AllreduceKind::kPsr:
        for (GroupRank to = 0; to < n_; ++to) {
          if (to != from) fn(to, p == 0 ? to : from);
        }
        return;
      case AllreduceKind::kRing:
        fn(Add(from, 1), RingBlock(p, from));
        return;
      case AllreduceKind::kNaive:
        if (p == 0 && from != 0) fn(GroupRank{0}, GroupRank{0});
        if (p == 1 && from == 0) {
          for (GroupRank to = 1; to < n_; ++to) fn(to, GroupRank{0});
        }
        return;
    }
  }

  /// Calls fn(from, block) for each block rank `to` receives in phase p: in
  /// fold order for a reduce phase, where from == to stands for `to`'s own
  /// slice; in receive order otherwise.
  template <typename Fn>
  void ForEachRecv(std::size_t p, GroupRank to, Fn&& fn) const {
    switch (kind_) {
      case AllreduceKind::kPsr:
        for (GroupRank from = 0; from < n_; ++from) {
          if (p == 0) fn(from, to);
          else if (from != to) fn(from, from);
        }
        return;
      case AllreduceKind::kRing: {
        const GroupRank pred = Add(to, n_ - 1);
        const GroupRank b = RingBlock(p, pred);
        fn(pred, b);
        if (p + 1 < n_) fn(to, b);
        return;
      }
      case AllreduceKind::kNaive:
        if (p == 0 && to == 0) {
          for (GroupRank from = 0; from < n_; ++from) fn(from, GroupRank{0});
        }
        if (p == 1 && to != 0) fn(GroupRank{0}, GroupRank{0});
        return;
    }
  }

 private:
  GroupRank Add(GroupRank a, GroupRank b) const {
    return static_cast<GroupRank>((std::uint64_t{a} + b) % n_);
  }

  /// The block ring rank `from` sends in round p: its deepest partial
  /// (i - r) while scattering, then the complete block (i + 1 - r).
  GroupRank RingBlock(std::size_t p, GroupRank from) const {
    const auto r = static_cast<GroupRank>(p < n_ - 1 ? p : p - (n_ - 1));
    return p < n_ - 1 ? Add(from, n_ - r) : Add(from, n_ + 1 - r);
  }

  AllreduceKind kind_;
  GroupRank n_;
};

/// The payload-specific half of both executors: how a block is measured and
/// folded. Dense folds write in place into the caller's output vector;
/// sparse folds own their storage until appended. A payload is named by its
/// vector type, or, for a sparse payload the host holds dense, by
/// PricedSparse below.
template <typename T>
struct Payload;

template <>
struct Payload<linalg::DenseVector> {
  static constexpr bool kSparse = false;
  using Vector = linalg::DenseVector;
  using Fold = linalg::DenseBlockFold;
  static std::uint64_t Dim(const linalg::DenseVector& v) { return v.size(); }
  static void Resize(linalg::DenseVector& v, std::uint64_t dim) {
    v.resize(static_cast<std::size_t>(dim));
  }
  static std::size_t Count(const linalg::DenseVector&, std::uint64_t lo,
                           std::uint64_t hi) {
    return static_cast<std::size_t>(hi - lo);
  }
  /// Dense payloads always travel dense.
  static Encoding Encode(const ElemPricing&, const SchedulePhase&,
                         std::size_t elems, std::uint64_t) {
    return {false, elems};
  }
  /// What a fold over [lo, hi) reads of `v`.
  static std::span<const double> In(const linalg::DenseVector& v,
                                    std::uint64_t lo, std::uint64_t hi) {
    return std::span<const double>(v).subspan(lo, hi - lo);
  }
  static void Reset(Fold& fold, linalg::DenseVector& out, std::uint64_t lo,
                    std::uint64_t hi, const Schedule& s) {
    fold.Reset(std::span<double>(out).subspan(lo, hi - lo),
               s.dense_folds_from_zero());
  }
};

template <>
struct Payload<linalg::SparseVector> {
  static constexpr bool kSparse = true;
  using Vector = linalg::SparseVector;
  using Fold = linalg::SparseBlockFold;
  static std::uint64_t Dim(const linalg::SparseVector& v) { return v.dim(); }
  /// Empties `v` over [0, dim): the shape a sparse frame is received into.
  static void Resize(linalg::SparseVector& v, std::uint64_t dim) {
    v.Clear(dim);
  }
  static std::size_t Count(const linalg::SparseVector& v, std::uint64_t lo,
                           std::uint64_t hi) {
    return v.CountInRange(lo, hi);
  }
  /// Rule 5: `nnz` entries of a block of `len` coordinates.
  static Encoding Encode(const ElemPricing& pr, const SchedulePhase& ph,
                         std::size_t nnz, std::uint64_t len) {
    if (ph.reduce) return {true, nnz};
    return pr.Cheaper(nnz, static_cast<std::size_t>(len));
  }
  /// The fold itself keeps only the entries in [lo, hi).
  static const linalg::SparseVector& In(const linalg::SparseVector& v,
                                        std::uint64_t, std::uint64_t) {
    return v;
  }
  static void Reset(Fold& fold, linalg::SparseVector&, std::uint64_t lo,
                    std::uint64_t hi, const Schedule& /*rule 1*/) {
    fold.Reset(lo, hi);
  }
};

/// Number of entries of `v` under `rule` (collective.cpp).
std::size_t CountEntries(std::span<const double> v, SparseEntries rule);

/// A sparse payload the host holds dense, each vector standing for the
/// sparse vector of its entries under E. It is measured and priced as that
/// sparse vector and folded in place into the caller's dense sum, from +0.0
/// (rule 1).
template <SparseEntries E>
struct PricedSparse {};

template <SparseEntries E>
struct Payload<PricedSparse<E>> {
  static constexpr bool kSparse = true;
  using Vector = linalg::DenseVector;
  using Fold = PricedBlockFold;
  static std::uint64_t Dim(const linalg::DenseVector& v) { return v.size(); }
  static void Resize(linalg::DenseVector& v, std::uint64_t dim) {
    v.resize(static_cast<std::size_t>(dim));
  }
  static std::size_t Count(const linalg::DenseVector& v, std::uint64_t lo,
                           std::uint64_t hi) {
    return CountEntries(In(v, lo, hi), E);
  }
  static Encoding Encode(const ElemPricing& pr, const SchedulePhase& ph,
                         std::size_t nnz, std::uint64_t len) {
    return Payload<linalg::SparseVector>::Encode(pr, ph, nnz, len);
  }
  static std::span<const double> In(const linalg::DenseVector& v,
                                    std::uint64_t lo, std::uint64_t hi) {
    return std::span<const double>(v).subspan(lo, hi - lo);
  }
  static void Reset(Fold& fold, linalg::DenseVector& out, std::uint64_t lo,
                    std::uint64_t hi, const Schedule& s) {
    fold.Reset(std::span<double>(out).subspan(lo, hi - lo), E,
               s.forwards_partials());
  }
};

}  // namespace psra::comm
