#include "comm/collective.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "comm/schedule.hpp"
#include "simnet/fault.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::comm {

simnet::VirtualTime CommStats::Span(
    std::span<const simnet::VirtualTime> starts) const {
  simnet::VirtualTime max_start = 0.0;
  for (auto s : starts) max_start = std::max(max_start, s);
  return all_done - max_start;
}

void CommStats::Reset(std::size_t n) {
  finish_times.assign(n, 0.0);
  scatter_reduce_done = 0.0;
  all_done = 0.0;
  elements_sent = 0;
  messages_sent = 0;
  bytes_sent = 0;
  rounds = 0;
}

std::size_t CountEntries(std::span<const double> v, SparseEntries rule) {
  if (rule == SparseEntries::kPacked) return linalg::CountNonzeros(v);
  std::size_t n = 0;
  for (const double e : v) n += linalg::IsCanonicalEntry(e) ? 1 : 0;
  return n;
}

void PricedBlockFold::Reset(std::span<double> block, std::uint64_t lo,
                            SparseEntries rule, bool flags) {
  acc_ = block;
  lo_ = lo;
  rule_ = rule;
  flags_ = flags;
  complete_ = false;
  linalg::SetZero(block);
  if (flags) present_.assign(block.size(), 0);
}

void PricedBlockFold::Add(std::span<const double> x) {
  PSRA_REQUIRE(x.size() == acc_.size(), "fold contribution size mismatch");
  const std::span<unsigned char> present =
      flags_ ? std::span<unsigned char>(present_) : std::span<unsigned char>();
  if (rule_ == SparseEntries::kPacked) {
    linalg::AddPacked(x, acc_, present);
    return;
  }
  // A canonical input's other coordinates hold +0.0 already.
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc_[i] += x[i];
    if (flags_) present[i] |= linalg::IsCanonicalEntry(x[i]) ? 1 : 0;
  }
}

void PricedBlockFold::Add(const SparseSlice& x) {
  PSRA_CHECK(flags_, "folding entries needs presence flags");
  for (std::size_t k = 0; k < x.indices.size(); ++k) {
    const auto b = static_cast<std::size_t>(x.indices[k] - lo_);
    const double value = x.values[k];
    // Selects the sum or the first contribution by mask, not by branch:
    // all ones where the index is already present.
    const std::uint64_t seen = 0 - static_cast<std::uint64_t>(present_[b]);
    const std::uint64_t folded = std::bit_cast<std::uint64_t>(acc_[b] + value);
    acc_[b] = std::bit_cast<double>(
        (folded & seen) | (std::bit_cast<std::uint64_t>(value) & ~seen));
    present_[b] = 1;
  }
}

void PricedBlockFold::Canonicalize() {
  size_ = CountEntries(acc_, SparseEntries::kCanonical);
  complete_ = true;
}

std::size_t PricedBlockFold::size() const {
  if (complete_) return size_;
  PSRA_CHECK(flags_, "a partial fold's size needs presence flags");
  return static_cast<std::size_t>(
      std::count(present_.begin(), present_.end(), 1));
}

namespace {

/// The simulator executor: runs schedule `s` over every member at once.
/// Each phase first times its sends — a send advances its sender's clock by
/// the transfer time, and a member's clock ends the phase at the max of its
/// own and its arrivals — then folds. A block's partial is its running fold,
/// so the simulator keeps one fold per block: a forwarded partial is already
/// in it, and only input slices are added, straight from `inputs`. Writes
/// the dense sum and returns its entry count: its dimension for a dense
/// payload.
template <typename T>
std::size_t Simulate(const Schedule& s, const GroupComm& group,
                     std::span<const typename Payload<T>::Vector> inputs,
                     std::span<const simnet::VirtualTime> starts,
                     AllreduceScratch& scratch, linalg::DenseVector& sum,
                     CommStats& st) {
  using P = Payload<T>;
  const GroupRank n = group.size();
  const std::uint64_t dim = P::Dim(inputs[0]);
  const ElemPricing pr = group.pricing();
  st.Reset(n);

  auto& folds = std::get<std::vector<typename P::Fold>>(scratch.folds);
  folds.resize(s.num_blocks());
  sum.resize(static_cast<std::size_t>(dim));
  for (GroupRank b = 0; b < s.num_blocks(); ++b) {
    const auto [lo, hi] = s.BlockRange(dim, b);
    P::Reset(folds[b], sum, lo, hi, s, /*entries=*/false);
  }

  // A sparse block is made canonical (rule 4) and counted once all n
  // sources are folded into it, while it is still warm in cache.
  auto& folded = scratch.folded;
  folded.assign(s.num_blocks(), 0);
  GroupRank completed = 0;
  std::size_t nnz = P::kSparse ? 0 : static_cast<std::size_t>(dim);
  auto add_slice = [&](GroupRank b, GroupRank from) {
    const auto [lo, hi] = s.BlockRange(dim, b);
    folds[b].Add(P::In(inputs[from], lo, hi));
    if constexpr (P::kSparse) {
      if (++folded[b] == n) {
        folds[b].Canonicalize();
        nnz += folds[b].size();
        ++completed;
      }
    }
  };
  auto own_slice_size = [&](GroupRank from, GroupRank b) {
    const auto [lo, hi] = s.BlockRange(dim, b);
    return P::Count(inputs[from], lo, hi);
  };

  auto& t = scratch.clock;
  t.assign(starts.begin(), starts.end());
  if (s.num_phases() == 0) {
    add_slice(0, 0);
    st.scatter_reduce_done = t[0];
  } else {
    st.scatter_reduce_done = -std::numeric_limits<double>::infinity();
  }
  auto& send_clock = scratch.send_clock;
  auto& arrival = scratch.arrival;
  for (std::size_t p = 0; p < s.num_phases(); ++p) {
    const SchedulePhase ph = s.phase(p);
    send_clock.assign(t.begin(), t.end());
    arrival.assign(t.begin(), t.end());
    for (GroupRank from = 0; from < n; ++from) {
      s.ForEachSend(p, from, [&](GroupRank to, GroupRank b) {
        const std::size_t elems = ph.own_slice ? own_slice_size(from, b)
                                               : folds[b].size();
        if (P::kSparse && ph.skip_empty && elems == 0) return;
        const auto [lo, hi] = s.BlockRange(dim, b);
        const Encoding e = P::Encode(pr, ph, elems, hi - lo);  // rule 5
        send_clock[from] += group.TransferTime(from, to, e);
        arrival[to] = std::max(arrival[to], send_clock[from]);
        st.CountSend(e.elements, pr.PerElement(e.sparse));
      });
    }
    for (GroupRank m = 0; m < n; ++m) t[m] = std::max(arrival[m], send_clock[m]);
    ++st.rounds;
    if (!ph.reduce) continue;
    for (GroupRank to = 0; to < n; ++to) {
      bool receives = false;
      s.ForEachRecv(p, to, [&](GroupRank from, GroupRank b) {
        receives = true;
        if (from == to || ph.own_slice) add_slice(b, from);  // else: a partial
      });
      if (receives) {
        st.scatter_reduce_done = std::max(st.scatter_reduce_done, t[to]);
      }
    }
  }
  if constexpr (P::kSparse) {
    PSRA_CHECK(completed == s.num_blocks(), "schedule left a block unreduced");
  }
  st.finish_times.assign(t.begin(), t.end());
  st.all_done = *std::max_element(t.begin(), t.end());
  return nnz;
}

template <typename T, typename V>
std::size_t Run(AllreduceKind kind, const GroupComm& group,
                std::span<const V> inputs,
                std::span<const simnet::VirtualTime> starts,
                AllreduceScratch& scratch, linalg::DenseVector& sum,
                CommStats& st) {
  return Simulate<T>(Schedule(kind, group.size()), group, inputs, starts,
                     scratch, sum, st);
}

/// Shared half of the fault protocol: applies per-member entry delays, then
/// draws drop coins attempt by attempt. Each attempt with at least one drop
/// stalls every member by retry_timeout_s; after max_retries the members
/// still dropping are left in fc.excluded (ascending group rank) and the
/// caller degrades to the survivors. Returns true when degradation is
/// needed. fc.adj_starts holds the delay+timeout-adjusted start times.
bool RunFaultProtocol(const GroupComm& group,
                      std::span<const simnet::VirtualTime> starts,
                      FaultContext& fc) {
  const auto& plan = *fc.plan;
  const auto& cfg = plan.config();
  const std::uint64_t channel = fc.channel;
  const GroupRank n = group.size();

  fc.adj_starts.resize(n);
  for (GroupRank g = 0; g < n; ++g) {
    const simnet::Rank r = group.GlobalRank(g);
    const simnet::VirtualTime delay =
        plan.MessageDelay(fc.iteration, channel, r, r);
    if (delay > 0.0) ++fc.delayed_messages;
    fc.adj_starts[g] = starts[g] + delay;
  }

  if (cfg.message_drop_probability == 0.0) return false;

  simnet::VirtualTime penalty = 0.0;
  for (std::uint32_t attempt = 0;; ++attempt) {
    fc.excluded.clear();
    for (GroupRank g = 0; g < n; ++g) {
      if (plan.DropsMessage(fc.iteration, channel, group.GlobalRank(g),
                            attempt)) {
        fc.excluded.push_back(g);
      }
    }
    if (fc.excluded.empty()) break;
    fc.dropped_messages += fc.excluded.size();
    penalty += cfg.retry_timeout_s;
    if (attempt == cfg.max_retries) break;  // bounded: give up on these
    ++fc.retries;
  }
  if (penalty > 0.0) {
    for (GroupRank g = 0; g < n; ++g) fc.adj_starts[g] += penalty;
  }
  return !fc.excluded.empty();
}

/// Copies the survivors' ranks, adjusted starts and inputs into fc, in group
/// order, skipping the sorted fc.excluded members.
template <typename V>
std::vector<V>& CollectSurvivors(const GroupComm& group,
                                 std::span<const V> inputs, FaultContext& fc) {
  auto& survivors = std::get<std::vector<V>>(fc.survivor_inputs);
  fc.survivor_ranks.clear();
  fc.survivor_starts.clear();
  survivors.resize(group.size() - fc.excluded.size());
  std::size_t si = 0, next_ex = 0;
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (next_ex < fc.excluded.size() && fc.excluded[next_ex] == g) {
      ++next_ex;
      continue;
    }
    fc.survivor_ranks.push_back(group.GlobalRank(g));
    fc.survivor_starts.push_back(fc.adj_starts[g]);
    survivors[si++] = inputs[g];
  }
  return survivors;
}

/// Maps the survivor-subgroup stats back onto the full group: excluded
/// members "finish" at their adjusted start (they observed the timeouts and
/// contributed nothing), survivors keep their subgroup finish times.
void ExpandStats(const GroupComm& group, const FaultContext& fc,
                 CommStats& stats) {
  const GroupRank n = group.size();
  stats.Reset(n);
  std::size_t si = 0, next_ex = 0;
  for (GroupRank g = 0; g < n; ++g) {
    if (next_ex < fc.excluded.size() && fc.excluded[next_ex] == g) {
      ++next_ex;
      stats.finish_times[g] = fc.adj_starts[g];
    } else {
      stats.finish_times[g] = fc.sub_stats.finish_times[si++];
    }
  }
  stats.scatter_reduce_done = fc.sub_stats.scatter_reduce_done;
  stats.elements_sent = fc.sub_stats.elements_sent;
  stats.messages_sent = fc.sub_stats.messages_sent;
  stats.bytes_sent = fc.sub_stats.bytes_sent;
  stats.rounds = fc.sub_stats.rounds;
  stats.all_done =
      *std::max_element(stats.finish_times.begin(), stats.finish_times.end());
}

/// Runs payload T's collective under `fault` and returns the sum's entry
/// count (see Simulate).
template <typename T, typename V = typename Payload<T>::Vector>
std::size_t Reduce(AllreduceKind kind, const GroupComm& group,
                   std::span<const V> inputs,
                   std::span<const simnet::VirtualTime> starts,
                   AllreduceScratch& scratch, linalg::DenseVector& sum,
                   CommStats& stats, FaultContext* fault) {
  PSRA_REQUIRE(inputs.size() == group.size(),
               "one input vector per group member required");
  PSRA_REQUIRE(starts.size() == group.size(),
               "one start time per group member required");
  for (const V& v : inputs) {
    PSRA_REQUIRE(Payload<T>::Dim(v) == Payload<T>::Dim(inputs[0]),
                 "input dimension mismatch");
  }
  if (fault != nullptr) fault->excluded.clear();
  if (fault == nullptr || fault->plan == nullptr || fault->plan->Empty()) {
    return Run<T>(kind, group, inputs, starts, scratch, sum, stats);
  }
  if (!RunFaultProtocol(group, starts, *fault)) {
    return Run<T>(kind, group, inputs,
                  std::span<const simnet::VirtualTime>(fault->adj_starts),
                  scratch, sum, stats);
  }
  FaultContext& fc = *fault;
  if (fc.excluded.size() == group.size()) {
    // Nobody survived: the collective completes with an empty sum and no
    // traffic, each member finishing at its adjusted start.
    sum.assign(static_cast<std::size_t>(Payload<T>::Dim(inputs[0])), 0.0);
    fc.sub_stats.Reset(0);
    ExpandStats(group, fc, stats);
    return 0;
  }
  const std::vector<V>& survivors = CollectSurvivors(group, inputs, fc);
  const GroupComm sub(&group.topology(), &group.cost_model(),
                      fc.survivor_ranks);
  const std::size_t nnz =
      Run<T>(kind, sub, std::span<const V>(survivors),
             std::span<const simnet::VirtualTime>(fc.survivor_starts), scratch,
             sum, fc.sub_stats);
  ExpandStats(group, fc, stats);
  return nnz;
}

}  // namespace

std::string AllreduceAlgorithm::Name() const {
  switch (kind_) {
    case AllreduceKind::kNaive: return "naive";
    case AllreduceKind::kRing: return "ring";
    case AllreduceKind::kPsr: return "psr";
  }
  return "?";
}

void AllreduceAlgorithm::ReduceDense(
    const GroupComm& group, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    linalg::DenseVector& sum, CommStats& stats, FaultContext* fault) const {
  Reduce<linalg::DenseVector>(kind_, group, inputs, starts, scratch, sum,
                              stats, fault);
}

void AllreduceAlgorithm::ReduceSparse(
    const GroupComm& group, std::span<const linalg::SparseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    linalg::SparseVector& sum, CommStats& stats, FaultContext* fault) const {
  Reduce<linalg::SparseVector>(kind_, group, inputs, starts, scratch,
                               scratch.held, stats, fault);
  sum.AssignFromDenseBlock(scratch.held.size(), 0, scratch.held);
}

std::size_t AllreduceAlgorithm::ReduceSparse(
    const GroupComm& group, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    linalg::DenseVector& sum, CommStats& stats, FaultContext* fault,
    SparseEntries entries) const {
  if (entries == SparseEntries::kCanonical) {
    return Reduce<PricedSparse<SparseEntries::kCanonical>>(
        kind_, group, inputs, starts, scratch, sum, stats, fault);
  }
  return Reduce<PricedSparse<SparseEntries::kPacked>>(
      kind_, group, inputs, starts, scratch, sum, stats, fault);
}

std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(AllreduceKind kind) {
  return std::make_unique<AllreduceAlgorithm>(kind);
}

std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(const std::string& name) {
  for (const auto kind : {AllreduceKind::kNaive, AllreduceKind::kRing,
                          AllreduceKind::kPsr}) {
    if (ToLower(name) == AllreduceAlgorithm(kind).Name()) {
      return MakeAllreduce(kind);
    }
  }
  throw InvalidArgument("unknown allreduce algorithm: " + name);
}

}  // namespace psra::comm
