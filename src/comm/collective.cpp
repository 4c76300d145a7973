#include "comm/collective.hpp"

#include <algorithm>

#include "comm/allreduce_impl.hpp"
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
  total_send_time = 0.0;
}

void AllreduceAlgorithm::ReduceDense(
    const GroupComm& group, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& /*scratch*/,
    linalg::DenseVector& sum, CommStats& stats) const {
  auto res = RunDense(group, inputs, starts);
  sum = std::move(res.outputs[0]);
  stats = std::move(res.stats);
}

void AllreduceAlgorithm::ReduceSparse(
    const GroupComm& group, std::span<const linalg::SparseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& /*scratch*/,
    linalg::SparseVector& sum, CommStats& stats) const {
  auto res = RunSparse(group, inputs, starts);
  sum = std::move(res.outputs[0]);
  stats = std::move(res.stats);
}

namespace {

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

  fc.excluded.clear();
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

/// Splits the group into survivors (ranks + starts into fc) and returns
/// whether group rank g is excluded via the sorted fc.excluded list.
void CollectSurvivors(const GroupComm& group, FaultContext& fc) {
  const GroupRank n = group.size();
  fc.survivor_ranks.clear();
  fc.survivor_starts.clear();
  std::size_t next_ex = 0;
  for (GroupRank g = 0; g < n; ++g) {
    if (next_ex < fc.excluded.size() && fc.excluded[next_ex] == g) {
      ++next_ex;
      continue;
    }
    fc.survivor_ranks.push_back(group.GlobalRank(g));
    fc.survivor_starts.push_back(fc.adj_starts[g]);
  }
  PSRA_REQUIRE(!fc.survivor_ranks.empty(),
               "fault plan excluded every member of a collective");
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
  stats.total_send_time = fc.sub_stats.total_send_time;
  stats.all_done =
      *std::max_element(stats.finish_times.begin(), stats.finish_times.end());
}

}  // namespace

void AllreduceAlgorithm::ReduceDenseFaulty(
    const GroupComm& group, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts, FaultContext& fc,
    AllreduceScratch& scratch, linalg::DenseVector& sum,
    CommStats& stats) const {
  if (fc.plan == nullptr || fc.plan->Empty()) {
    fc.excluded.clear();
    ReduceDense(group, inputs, starts, scratch, sum, stats);
    return;
  }
  detail::CheckDenseInputs(group, inputs, starts);
  if (!RunFaultProtocol(group, starts, fc)) {
    ReduceDense(group, inputs, fc.adj_starts, scratch, sum, stats);
    return;
  }
  CollectSurvivors(group, fc);
  fc.survivor_dense.resize(fc.survivor_ranks.size());
  std::size_t si = 0, next_ex = 0;
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (next_ex < fc.excluded.size() && fc.excluded[next_ex] == g) {
      ++next_ex;
      continue;
    }
    fc.survivor_dense[si++] = inputs[g];
  }
  const GroupComm sub(&group.topology(), &group.cost_model(),
                      fc.survivor_ranks);
  ReduceDense(sub, fc.survivor_dense, fc.survivor_starts, scratch, sum,
              fc.sub_stats);
  ExpandStats(group, fc, stats);
}

void AllreduceAlgorithm::ReduceSparseFaulty(
    const GroupComm& group, std::span<const linalg::SparseVector> inputs,
    std::span<const simnet::VirtualTime> starts, FaultContext& fc,
    AllreduceScratch& scratch, linalg::SparseVector& sum,
    CommStats& stats) const {
  if (fc.plan == nullptr || fc.plan->Empty()) {
    fc.excluded.clear();
    ReduceSparse(group, inputs, starts, scratch, sum, stats);
    return;
  }
  detail::CheckSparseInputs(group, inputs, starts);
  if (!RunFaultProtocol(group, starts, fc)) {
    ReduceSparse(group, inputs, fc.adj_starts, scratch, sum, stats);
    return;
  }
  CollectSurvivors(group, fc);
  fc.survivor_sparse.resize(fc.survivor_ranks.size());
  std::size_t si = 0, next_ex = 0;
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (next_ex < fc.excluded.size() && fc.excluded[next_ex] == g) {
      ++next_ex;
      continue;
    }
    fc.survivor_sparse[si++] = inputs[g];
  }
  const GroupComm sub(&group.topology(), &group.cost_model(),
                      fc.survivor_ranks);
  ReduceSparse(sub, fc.survivor_sparse, fc.survivor_starts, scratch, sum,
               fc.sub_stats);
  ExpandStats(group, fc, stats);
}

std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(AllreduceKind kind) {
  switch (kind) {
    case AllreduceKind::kNaive: return std::make_unique<NaiveAllreduce>();
    case AllreduceKind::kRing: return std::make_unique<RingAllreduce>();
    case AllreduceKind::kPsr: return std::make_unique<PsrAllreduce>();
    case AllreduceKind::kRhd: return std::make_unique<RhdAllreduce>();
    case AllreduceKind::kTree: return std::make_unique<TreeAllreduce>();
  }
  throw InvalidArgument("unknown allreduce kind");
}

std::unique_ptr<AllreduceAlgorithm> MakeAllreduce(const std::string& name) {
  const std::string n = ToLower(name);
  if (n == "naive") return MakeAllreduce(AllreduceKind::kNaive);
  if (n == "ring") return MakeAllreduce(AllreduceKind::kRing);
  if (n == "psr") return MakeAllreduce(AllreduceKind::kPsr);
  if (n == "rhd") return MakeAllreduce(AllreduceKind::kRhd);
  if (n == "tree") return MakeAllreduce(AllreduceKind::kTree);
  throw InvalidArgument("unknown allreduce algorithm: " + name);
}

namespace detail {

std::uint64_t CheckDenseInputs(const GroupComm& group,
                               std::span<const linalg::DenseVector> inputs,
                               std::span<const simnet::VirtualTime> starts) {
  PSRA_REQUIRE(inputs.size() == group.size(),
               "one input vector per group member required");
  PSRA_REQUIRE(starts.size() == group.size(),
               "one start time per group member required");
  PSRA_REQUIRE(!inputs.empty(), "empty group");
  const std::uint64_t dim = inputs[0].size();
  for (const auto& v : inputs) {
    PSRA_REQUIRE(v.size() == dim, "input dimension mismatch");
  }
  return dim;
}

std::uint64_t CheckSparseInputs(const GroupComm& group,
                                std::span<const linalg::SparseVector> inputs,
                                std::span<const simnet::VirtualTime> starts) {
  PSRA_REQUIRE(inputs.size() == group.size(),
               "one input vector per group member required");
  PSRA_REQUIRE(starts.size() == group.size(),
               "one start time per group member required");
  PSRA_REQUIRE(!inputs.empty(), "empty group");
  const std::uint64_t dim = inputs[0].dim();
  for (const auto& v : inputs) {
    PSRA_REQUIRE(v.dim() == dim, "input dimension mismatch");
  }
  return dim;
}

}  // namespace detail

}  // namespace psra::comm
