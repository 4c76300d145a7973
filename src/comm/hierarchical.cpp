#include "comm/hierarchical.hpp"

#include <algorithm>
#include <type_traits>

#include "support/status.hpp"

namespace psra::comm {

namespace {

/// Folds one stage collective's traffic into the aggregate (finish times are
/// composed by the caller, not merged).
void MergeTraffic(CommStats& agg, const CommStats& stage) {
  agg.elements_sent += stage.elements_sent;
  agg.messages_sent += stage.messages_sent;
  agg.bytes_sent += stage.bytes_sent;
  agg.rounds += stage.rounds;
}

}  // namespace

MultiLevelAllreduce::MultiLevelAllreduce(const simnet::Topology* topo,
                                         const simnet::CostModel* cost,
                                         std::span<const simnet::Rank> members)
{
  PSRA_REQUIRE(topo != nullptr && cost != nullptr,
               "multi-level allreduce needs a topology and a cost model");
  PSRA_REQUIRE(members.size() == topo->num_nodes(),
               "multi-level allreduce takes one member per node");
  const std::uint32_t racks = topo->num_racks();
  per_rack_ = topo->nodes_per_rack();
  rack_comms_.reserve(racks);
  rack_leaders_.reserve(racks);
  for (std::uint32_t r = 0; r < racks; ++r) {
    std::vector<simnet::Rank> rack_members;
    rack_members.reserve(per_rack_);
    for (std::uint32_t m = 0; m < per_rack_; ++m) {
      const simnet::Rank rank = members[r * per_rack_ + m];
      PSRA_REQUIRE(topo->RackOfRank(rank) == r,
                   "members must be listed in ascending node order");
      rack_members.push_back(rank);
    }
    rack_leaders_.push_back(rack_members.front());
    rack_comms_.emplace_back(topo, cost, std::move(rack_members));
  }
  root_comm_.emplace(topo, cost, std::vector<simnet::Rank>(
                                     rack_leaders_.begin(),
                                     rack_leaders_.end()));
}

void MultiLevelAllreduce::Redistribute(std::size_t len,
                                       std::optional<std::size_t> sparse_nnz,
                                       const CommStats& root_stats,
                                       CommStats& stats) {
  redist_elements_ = 0;
  redist_messages_ = 0;
  redist_bytes_ = 0;
  for (std::size_t r = 0; r < rack_comms_.size(); ++r) {
    BroadcastFromLeader(rack_comms_[r], 0, len, root_stats.finish_times[r],
                        bcast_, sparse_nnz);
    redist_elements_ += bcast_.elements_sent;
    redist_messages_ += bcast_.messages_sent;
    redist_bytes_ += bcast_.bytes_sent;
    const std::size_t base = r * per_rack_;
    // The rack leader finishes when its serialized sends complete; a peer
    // when the broadcast reaches it (it was already done with stage 1).
    stats.finish_times[base] = bcast_.finish_times[0];
    for (std::size_t m = 1; m < per_rack_; ++m) {
      stats.finish_times[base + m] =
          std::max(stats.finish_times[base + m], bcast_.finish_times[m]);
    }
  }
  stats.all_done = 0.0;
  for (const simnet::VirtualTime t : stats.finish_times) {
    stats.all_done = std::max(stats.all_done, t);
  }
}

template <bool kSparse, typename V>
std::size_t MultiLevelAllreduce::Reduce(
    const AllreduceAlgorithm& alg, std::span<const V> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    V& sum, CommStats& stats) {
  const std::size_t racks = rack_comms_.size();
  PSRA_REQUIRE(inputs.size() == per_rack_ * racks &&
                   starts.size() == per_rack_ * racks,
               "multi-level allreduce needs one input and start per member");
  // One stage collective; returns its sum's entry count (dense: its size).
  // A dense-held sparse root stage reads the rack sums as canonical.
  auto reduce = [&](const GroupComm& group, std::span<const V> in,
                    std::span<const simnet::VirtualTime> at, V& out,
                    SparseEntries entries) -> std::size_t {
    if constexpr (!kSparse) {
      alg.ReduceDense(group, in, at, scratch, out, stage_stats_);
      return out.size();
    } else if constexpr (std::is_same_v<V, linalg::SparseVector>) {
      alg.ReduceSparse(group, in, at, scratch, out, stage_stats_);
      return out.nnz();
    } else {
      return alg.ReduceSparse(group, in, at, scratch, out, stage_stats_,
                              nullptr, entries);
    }
  };
  auto& rack_sums = std::get<std::vector<V>>(rack_sums_);
  stats.Reset(inputs.size());
  rack_sums.resize(racks);
  root_starts_.resize(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    const std::size_t base = r * per_rack_;
    reduce(rack_comms_[r], inputs.subspan(base, per_rack_),
           starts.subspan(base, per_rack_), rack_sums[r],
           SparseEntries::kPacked);
    for (std::size_t m = 0; m < per_rack_; ++m) {
      stats.finish_times[base + m] = stage_stats_.finish_times[m];
    }
    root_starts_[r] = stage_stats_.finish_times[0];
    MergeTraffic(stats, stage_stats_);
  }
  const std::size_t nnz = reduce(*root_comm_, rack_sums, root_starts_, sum,
                                 SparseEntries::kCanonical);
  MergeTraffic(stats, stage_stats_);
  std::size_t len = 0;
  if constexpr (std::is_same_v<V, linalg::SparseVector>) {
    len = sum.dim();
  } else {
    len = sum.size();
  }
  Redistribute(len, kSparse ? std::optional(nnz) : std::nullopt, stage_stats_,
               stats);
  return nnz;
}

void MultiLevelAllreduce::ReduceDense(
    const AllreduceAlgorithm& alg, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    linalg::DenseVector& sum, CommStats& stats) {
  Reduce<false>(alg, inputs, starts, scratch, sum, stats);
}

void MultiLevelAllreduce::ReduceSparse(
    const AllreduceAlgorithm& alg,
    std::span<const linalg::SparseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    linalg::SparseVector& sum, CommStats& stats) {
  Reduce<true>(alg, inputs, starts, scratch, sum, stats);
}

std::size_t MultiLevelAllreduce::ReduceSparse(
    const AllreduceAlgorithm& alg, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts, AllreduceScratch& scratch,
    linalg::DenseVector& sum, CommStats& stats) {
  return Reduce<true>(alg, inputs, starts, scratch, sum, stats);
}

}  // namespace psra::comm
