#include <algorithm>

#include "comm/allreduce_impl.hpp"
#include "support/status.hpp"

namespace psra::comm {

namespace {

// Shared PSR timing skeleton (paper Section 4.2, Figure 2).
//
// Scatter-Reduce: member i serializes one direct message per foreign block
// to that block's owner (ascending owner order). Owner j's block is fully
// reduced once every contribution has arrived.
// Allgather: owner j serializes its reduced block to every other member
// (ascending member order).
//
// `contrib_size(i, j)` = elements member i contributes to block j;
// `reduced_size(j)`    = elements of the fully reduced block j;
// both queried lazily so dense/sparse share the control flow. When
// `skip_empty` (sparse), zero-element messages are not sent at all — this
// realizes the paper's best case T_psr-sr = 0. All bookkeeping vectors live
// in `scratch` so steady-state calls allocate nothing.
template <typename ContribSize, typename ReducedSize>
void PsrTiming(const GroupComm& group,
               std::span<const simnet::VirtualTime> starts,
               ContribSize contrib_size, ReducedSize reduced_size, bool sparse,
               bool skip_empty, AllreduceScratch& scratch, CommStats& st) {
  const auto& cm = group.cost_model();
  const GroupRank n = group.size();
  st.Reset(n);
  const std::size_t elem_bytes = group.pricing().PerElement(sparse);

  auto transfer = [&](GroupRank a, GroupRank b, std::size_t elems) {
    const simnet::Link link = group.LinkBetween(a, b);
    return sparse ? cm.SparseTransferTime(link, elems)
                  : cm.DenseTransferTime(link, elems);
  };

  if (n == 1) {
    st.finish_times[0] = starts[0];
    st.all_done = starts[0];
    st.scatter_reduce_done = starts[0];
    return;
  }

  // --- Scatter-Reduce ---------------------------------------------------
  // ready[j]: when owner j's block is fully reduced.
  auto& ready = scratch.times_a;
  auto& sr_send_done = scratch.times_b;  // sender-side busy-until
  ready.resize(n);
  sr_send_done.assign(n, 0.0);
  for (GroupRank j = 0; j < n; ++j) ready[j] = starts[j];

  for (GroupRank i = 0; i < n; ++i) {
    simnet::VirtualTime clock = starts[i];
    for (GroupRank j = 0; j < n; ++j) {
      if (j == i) continue;
      const std::size_t elems = contrib_size(i, j);
      if (skip_empty && elems == 0) continue;
      const simnet::VirtualTime cost = transfer(i, j, elems);
      clock += cost;
      ready[j] = std::max(ready[j], clock);
      st.CountSend(elems, elem_bytes);
      st.total_send_time += cost;
    }
    sr_send_done[i] = clock;
  }
  ++st.rounds;  // scatter-reduce phase
  st.scatter_reduce_done = *std::max_element(ready.begin(), ready.end());

  // --- Allgather ----------------------------------------------------------
  // arrival[m]: latest block arrival at member m.
  auto& arrival = scratch.times_c;
  arrival.resize(n);
  for (GroupRank m = 0; m < n; ++m) {
    arrival[m] = std::max(ready[m], sr_send_done[m]);
  }
  auto& ag_send_done = scratch.times_d;
  ag_send_done.assign(n, 0.0);
  for (GroupRank j = 0; j < n; ++j) {
    const std::size_t elems = reduced_size(j);
    simnet::VirtualTime clock = std::max(ready[j], sr_send_done[j]);
    for (GroupRank m = 0; m < n; ++m) {
      if (m == j) continue;
      if (skip_empty && elems == 0) continue;
      const simnet::VirtualTime cost = transfer(j, m, elems);
      clock += cost;
      arrival[m] = std::max(arrival[m], clock);
      st.CountSend(elems, elem_bytes);
      st.total_send_time += cost;
    }
    ag_send_done[j] = clock;
  }
  ++st.rounds;  // allgather phase

  for (GroupRank m = 0; m < n; ++m) {
    st.finish_times[m] = std::max(arrival[m], ag_send_done[m]);
  }
  st.all_done = *std::max_element(st.finish_times.begin(),
                                  st.finish_times.end());
}

}  // namespace

void PsrAllreduce::ReduceDense(const GroupComm& group,
                               std::span<const linalg::DenseVector> inputs,
                               std::span<const simnet::VirtualTime> starts,
                               AllreduceScratch& scratch,
                               linalg::DenseVector& sum,
                               CommStats& stats) const {
  const std::uint64_t dim = detail::CheckDenseInputs(group, inputs, starts);
  const GroupRank n = group.size();

  sum.assign(static_cast<std::size_t>(dim), 0.0);
  for (GroupRank g = 0; g < n; ++g) linalg::Axpy(1.0, inputs[g], sum);

  auto block_len = [&](GroupRank j) {
    const auto [lo, hi] = group.BlockRange(dim, j);
    return static_cast<std::size_t>(hi - lo);
  };

  PsrTiming(
      group, starts,
      [&](GroupRank /*i*/, GroupRank j) { return block_len(j); },
      [&](GroupRank j) { return block_len(j); },
      /*sparse=*/false, /*skip_empty=*/false, scratch, stats);
}

void PsrAllreduce::ReduceSparse(const GroupComm& group,
                                std::span<const linalg::SparseVector> inputs,
                                std::span<const simnet::VirtualTime> starts,
                                AllreduceScratch& scratch,
                                linalg::SparseVector& sum,
                                CommStats& stats) const {
  const std::uint64_t dim = detail::CheckSparseInputs(group, inputs, starts);
  const GroupRank n = group.size();

  // Each owner folds its block in ascending contributor order, straight
  // into `sum` (blocks are disjoint and ascending).
  auto& block_nnz = scratch.sizes;
  block_nnz.resize(n);
  sum.Clear(dim);
  for (GroupRank j = 0; j < n; ++j) {
    const auto [lo, hi] = group.BlockRange(dim, j);
    scratch.sparse_fold.Reset(lo, hi);
    for (GroupRank i = 0; i < n; ++i) scratch.sparse_fold.Add(inputs[i]);
    block_nnz[j] = scratch.sparse_fold.AppendTo(sum);
  }

  PsrTiming(
      group, starts,
      [&](GroupRank i, GroupRank j) {
        const auto [lo, hi] = group.BlockRange(dim, j);
        return inputs[i].CountInRange(lo, hi);
      },
      [&](GroupRank j) { return block_nnz[j]; },
      /*sparse=*/true, /*skip_empty=*/true, scratch, stats);
}

DenseAllreduceResult PsrAllreduce::RunDense(
    const GroupComm& group, std::span<const linalg::DenseVector> inputs,
    std::span<const simnet::VirtualTime> starts) const {
  AllreduceScratch scratch;
  DenseAllreduceResult out;
  linalg::DenseVector sum;
  ReduceDense(group, inputs, starts, scratch, sum, out.stats);
  out.outputs.assign(group.size(), sum);
  return out;
}

SparseAllreduceResult PsrAllreduce::RunSparse(
    const GroupComm& group, std::span<const linalg::SparseVector> inputs,
    std::span<const simnet::VirtualTime> starts) const {
  AllreduceScratch scratch;
  SparseAllreduceResult out;
  linalg::SparseVector sum;
  ReduceSparse(group, inputs, starts, scratch, sum, out.stats);
  out.outputs.assign(group.size(), sum);
  return out;
}

}  // namespace psra::comm
