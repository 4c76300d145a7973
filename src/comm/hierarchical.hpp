// Recursive multi-level allreduce over the node -> rack -> cluster
// hierarchy.
//
// Generalizes the WLG two-level scheme (workers reduce to their node leader,
// leaders allreduce): with more than one rack, the leader collective itself
// recurses —
//
//   stage 1  per rack: allreduce over that rack's node leaders (rack links,
//            Link::kInterNode);
//   stage 2  across racks: allreduce over the rack leaders (the first node
//            leader of each rack) carrying the rack partial sums over the
//            slower cross-rack fabric (Link::kInterRack);
//   stage 3  redistribution: each rack leader serializes the global sum back
//            to its rack peers (same shape as the intra-node broadcast); a
//            sparse sum travels in the cheaper encoding for its nnz.
//
// Any AllreduceAlgorithm runs at both collective levels, so the paper's
// eq. 11-16 cost asymmetry between PSR and Ring is preserved per level. All
// members end with the identical (bitwise) global sum; per-member finish
// times compose the stage timings, and the aggregate CommStats counts the
// two collective stages (redistribution traffic is reported separately so
// algorithm comparisons stay clean — it is identical for every algorithm).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "comm/collective.hpp"
#include "comm/intranode.hpp"

namespace psra::comm {

class MultiLevelAllreduce {
 public:
  /// `members[n]` is the leader rank of node n, in ascending node order, one
  /// per node of `topo`. The topology's racks partition them contiguously;
  /// the first member of each rack acts as the rack leader.
  MultiLevelAllreduce(const simnet::Topology* topo,
                      const simnet::CostModel* cost,
                      std::span<const simnet::Rank> members);

  std::uint32_t num_racks() const {
    return static_cast<std::uint32_t>(rack_comms_.size());
  }
  std::uint32_t members_per_rack() const { return per_rack_; }

  /// Recursive dense allreduce. `sum` receives the global sum (bitwise equal
  /// on every member); `stats` the aggregate of both collective stages, with
  /// finish_times indexed like `members`. All temporaries come from
  /// `scratch` and this object's recycled buffers — steady-state calls
  /// perform no heap allocation.
  void ReduceDense(const AllreduceAlgorithm& alg,
                   std::span<const linalg::DenseVector> inputs,
                   std::span<const simnet::VirtualTime> starts,
                   AllreduceScratch& scratch, linalg::DenseVector& sum,
                   CommStats& stats);

  /// Sparse counterpart over inputs the host keeps dense, each standing for
  /// the sparse vector of its packed entries (SparseEntries::kPacked): the
  /// rack stages run AllreduceAlgorithm's dense-held ReduceSparse, and the
  /// root stage reads the rack sums as the canonical vectors they are
  /// (SparseEntries::kCanonical). Writes the dense sum and returns its entry
  /// count; the redistribution ships the sum in the cheaper encoding for
  /// that count (ElemPricing::Cheaper). Each stage equals the flat
  /// SparseVector collective on the packs of its inputs.
  std::size_t ReduceSparse(const AllreduceAlgorithm& alg,
                           std::span<const linalg::DenseVector> inputs,
                           std::span<const simnet::VirtualTime> starts,
                           AllreduceScratch& scratch, linalg::DenseVector& sum,
                           CommStats& stats);

  /// Stage-3 traffic of the last call: the rack leaders' serialized
  /// re-broadcast of the global sum to their rack peers.
  std::size_t redistribution_elements() const { return redist_elements_; }
  std::size_t redistribution_messages() const { return redist_messages_; }
  std::size_t redistribution_bytes() const { return redist_bytes_; }

 private:
  template <bool kSparse>
  std::size_t Reduce(const AllreduceAlgorithm& alg,
                     std::span<const linalg::DenseVector> inputs,
                     std::span<const simnet::VirtualTime> starts,
                     AllreduceScratch& scratch, linalg::DenseVector& sum,
                     CommStats& stats);
  void Redistribute(std::size_t len, std::optional<std::size_t> sparse_nnz,
                    const CommStats& root_stats, CommStats& stats);

  std::vector<GroupComm> rack_comms_;  // per rack, over its node leaders
  std::optional<GroupComm> root_comm_;  // over the rack leaders
  std::uint32_t per_rack_ = 0;

  // Recycled call scratch.
  CommStats stage_stats_;
  std::vector<linalg::DenseVector> rack_sums_;
  std::vector<simnet::VirtualTime> root_starts_;
  std::vector<simnet::Rank> rack_leaders_;
  BroadcastResult bcast_;
  std::size_t redist_elements_ = 0;
  std::size_t redist_messages_ = 0;
  std::size_t redist_bytes_ = 0;
};

}  // namespace psra::comm
