// Communication group: an ordered set of global ranks that participate in a
// collective, plus the topology/cost-model context needed to price messages
// between them. Analogous to an MPI communicator.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/pricing.hpp"
#include "simnet/cost_model.hpp"
#include "simnet/topology.hpp"

namespace psra::comm {

/// Rank *within* a group (0 .. size-1); distinct from simnet::Rank (global).
using GroupRank = std::uint32_t;

/// Block b of [0, dim) split into nb contiguous blocks — the ownership every
/// block-wise collective uses: [dim * b / nb, dim * (b + 1) / nb).
inline std::pair<std::uint64_t, std::uint64_t> BlockRange(std::uint64_t dim,
                                                          std::uint64_t b,
                                                          std::uint64_t nb) {
  return {dim * b / nb, dim * (b + 1) / nb};
}

class GroupComm {
 public:
  /// `members` are distinct global ranks; order defines group rank.
  GroupComm(const simnet::Topology* topo, const simnet::CostModel* cost,
            std::vector<simnet::Rank> members);

  /// Re-points this communicator at a new member list, reusing the existing
  /// storage. When the new list has the same size as the old one (the common
  /// case for the size-keyed group slots the engines recycle), this performs
  /// no heap allocation.
  void Rebind(std::span<const simnet::Rank> members);

  GroupRank size() const { return static_cast<GroupRank>(members_.size()); }
  simnet::Rank GlobalRank(GroupRank g) const;
  const std::vector<simnet::Rank>& members() const { return members_; }

  /// Group rank of a global rank; throws if not a member.
  GroupRank LocalRank(simnet::Rank global) const;
  bool Contains(simnet::Rank global) const;

  simnet::Link LinkBetween(GroupRank a, GroupRank b) const;
  const simnet::CostModel& cost_model() const { return *cost_; }
  const simnet::Topology& topology() const { return *topo_; }

  /// Element widths this group's cost model prices messages at. The wire
  /// backends take the same struct, so bytes accounting agrees by
  /// construction.
  ElemPricing pricing() const;

  /// Virtual time of one message from `from` to `to` in encoding `e`,
  /// priced on the link between them (a sparse element costs theta_s, a
  /// dense one theta_d).
  simnet::VirtualTime TransferTime(GroupRank from, GroupRank to,
                                   Encoding e) const;

  /// Block ownership used by the block-cyclic collectives: the vector
  /// [0, dim) is split into size() contiguous blocks; block g is owned by
  /// group rank g. Returns [begin, end) of block g.
  std::pair<std::uint64_t, std::uint64_t> BlockRange(std::uint64_t dim,
                                                     GroupRank g) const;

 private:
  void Validate() const;

  const simnet::Topology* topo_;
  const simnet::CostModel* cost_;
  std::vector<simnet::Rank> members_;
  // Sorted copy used by Validate; a member so Rebind stays allocation-free.
  mutable std::vector<simnet::Rank> validate_scratch_;
};

}  // namespace psra::comm
