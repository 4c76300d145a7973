#include "comm/group.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace psra::comm {

GroupComm::GroupComm(const simnet::Topology* topo,
                     const simnet::CostModel* cost,
                     std::vector<simnet::Rank> members)
    : topo_(topo), cost_(cost), members_(std::move(members)) {
  PSRA_REQUIRE(topo_ != nullptr && cost_ != nullptr,
               "group needs topology and cost model");
  Validate();
}

void GroupComm::Rebind(std::span<const simnet::Rank> members) {
  members_.assign(members.begin(), members.end());
  Validate();
}

void GroupComm::Validate() const {
  PSRA_REQUIRE(!members_.empty(), "group must have at least one member");
  validate_scratch_.assign(members_.begin(), members_.end());
  std::sort(validate_scratch_.begin(), validate_scratch_.end());
  PSRA_REQUIRE(std::adjacent_find(validate_scratch_.begin(),
                                  validate_scratch_.end()) ==
                   validate_scratch_.end(),
               "group members must be distinct");
  for (simnet::Rank r : members_) {
    PSRA_REQUIRE(r < topo_->world_size(), "group member rank out of range");
  }
}

simnet::Rank GroupComm::GlobalRank(GroupRank g) const {
  PSRA_REQUIRE(g < size(), "group rank out of range");
  return members_[g];
}

GroupRank GroupComm::LocalRank(simnet::Rank global) const {
  for (GroupRank g = 0; g < size(); ++g) {
    if (members_[g] == global) return g;
  }
  throw InvalidArgument("rank is not a member of this group");
}

bool GroupComm::Contains(simnet::Rank global) const {
  return std::find(members_.begin(), members_.end(), global) != members_.end();
}

simnet::Link GroupComm::LinkBetween(GroupRank a, GroupRank b) const {
  return topo_->LinkBetween(GlobalRank(a), GlobalRank(b));
}

ElemPricing GroupComm::pricing() const {
  const auto& cfg = cost_->config();
  return ElemPricing{cfg.value_bytes, cfg.index_bytes};
}

simnet::VirtualTime GroupComm::TransferTime(GroupRank from, GroupRank to,
                                            Encoding e) const {
  const simnet::Link link = LinkBetween(from, to);
  return e.sparse ? cost_->SparseTransferTime(link, e.elements)
                  : cost_->DenseTransferTime(link, e.elements);
}

std::pair<std::uint64_t, std::uint64_t> GroupComm::BlockRange(
    std::uint64_t dim, GroupRank g) const {
  PSRA_REQUIRE(g < size(), "group rank out of range");
  return comm::BlockRange(dim, g, size());
}

}  // namespace psra::comm
