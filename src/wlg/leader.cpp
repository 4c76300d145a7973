#include "wlg/leader.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace psra::wlg {

simnet::Rank ElectLeader(const simnet::Topology& topo,
                         std::span<const simnet::Rank> node_ranks) {
  PSRA_REQUIRE(!node_ranks.empty(), "cannot elect a leader from no workers");
  const simnet::NodeId node = topo.NodeOf(node_ranks[0]);
  for (simnet::Rank r : node_ranks) {
    PSRA_REQUIRE(topo.NodeOf(r) == node,
                 "all candidates must live on the same node");
  }
  return *std::min_element(node_ranks.begin(), node_ranks.end());
}

}  // namespace psra::wlg
