// Leader election for intra-node communication domains (paper Section 4.3:
// "Workers in the same group form a communication domain and elect a worker
// responsible for communication between communication domains, which is
// called the Leader").
#pragma once

#include <span>

#include "simnet/topology.hpp"

namespace psra::wlg {

/// Elects the leader among `node_ranks` (must be non-empty, all on one
/// node): the lowest global rank, the MPI-style convention. After a leader
/// death the engines re-elect over the node's surviving ranks.
simnet::Rank ElectLeader(const simnet::Topology& topo,
                         std::span<const simnet::Rank> node_ranks);

}  // namespace psra::wlg
