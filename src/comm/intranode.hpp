// Intra-node primitives used by the WLG framework (paper Section 4.3):
// workers on one physical node reduce their w_i to the elected Leader over
// the bus, and the Leader later broadcasts the updated global W back.
// Both are blocking (BSP) operations.
#pragma once

#include <span>
#include <vector>

#include "comm/group.hpp"
#include "linalg/dense_ops.hpp"

namespace psra::comm {

struct ReduceResult {
  /// Sum of all members' inputs, available at the leader.
  linalg::DenseVector value;
  /// When the leader has the complete sum.
  simnet::VirtualTime leader_ready = 0.0;
  /// When each member finished its part (send completion), by group rank.
  std::vector<simnet::VirtualTime> finish_times;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
};

/// Members send their vectors to `leader` (parallel sends, each priced on its
/// own link); the leader reduces in ascending group-rank order. Fills `out`,
/// reusing its buffers across calls.
void ReduceToLeader(const GroupComm& group, GroupRank leader,
                    std::span<const linalg::DenseVector> inputs,
                    std::span<const simnet::VirtualTime> starts,
                    ReduceResult& out);

struct BroadcastResult {
  /// When each member has the value (leader: when it finished sending).
  std::vector<simnet::VirtualTime> finish_times;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
};

/// Leader serializes one message per member (ascending group rank). Fills
/// `out`, reusing its buffers across calls.
void BroadcastFromLeader(const GroupComm& group, GroupRank leader,
                         std::size_t num_elements,
                         simnet::VirtualTime leader_start,
                         BroadcastResult& out);

}  // namespace psra::comm
