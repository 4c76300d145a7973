// Intra-node primitives used by the WLG framework (paper Section 4.3):
// workers on one physical node reduce their w_i to the elected Leader over
// the bus, and the Leader later broadcasts the updated global W back.
// Both are blocking (BSP) operations.
//
// With sparse comm every message travels in the cheaper of the sparse and
// dense encodings for its nonzero count (ElemPricing::Cheaper, DESIGN.md
// §5a), priced and booked alike; otherwise every message is dense.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "comm/group.hpp"
#include "linalg/dense_ops.hpp"

namespace psra::comm {

struct ReduceResult {
  /// Sum of all members' inputs, available at the leader.
  linalg::DenseVector value;
  /// Each member's nonzero count (|v| > 0), by group rank: what a sparse
  /// reduce prices every send by.
  std::vector<std::size_t> member_nnz;
  /// When the leader has the complete sum.
  simnet::VirtualTime leader_ready = 0.0;
  /// When each member finished its part (send completion), by group rank.
  std::vector<simnet::VirtualTime> finish_times;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
};

/// Members send their vectors to `leader` (parallel sends, each priced on its
/// own link); the leader reduces in ascending group-rank order, starting
/// from +0.0. With `sparse`, each member's send travels in the cheaper
/// encoding for its nonzero count, taken in the summing pass. Fills `out`,
/// reusing its buffers across calls: the sum, then PriceReduceToLeader.
void ReduceToLeader(const GroupComm& group, GroupRank leader,
                    std::span<const linalg::DenseVector> inputs,
                    std::span<const simnet::VirtualTime> starts,
                    ReduceResult& out, bool sparse = false);

/// The pricing half of ReduceToLeader, for callers that form the sum
/// themselves: `out.value` must already hold the members' sum over `dim`
/// coordinates and, with `sparse`, `out.member_nnz` each member's nonzero
/// count. Fills the finish times, the leader's ready time and the traffic.
void PriceReduceToLeader(const GroupComm& group, GroupRank leader,
                         std::span<const simnet::VirtualTime> starts,
                         std::size_t dim, ReduceResult& out,
                         bool sparse = false);

struct BroadcastResult {
  /// When each member has the value (leader: when it finished sending).
  std::vector<simnet::VirtualTime> finish_times;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
  std::size_t bytes_sent = 0;
};

/// Leader serializes one message per member (ascending group rank), each
/// carrying a vector of `len` coordinates: dense, or, given `sparse_nnz`
/// (sparse comm: the vector's nonzero count), in the cheaper encoding for
/// it. Fills `out`, reusing its buffers across calls.
void BroadcastFromLeader(const GroupComm& group, GroupRank leader,
                         std::size_t len, simnet::VirtualTime leader_start,
                         BroadcastResult& out,
                         std::optional<std::size_t> sparse_nnz = {});

}  // namespace psra::comm
