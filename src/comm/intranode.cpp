#include "comm/intranode.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace psra::comm {

void ReduceToLeader(const GroupComm& group, GroupRank leader,
                    std::span<const linalg::DenseVector> inputs,
                    std::span<const simnet::VirtualTime> starts,
                    ReduceResult& out) {
  PSRA_REQUIRE(leader < group.size(), "leader rank out of range");
  PSRA_REQUIRE(inputs.size() == group.size(), "one input per member required");
  PSRA_REQUIRE(starts.size() == group.size(), "one start per member required");
  const std::size_t dim = inputs[0].size();
  for (const auto& v : inputs) {
    PSRA_REQUIRE(v.size() == dim, "input dimension mismatch");
  }

  const auto& cm = group.cost_model();
  out.finish_times.assign(group.size(), 0.0);
  out.leader_ready = 0.0;
  out.elements_sent = 0;
  out.messages_sent = 0;

  out.value.assign(dim, 0.0);
  for (GroupRank g = 0; g < group.size(); ++g) {
    linalg::Axpy(1.0, inputs[g], out.value);
  }

  out.leader_ready = starts[leader];
  out.finish_times[leader] = starts[leader];
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (g == leader) continue;
    const simnet::VirtualTime cost =
        cm.DenseTransferTime(group.LinkBetween(g, leader), dim);
    const simnet::VirtualTime done = starts[g] + cost;
    out.finish_times[g] = done;
    out.leader_ready = std::max(out.leader_ready, done);
    out.elements_sent += dim;
    ++out.messages_sent;
  }
}

void BroadcastFromLeader(const GroupComm& group, GroupRank leader,
                         std::size_t num_elements,
                         simnet::VirtualTime leader_start,
                         BroadcastResult& out) {
  PSRA_REQUIRE(leader < group.size(), "leader rank out of range");
  const auto& cm = group.cost_model();
  out.finish_times.assign(group.size(), leader_start);
  out.elements_sent = 0;
  out.messages_sent = 0;

  simnet::VirtualTime clock = leader_start;
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (g == leader) continue;
    const simnet::VirtualTime cost =
        cm.DenseTransferTime(group.LinkBetween(leader, g), num_elements);
    clock += cost;
    out.finish_times[g] = clock;
    out.elements_sent += num_elements;
    ++out.messages_sent;
  }
  out.finish_times[leader] = clock;
}

}  // namespace psra::comm
