#include "comm/intranode.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace psra::comm {

void ReduceToLeader(const GroupComm& group, GroupRank leader,
                    std::span<const linalg::DenseVector> inputs,
                    std::span<const simnet::VirtualTime> starts,
                    ReduceResult& out, bool sparse) {
  PSRA_REQUIRE(inputs.size() == group.size(), "one input per member required");
  const std::size_t dim = inputs[0].size();
  for (const auto& v : inputs) {
    PSRA_REQUIRE(v.size() == dim, "input dimension mismatch");
  }
  out.value.assign(dim, 0.0);
  out.member_nnz.resize(inputs.size());
  for (GroupRank g = 0; g < group.size(); ++g) {
    out.member_nnz[g] = linalg::AddCountNonzeros(inputs[g], out.value);
  }
  PriceReduceToLeader(group, leader, starts, dim, out, sparse);
}

void PriceReduceToLeader(const GroupComm& group, GroupRank leader,
                         std::span<const simnet::VirtualTime> starts,
                         std::size_t dim, ReduceResult& out, bool sparse) {
  PSRA_REQUIRE(leader < group.size(), "leader rank out of range");
  PSRA_REQUIRE(starts.size() == group.size(), "one start per member required");
  PSRA_REQUIRE(!sparse || out.member_nnz.size() == group.size(),
               "one nonzero count per member required");
  const ElemPricing pr = group.pricing();
  out.finish_times.assign(group.size(), 0.0);
  out.leader_ready = starts[leader];
  out.elements_sent = 0;
  out.messages_sent = 0;
  out.bytes_sent = 0;
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (g == leader) {
      out.finish_times[g] = starts[g];
      continue;
    }
    const Encoding e =
        sparse ? pr.Cheaper(out.member_nnz[g], dim) : Encoding{false, dim};
    const simnet::VirtualTime done =
        starts[g] + group.TransferTime(g, leader, e);
    out.finish_times[g] = done;
    out.leader_ready = std::max(out.leader_ready, done);
    detail::CountSend(e.elements, pr.PerElement(e.sparse), out.elements_sent,
                      out.messages_sent, out.bytes_sent);
  }
}

void BroadcastFromLeader(const GroupComm& group, GroupRank leader,
                         std::size_t len, simnet::VirtualTime leader_start,
                         BroadcastResult& out,
                         std::optional<std::size_t> sparse_nnz) {
  PSRA_REQUIRE(leader < group.size(), "leader rank out of range");
  const ElemPricing pr = group.pricing();
  const Encoding e = sparse_nnz ? pr.Cheaper(*sparse_nnz, len)
                                : Encoding{false, len};
  out.finish_times.assign(group.size(), leader_start);
  out.elements_sent = 0;
  out.messages_sent = 0;
  out.bytes_sent = 0;

  simnet::VirtualTime clock = leader_start;
  for (GroupRank g = 0; g < group.size(); ++g) {
    if (g == leader) continue;
    clock += group.TransferTime(leader, g, e);
    out.finish_times[g] = clock;
    detail::CountSend(e.elements, pr.PerElement(e.sparse), out.elements_sent,
                      out.messages_sent, out.bytes_sent);
  }
  out.finish_times[leader] = clock;
}

}  // namespace psra::comm
