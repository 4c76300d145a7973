// Per-element wire pricing shared by every communication backend.
//
// The paper's traffic accounting (eq. 11-16) prices a message as
//     elements * per-element width
// where a dense element ships its value only and a sparse element ships
// value + index. Both executors of the allreduce schedules — the
// virtual-time simulator (collective.cpp) and the rank-local wire executor
// (wire_allreduce.cpp, running over a real comm::Transport) — book traffic
// through this one struct and the shared CountSend formula, so
// bytes_sent / messages_sent / elements_sent are comparable across backends
// BY CONSTRUCTION. The cross-backend conformance suite (tests/test_transport,
// tools/psra_conformance) pins them equal.
#pragma once

#include <cstddef>

namespace psra::comm {

/// Wire width of one element, by payload kind.
struct ElemPricing {
  std::size_t value_bytes = 8;  // double precision
  std::size_t index_bytes = 8;  // 64-bit indices

  std::size_t PerElement(bool sparse) const {
    return sparse ? value_bytes + index_bytes : value_bytes;
  }

  bool operator==(const ElemPricing& other) const = default;
};

namespace detail {

/// The single traffic formula behind every backend's per-message accounting:
/// one posted message carrying `elems` elements priced at `per_elem_bytes`.
inline void CountSend(std::size_t elems, std::size_t per_elem_bytes,
                      std::size_t& elements, std::size_t& messages,
                      std::size_t& bytes) {
  elements += elems;
  ++messages;
  bytes += elems * per_elem_bytes;
}

}  // namespace detail

}  // namespace psra::comm
