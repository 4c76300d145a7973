// Per-element wire pricing and the encoding rule shared by every
// communication backend.
//
// The paper's traffic accounting (eq. 11-16) prices a message as
//     elements * per-element width
// where a dense element ships its value only and a sparse element ships
// value + index. Both executors of the allreduce schedules — the
// virtual-time simulator (collective.cpp) and the rank-local wire executor
// (wire_allreduce.cpp, running over a real comm::Transport) — and the
// intra-node primitives (intranode.cpp) book traffic through this one struct
// and the shared CountSend formula, so bytes_sent / messages_sent /
// elements_sent are comparable across backends BY CONSTRUCTION. The
// cross-backend conformance suite (tests/test_transport,
// tools/psra_conformance) pins them equal.
#pragma once

#include <cstddef>

namespace psra::comm {

/// One message's wire form: `elements` values, each with its index when
/// `sparse`.
struct Encoding {
  bool sparse = false;
  std::size_t elements = 0;

  bool operator==(const Encoding& other) const = default;
};

/// Wire width of one element, by payload kind.
struct ElemPricing {
  std::size_t value_bytes = 8;  // double precision
  std::size_t index_bytes = 8;  // 64-bit indices

  std::size_t PerElement(bool sparse) const {
    return sparse ? value_bytes + index_bytes : value_bytes;
  }

  /// The encoding rule (DESIGN.md §5a): a message of `nnz` entries over a
  /// block of `len` coordinates travels dense (len values) when
  /// len * value_bytes < nnz * (value_bytes + index_bytes), and sparse (nnz
  /// value-index pairs) otherwise; ties stay sparse. With 8 + 8 bytes the
  /// break-even is half fill, with 4-byte values on 8-byte indices one
  /// third.
  Encoding Cheaper(std::size_t nnz, std::size_t len) const {
    if (len * value_bytes < nnz * (value_bytes + index_bytes)) {
      return {false, len};
    }
    return {true, nnz};
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
