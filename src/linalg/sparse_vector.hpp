// Sparse vector in coordinate (index, value) form with sorted unique indices.
//
// This is the representation the PSR-Allreduce cost analysis is written in:
// transmitting one element costs theta_s = (value_bytes + index_bytes) / B.
// The collectives fold sparse payloads into dense blocks (comm's
// PricedBlockFold); a SparseVector is one of their input formats and the
// packed form of a completed sum.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_ops.hpp"

namespace psra::linalg {

/// Whether a completely reduced sparse block held dense keeps `v` as an
/// entry: every value but +0.0, the result of a cancellation (-0.0 and NaN
/// included). This is the canonical form of a reduced block; its dense
/// expansion decodes back to exactly these entries.
inline bool IsCanonicalEntry(double v) {
  return std::bit_cast<std::uint64_t>(v) != 0;
}

/// Throws InvalidArgument unless `indices` and `values` have equal lengths
/// and the indices are strictly increasing and lie in [lo, hi).
void CheckEntries(std::span<const std::uint64_t> indices,
                  std::span<const double> values, std::uint64_t lo,
                  std::uint64_t hi);

/// Overwrites `indices` and `values` with (first + k, vals[k]) for every k
/// where keep(k), in order, and returns their count. After a counting pass,
/// the candidates are read 64 at a time into a bit mask and only the kept
/// ones are visited, so the writes cost per entry kept, not per candidate.
template <typename Keep>
std::size_t CompactEntries(std::uint64_t first, std::span<const double> vals,
                           Keep keep, std::vector<std::uint64_t>& indices,
                           std::vector<double>& values) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < vals.size(); ++k) n += keep(k) ? 1 : 0;
  indices.resize(n);
  values.resize(n);
  std::size_t w = 0;
  for (std::size_t base = 0; base < vals.size(); base += 64) {
    const std::size_t len = std::min<std::size_t>(64, vals.size() - base);
    std::uint64_t mask = 0;
    for (std::size_t j = 0; j < len; ++j) {
      mask |= std::uint64_t{keep(base + j)} << j;
    }
    for (; mask != 0; mask &= mask - 1) {
      const std::size_t k =
          base + static_cast<std::size_t>(std::countr_zero(mask));
      indices[w] = first + k;
      values[w] = vals[k];
      ++w;
    }
  }
  return n;
}

class SparseVector {
 public:
  using Index = std::uint64_t;

  SparseVector() = default;

  /// Constructs from parallel arrays; indices must be strictly increasing and
  /// < dim. Zero values are kept as given.
  SparseVector(Index dim, std::vector<Index> indices,
               std::vector<double> values);

  /// Builds from a dense vector, keeping exactly the entries with
  /// |v| > tol (so ±0.0 and NaN are dropped, subnormals kept at tol = 0).
  static SparseVector FromDense(std::span<const double> dense,
                                double tol = 0.0);

  /// In-place FromDense: overwrites this vector with the sparse form of
  /// `dense`, reusing the existing index/value storage. Allocation-free once
  /// capacity reaches the entries kept.
  void AssignFromDense(std::span<const double> dense, double tol = 0.0);

  /// Makes this the empty vector of dimension `dim`, keeping its storage.
  void Clear(Index dim);

  /// Overwrites this with the entries of a canonical block (see
  /// IsCanonicalEntry) that `block` expands densely over
  /// [lo, lo + block.size()): value k is kept, at index lo + k, unless its
  /// bits are +0.0. Reuses this vector's storage; `block` must not alias it.
  void AssignFromDenseBlock(Index dim, Index lo,
                            std::span<const double> block);

  /// Expands to a dense vector of size dim().
  DenseVector ToDense() const;

  /// In-place ToDense: resizes `out` to dim(), zero-fills it and scatters
  /// the stored entries. Allocation-free when out.capacity() >= dim().
  void ToDense(DenseVector& out) const;

  Index dim() const { return dim_; }
  std::size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  std::span<const Index> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }

  /// Number of stored entries whose index lies in [begin, end).
  std::size_t CountInRange(Index begin, Index end) const;

  double Dot(std::span<const double> dense) const;

  /// out = a + b (indices unioned, values summed; entries that cancel to
  /// exactly zero are kept), reusing out's storage. `out` must not alias
  /// `a` or `b`.
  static void SumInto(const SparseVector& a, const SparseVector& b,
                      SparseVector& out);

  bool operator==(const SparseVector& other) const = default;

 private:
  Index dim_ = 0;
  std::vector<Index> indices_;  // strictly increasing
  std::vector<double> values_;  // parallel to indices_
};

}  // namespace psra::linalg
