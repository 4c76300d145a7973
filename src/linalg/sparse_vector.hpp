// Sparse vector in coordinate (index, value) form with sorted unique indices.
//
// This is the representation the PSR-Allreduce cost analysis is written in:
// transmitting one element costs theta_s = (value_bytes + index_bytes) / B.
// The collectives operate on block slices of these vectors, so the type
// supports cheap range extraction and merging.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_ops.hpp"

namespace psra::linalg {

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
  /// capacity has grown to dense.size().
  void AssignFromDense(std::span<const double> dense, double tol = 0.0);

  /// Makes this the empty vector of dimension `dim`, keeping its storage.
  void Clear(Index dim);

  /// Overwrites this with block [lo, hi) of a vector of dimension `dim`,
  /// given as parallel arrays, reusing this vector's storage. Throws
  /// InvalidArgument, leaving this unchanged, unless hi <= dim and the
  /// indices are strictly increasing and lie in [lo, hi).
  void AssignBlock(Index dim, Index lo, Index hi,
                   std::span<const Index> indices,
                   std::span<const double> values);

  /// Overwrites this with the entries of a canonical block (see
  /// SparseBlockFold::Canonicalize) that `block` expands densely over
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

  /// Value at logical position i (O(log nnz)).
  double At(Index i) const;

  /// Writes the sub-vector with indices in [begin, end) into `out`,
  /// reusing its storage. Indices stay in the *original* coordinate system
  /// and dim() is preserved, so slices of different blocks can be merged
  /// back together. `out` must not alias this vector.
  void SliceInto(Index begin, Index end, SparseVector& out) const;

  /// Number of stored entries whose index lies in [begin, end).
  std::size_t CountInRange(Index begin, Index end) const;

  double Dot(std::span<const double> dense) const;

  double Norm2() const;

  /// out = a + b (indices unioned, values summed; entries that cancel to
  /// exactly zero are kept), reusing out's storage. `out` must not alias
  /// `a` or `b`.
  static void SumInto(const SparseVector& a, const SparseVector& b,
                      SparseVector& out);

  /// Concatenates sparse slices (disjoint, ascending index ranges) into
  /// `out`, reusing its storage. Dimensions must agree; `out` must not
  /// alias any part.
  static void ConcatDisjointInto(std::span<const SparseVector> parts,
                                 SparseVector& out);

  bool operator==(const SparseVector& other) const = default;

 private:
  friend class SparseBlockFold;

  /// Branchless compaction: overwrites entries from position `base` on with
  /// (first + k, vals[k]) for every k where keep(k), in order, and truncates
  /// after the last one. Returns the number kept.
  template <typename Keep>
  std::size_t CompactFrom(std::size_t base, Index first,
                          std::span<const double> vals, Keep keep);

  Index dim_ = 0;
  std::vector<Index> indices_;  // strictly increasing
  std::vector<double> values_;  // parallel to indices_
};

/// Sums sparse vectors over one index block [lo, hi) without pairwise
/// merges: a dense block accumulator plus presence flags. An index's first
/// contribution is copied and later ones are added in Add() order, so the
/// result has exactly the entries and bits of the SumInto chain
/// ((c0 + c1) + c2) + ... over the same contributions restricted to the
/// block. Entries that cancel to 0.0 stay, as they do in SumInto. This is
/// the PSR block owner's reduce (DESIGN.md §7); storage is recycled across
/// Reset() calls.
class SparseBlockFold {
 public:
  using Index = SparseVector::Index;

  /// Starts an empty fold over [lo, hi).
  void Reset(Index lo, Index hi);

  /// Folds in the entries of `v` whose index lies in [lo, hi).
  void Add(const SparseVector& v);

  /// Drops the entries that folded to +0.0 (a cancellation) and keeps every
  /// other one, -0.0 included: the canonical form of a completely reduced
  /// block. Its dense expansion decodes back to exactly these entries, so a
  /// block stored or forwarded in either encoding counts the same nnz.
  void Canonicalize();

  /// Appends the folded entries to `out` in index order and returns their
  /// count. `out` must have dimension >= hi and no entry at or above lo.
  std::size_t AppendTo(SparseVector& out) const;

  /// Entries folded so far (the count AppendTo would return). Counted on
  /// the first call after an Add, so the fold loop itself does no counting.
  std::size_t size() const;

 private:
  Index lo_ = 0;
  Index hi_ = 0;
  mutable std::size_t size_ = 0;
  mutable bool counted_ = true;
  std::vector<double> acc_;             // valid where present_ is set
  std::vector<unsigned char> present_;  // one flag per block index
};

}  // namespace psra::linalg
