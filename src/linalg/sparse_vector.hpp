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

  /// Expands to a dense vector of size dim().
  DenseVector ToDense() const;

  /// In-place ToDense: resizes `out` to dim(), zero-fills it and scatters
  /// the stored entries. Allocation-free when out.capacity() >= dim().
  void ToDense(DenseVector& out) const;

  /// Scatter-adds this vector into a dense accumulator (size must be dim()).
  void AddToDense(std::span<double> dense, double scale = 1.0) const;

  Index dim() const { return dim_; }
  std::size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  std::span<const Index> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }

  /// Value at logical position i (O(log nnz)).
  double At(Index i) const;

  /// Extracts the sub-vector with indices in [begin, end); indices in the
  /// result stay in the *original* coordinate system and dim() is preserved,
  /// so slices of different blocks can be merged back together.
  SparseVector Slice(Index begin, Index end) const;

  /// In-place Slice: writes the sub-vector into `out`, reusing its storage.
  /// `out` must not alias this vector.
  void SliceInto(Index begin, Index end, SparseVector& out) const;

  /// Number of stored entries whose index lies in [begin, end).
  std::size_t CountInRange(Index begin, Index end) const;

  /// this += other (indices unioned, values summed). Entries that cancel to
  /// exactly zero are kept; call Prune to drop them.
  void AddInPlace(const SparseVector& other, double scale = 1.0);

  /// Removes entries with |value| <= tol.
  void Prune(double tol = 0.0);

  void Scale(double alpha);

  double Dot(std::span<const double> dense) const;

  double Norm2() const;

  /// Returns a + b.
  static SparseVector Sum(const SparseVector& a, const SparseVector& b);

  /// In-place Sum: out = a + b, reusing out's storage. `out` must not alias
  /// `a` or `b`. Produces exactly the same entries as Sum().
  static void SumInto(const SparseVector& a, const SparseVector& b,
                      SparseVector& out);

  /// Concatenates sparse slices (disjoint, ascending index ranges) into one
  /// vector. Dimensions must agree.
  static SparseVector ConcatDisjoint(std::span<const SparseVector> parts);

  /// In-place ConcatDisjoint, reusing out's storage. `out` must not alias
  /// any part.
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

  /// Appends the folded entries to `out` in index order and returns their
  /// count. `out` must have dimension >= hi and no entry at or above lo.
  std::size_t AppendTo(SparseVector& out) const;

 private:
  Index lo_ = 0;
  Index hi_ = 0;
  std::vector<double> acc_;             // valid where present_ is set
  std::vector<unsigned char> present_;  // one flag per block index
};

}  // namespace psra::linalg
