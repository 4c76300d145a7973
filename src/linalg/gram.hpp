// Packed symmetric Gram container.
//
// SymmetricGram stores a d x d symmetric matrix as its lower triangle in
// packed row-major order (row i holds i+1 entries at offset i(i+1)/2), the
// shape produced by transpose-reduction local solvers: A^T D A accumulated
// once per Newton step from a CSR shard, then reused by every
// Hessian-vector product (DESIGN.md §14). Storage is recycled across Reset
// calls, so a warm container performs no allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_ops.hpp"

namespace psra::linalg {

class SymmetricGram {
 public:
  SymmetricGram() = default;

  /// Sizes the container for a `dim` x `dim` matrix and zeroes it. The
  /// packed buffer only grows; a warm Reset is a memset, not an allocation.
  void Reset(std::size_t dim);

  std::size_t dim() const { return dim_; }
  std::size_t packed_size() const { return dim_ * (dim_ + 1) / 2; }

  /// Element access (i >= j enforced by the packed layout; the symmetric
  /// mirror is implied).
  double At(std::size_t i, std::size_t j) const;

  /// G += w * a a^T for a sparse vector a given as sorted (cols, vals).
  /// Only the lower triangle is touched; cols must be strictly increasing.
  void AddScaledOuter(std::span<const std::uint64_t> cols,
                      std::span<const double> vals, double w);

  /// G[i][i] += v for every i.
  void AddDiagonal(double v);

  /// out = G x (full symmetric product; out is overwritten). One pass over
  /// the packed triangle: each row contributes its dot to out[i] and its
  /// scaled mirror to out[j<i], so every stored element is read once.
  void Multiply(std::span<const double> x, std::span<double> out) const;

  std::span<const double> packed() const { return packed_; }

 private:
  std::size_t dim_ = 0;
  std::vector<double> packed_;
};

}  // namespace psra::linalg
