#include "linalg/sparse_vector.hpp"

#include <algorithm>
#include <cmath>

#include "support/status.hpp"

namespace psra::linalg {

void CheckEntries(std::span<const std::uint64_t> indices,
                  std::span<const double> values, std::uint64_t lo,
                  std::uint64_t hi) {
  PSRA_REQUIRE(indices.size() == values.size(),
               "index/value arrays differ in length");
  for (std::size_t i = 0; i < indices.size(); ++i) {
    PSRA_REQUIRE(lo <= indices[i] && indices[i] < hi,
                 "sparse index out of range");
    if (i > 0) {
      PSRA_REQUIRE(indices[i - 1] < indices[i],
                   "sparse indices must be strictly increasing");
    }
  }
}

SparseVector::SparseVector(Index dim, std::vector<Index> indices,
                           std::vector<double> values)
    : dim_(dim), indices_(std::move(indices)), values_(std::move(values)) {
  CheckEntries(indices_, values_, 0, dim_);
}

SparseVector SparseVector::FromDense(std::span<const double> dense,
                                     double tol) {
  SparseVector out;
  out.AssignFromDense(dense, tol);
  return out;
}

void SparseVector::AssignFromDense(std::span<const double> dense, double tol) {
  dim_ = static_cast<Index>(dense.size());
  CompactEntries(
      0, dense, [&](std::size_t k) { return std::fabs(dense[k]) > tol; },
      indices_, values_);
}

void SparseVector::Clear(Index dim) {
  dim_ = dim;
  indices_.clear();
  values_.clear();
}

void SparseVector::AssignFromDenseBlock(Index dim, Index lo,
                                        std::span<const double> block) {
  PSRA_REQUIRE(lo <= dim && block.size() <= dim - lo,
               "block exceeds the dimension");
  dim_ = dim;
  CompactEntries(
      lo, block, [&](std::size_t k) { return IsCanonicalEntry(block[k]); },
      indices_, values_);
}

DenseVector SparseVector::ToDense() const {
  DenseVector out;
  ToDense(out);
  return out;
}

void SparseVector::ToDense(DenseVector& out) const {
  out.assign(static_cast<std::size_t>(dim_), 0.0);
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    out[static_cast<std::size_t>(indices_[k])] = values_[k];
  }
}

std::size_t SparseVector::CountInRange(Index begin, Index end) const {
  PSRA_REQUIRE(begin <= end && end <= dim_, "bad count range");
  const auto lo = std::lower_bound(indices_.begin(), indices_.end(), begin);
  const auto hi = std::lower_bound(lo, indices_.end(), end);
  return static_cast<std::size_t>(hi - lo);
}

double SparseVector::Dot(std::span<const double> dense) const {
  PSRA_REQUIRE(dense.size() == dim_, "dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    acc += values_[k] * dense[static_cast<std::size_t>(indices_[k])];
  }
  return acc;
}

void SparseVector::SumInto(const SparseVector& a, const SparseVector& b,
                           SparseVector& out) {
  PSRA_REQUIRE(a.dim_ == b.dim_ || a.dim_ == 0 || b.dim_ == 0,
               "sum dimension mismatch");
  PSRA_REQUIRE(&out != &a && &out != &b, "SumInto must not alias its inputs");
  out.dim_ = std::max(a.dim_, b.dim_);
  out.indices_.clear();
  out.values_.clear();
  out.indices_.reserve(a.nnz() + b.nnz());
  out.values_.reserve(a.nnz() + b.nnz());
  std::size_t i = 0, j = 0;
  while (i < a.nnz() || j < b.nnz()) {
    if (j >= b.nnz() || (i < a.nnz() && a.indices_[i] < b.indices_[j])) {
      out.indices_.push_back(a.indices_[i]);
      out.values_.push_back(a.values_[i]);
      ++i;
    } else if (i >= a.nnz() || b.indices_[j] < a.indices_[i]) {
      out.indices_.push_back(b.indices_[j]);
      out.values_.push_back(b.values_[j]);
      ++j;
    } else {
      out.indices_.push_back(a.indices_[i]);
      out.values_.push_back(a.values_[i] + b.values_[j]);
      ++i;
      ++j;
    }
  }
}

}  // namespace psra::linalg
