#include "linalg/sparse_vector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/status.hpp"

namespace psra::linalg {

namespace {

using Index = SparseVector::Index;

/// Checks parallel index/value arrays: equal lengths, indices strictly
/// increasing and inside [lo, hi).
void CheckEntries(std::span<const Index> indices,
                  std::span<const double> values, Index lo, Index hi) {
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

/// Whether a completely reduced block keeps `v` as an entry: every value
/// but +0.0, the result of a cancellation (-0.0 included).
bool IsCanonicalEntry(double v) {
  return std::bit_cast<std::uint64_t>(v) != 0;
}

}  // namespace

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

template <typename Keep>
std::size_t SparseVector::CompactFrom(std::size_t base, Index first,
                                      std::span<const double> vals,
                                      Keep keep) {
  // Every candidate is written; the cursor advances only past kept ones.
  indices_.resize(base + vals.size());
  values_.resize(base + vals.size());
  std::size_t w = base;
  for (std::size_t k = 0; k < vals.size(); ++k) {
    indices_[w] = first + k;
    values_[w] = vals[k];
    w += keep(k) ? 1 : 0;
  }
  indices_.resize(w);
  values_.resize(w);
  return w - base;
}

void SparseVector::AssignFromDense(std::span<const double> dense, double tol) {
  dim_ = static_cast<Index>(dense.size());
  CompactFrom(0, 0, dense,
              [&](std::size_t k) { return std::fabs(dense[k]) > tol; });
}

void SparseVector::Clear(Index dim) {
  dim_ = dim;
  indices_.clear();
  values_.clear();
}

void SparseVector::AssignBlock(Index dim, Index lo, Index hi,
                               std::span<const Index> indices,
                               std::span<const double> values) {
  PSRA_REQUIRE(hi <= dim, "block exceeds the dimension");
  CheckEntries(indices, values, lo, hi);
  dim_ = dim;
  indices_.assign(indices.begin(), indices.end());
  values_.assign(values.begin(), values.end());
}

void SparseVector::AssignFromDenseBlock(Index dim, Index lo,
                                        std::span<const double> block) {
  PSRA_REQUIRE(lo <= dim && block.size() <= dim - lo,
               "block exceeds the dimension");
  dim_ = dim;
  CompactFrom(0, lo, block,
              [&](std::size_t k) { return IsCanonicalEntry(block[k]); });
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

double SparseVector::At(Index i) const {
  PSRA_REQUIRE(i < dim_, "index out of range");
  const auto it = std::lower_bound(indices_.begin(), indices_.end(), i);
  if (it == indices_.end() || *it != i) return 0.0;
  return values_[static_cast<std::size_t>(it - indices_.begin())];
}

void SparseVector::SliceInto(Index begin, Index end, SparseVector& out) const {
  PSRA_REQUIRE(begin <= end && end <= dim_, "bad slice range");
  PSRA_REQUIRE(&out != this, "SliceInto must not alias its source");
  const auto lo = std::lower_bound(indices_.begin(), indices_.end(), begin);
  const auto hi = std::lower_bound(lo, indices_.end(), end);
  out.dim_ = dim_;
  out.indices_.assign(lo, hi);
  out.values_.assign(values_.begin() + (lo - indices_.begin()),
                     values_.begin() + (hi - indices_.begin()));
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

double SparseVector::Norm2() const {
  double acc = 0.0;
  for (double v : values_) acc += v * v;
  return std::sqrt(acc);
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

void SparseVector::ConcatDisjointInto(std::span<const SparseVector> parts,
                                      SparseVector& out) {
  out.dim_ = 0;
  out.indices_.clear();
  out.values_.clear();
  for (const auto& p : parts) {
    PSRA_REQUIRE(&p != &out, "ConcatDisjointInto must not alias a part");
    if (p.dim_ == 0) continue;
    if (out.dim_ == 0) out.dim_ = p.dim_;
    PSRA_REQUIRE(out.dim_ == p.dim_, "concat dimension mismatch");
    if (!p.indices_.empty() && !out.indices_.empty()) {
      PSRA_REQUIRE(out.indices_.back() < p.indices_.front(),
                   "concat parts must be disjoint and ascending");
    }
    out.indices_.insert(out.indices_.end(), p.indices_.begin(),
                        p.indices_.end());
    out.values_.insert(out.values_.end(), p.values_.begin(), p.values_.end());
  }
}

void SparseBlockFold::Reset(Index lo, Index hi) {
  PSRA_REQUIRE(lo <= hi, "bad fold range");
  lo_ = lo;
  hi_ = hi;
  size_ = 0;
  counted_ = true;
  acc_.resize(static_cast<std::size_t>(hi - lo));
  present_.assign(static_cast<std::size_t>(hi - lo), 0);
}

void SparseBlockFold::Add(const SparseVector& v) {
  const auto idx = v.indices();
  const auto first = std::lower_bound(idx.begin(), idx.end(), lo_);
  const auto last = std::lower_bound(first, idx.end(), hi_);
  for (auto k = static_cast<std::size_t>(first - idx.begin());
       k < static_cast<std::size_t>(last - idx.begin()); ++k) {
    const auto b = static_cast<std::size_t>(idx[k] - lo_);
    const double value = v.values()[k];
    // Selects the sum or the first contribution by mask, not by branch:
    // all ones where the index is already present.
    const std::uint64_t seen = 0 - static_cast<std::uint64_t>(present_[b]);
    const std::uint64_t folded = std::bit_cast<std::uint64_t>(acc_[b] + value);
    acc_[b] = std::bit_cast<double>(
        (folded & seen) | (std::bit_cast<std::uint64_t>(value) & ~seen));
    present_[b] = 1;
  }
  counted_ = false;
}

void SparseBlockFold::Canonicalize() {
  // Bitwise rather than short-circuit, so the loop has no branch.
  std::size_t kept = 0;
  for (std::size_t k = 0; k < present_.size(); ++k) {
    present_[k] &= static_cast<unsigned char>(IsCanonicalEntry(acc_[k]));
    kept += present_[k];
  }
  size_ = kept;
  counted_ = true;
}

std::size_t SparseBlockFold::size() const {
  if (!counted_) {
    size_ = static_cast<std::size_t>(
        std::count(present_.begin(), present_.end(), 1));
    counted_ = true;
  }
  return size_;
}

std::size_t SparseBlockFold::AppendTo(SparseVector& out) const {
  PSRA_REQUIRE(hi_ <= out.dim_, "fold block exceeds the output dimension");
  PSRA_REQUIRE(out.indices_.empty() || out.indices_.back() < lo_,
               "fold blocks must be appended in ascending order");
  return out.CompactFrom(out.nnz(), lo_, acc_,
                         [&](std::size_t k) { return present_[k] != 0; });
}

}  // namespace psra::linalg
