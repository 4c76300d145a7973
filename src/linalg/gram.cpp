#include "linalg/gram.hpp"

#include <cmath>
#include <cstring>

#include "support/status.hpp"

namespace psra::linalg {

void SymmetricGram::Reset(std::size_t dim) {
  dim_ = dim;
  const std::size_t packed = dim * (dim + 1) / 2;
  if (packed_.size() < packed) {
    packed_.resize(packed);
  }
  std::memset(packed_.data(), 0, packed * sizeof(double));
}

double SymmetricGram::At(std::size_t i, std::size_t j) const {
  if (j > i) std::swap(i, j);
  PSRA_REQUIRE(i < dim_, "SymmetricGram::At out of range");
  return packed_[i * (i + 1) / 2 + j];
}

void SymmetricGram::AddScaledOuter(std::span<const std::uint64_t> cols,
                                   std::span<const double> vals, double w) {
  PSRA_REQUIRE(cols.size() == vals.size(),
             "SymmetricGram::AddScaledOuter cols/vals size mismatch");
  const std::size_t nnz = cols.size();
  double* packed = packed_.data();
  for (std::size_t a = 0; a < nnz; ++a) {
    const std::size_t ca = static_cast<std::size_t>(cols[a]);
    const double wa = w * vals[a];
    double* row = packed + ca * (ca + 1) / 2;
    // cols are strictly increasing, so every cols[b] with b <= a lands in
    // row ca of the lower triangle.
    for (std::size_t b = 0; b <= a; ++b) {
      row[cols[b]] += wa * vals[b];
    }
  }
}

void SymmetricGram::AddDiagonal(double v) {
  double* packed = packed_.data();
  for (std::size_t i = 0; i < dim_; ++i) {
    packed[i * (i + 1) / 2 + i] += v;
  }
}

void SymmetricGram::Multiply(std::span<const double> x,
                             std::span<double> out) const {
  PSRA_REQUIRE(x.size() == dim_ && out.size() == dim_,
             "SymmetricGram::Multiply size mismatch");
  const double* packed = packed_.data();
  // Row i both gathers its dot product into out[i] and scatters the mirrored
  // upper-triangle contribution x[i] * G[i][j] into out[j < i]. out[j] is
  // assigned at row j before any row i > j scatters into it, so no pre-zero
  // pass is needed and each stored element is read exactly once.
  for (std::size_t i = 0; i < dim_; ++i) {
    const double* row = packed + i * (i + 1) / 2;
    const double xi = x[i];
    double acc = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      acc += row[j] * x[j];
      out[j] += row[j] * xi;
    }
    out[i] = acc + row[i] * xi;
  }
}

}  // namespace psra::linalg
