#include "linalg/csr_matrix.hpp"

#include <algorithm>

#include "linalg/gram.hpp"
#include "support/status.hpp"

namespace psra::linalg {

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<std::size_t> row_ptr,
                     std::vector<Index> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  PSRA_REQUIRE(row_ptr_.size() == rows_ + 1, "row_ptr length must be rows+1");
  PSRA_REQUIRE(col_idx_.size() == values_.size(),
               "col/value arrays differ in length");
  PSRA_REQUIRE(row_ptr_.front() == 0 && row_ptr_.back() == col_idx_.size(),
               "row_ptr endpoints inconsistent with nnz");
  for (Index r = 0; r < rows_; ++r) {
    PSRA_REQUIRE(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr must be monotone");
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      PSRA_REQUIRE(col_idx_[k] < cols_, "column index out of range");
      if (k > row_ptr_[r]) {
        PSRA_REQUIRE(col_idx_[k - 1] < col_idx_[k],
                     "columns within a row must be strictly increasing");
      }
    }
    // Columns are strictly increasing within a row, so the row's last entry
    // is its maximum; the validation pass doubles as the occupancy scan.
    if (row_ptr_[r + 1] > row_ptr_[r]) {
      max_occupied_col_ =
          std::max(max_occupied_col_, col_idx_[row_ptr_[r + 1] - 1] + 1);
    }
  }
}

CsrMatrix::Builder::Builder(Index cols) : cols_(cols) {}

void CsrMatrix::Builder::AddRow(std::span<const Index> cols,
                                std::span<const double> values) {
  PSRA_REQUIRE(cols.size() == values.size(), "row arrays differ in length");
  for (std::size_t k = 0; k < cols.size(); ++k) {
    PSRA_REQUIRE(cols[k] < cols_, "column index out of range");
    if (k > 0) {
      PSRA_REQUIRE(cols[k - 1] < cols[k],
                   "columns within a row must be strictly increasing");
    }
  }
  col_idx_.insert(col_idx_.end(), cols.begin(), cols.end());
  values_.insert(values_.end(), values.begin(), values.end());
  row_ptr_.push_back(col_idx_.size());
}

void CsrMatrix::Builder::AddRow(const SparseVector& row) {
  PSRA_REQUIRE(row.dim() == cols_, "row dimension mismatch");
  AddRow(row.indices(), row.values());
}

CsrMatrix CsrMatrix::Builder::Build() {
  const Index rows = static_cast<Index>(row_ptr_.size() - 1);
  return CsrMatrix(rows, cols_, std::move(row_ptr_), std::move(col_idx_),
                   std::move(values_));
}

double CsrMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::span<const CsrMatrix::Index> CsrMatrix::RowIndices(Index r) const {
  PSRA_REQUIRE(r < rows_, "row out of range");
  return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> CsrMatrix::RowValues(Index r) const {
  PSRA_REQUIRE(r < rows_, "row out of range");
  return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

SparseVector CsrMatrix::Row(Index r) const {
  const auto idx = RowIndices(r);
  const auto val = RowValues(r);
  return SparseVector(cols_, {idx.begin(), idx.end()},
                      {val.begin(), val.end()});
}

void CsrMatrix::Multiply(std::span<const double> x,
                         std::span<double> out) const {
  PSRA_REQUIRE(x.size() == cols_, "multiply input dimension mismatch");
  PSRA_REQUIRE(out.size() == rows_, "multiply output dimension mismatch");
  const std::size_t* rp = row_ptr_.data();
  const Index* ci = col_idx_.data();
  const double* va = values_.data();
  Index r = 0;
  // Four rows advance in lockstep, one sequential accumulator per row: the
  // four FP-add chains are independent (ILP across rows) while each row still
  // sums its entries in CSR order — bitwise-identical to the scalar loop,
  // which the sweep baselines' convergence counters pin down exactly.
  for (; r + 4 <= rows_; r += 4) {
    std::size_t k0 = rp[r], k1 = rp[r + 1], k2 = rp[r + 2], k3 = rp[r + 3];
    const std::size_t e0 = rp[r + 1], e1 = rp[r + 2], e2 = rp[r + 3],
                      e3 = rp[r + 4];
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    while (k0 < e0 && k1 < e1 && k2 < e2 && k3 < e3) {
      a0 += va[k0] * x[static_cast<std::size_t>(ci[k0])];
      a1 += va[k1] * x[static_cast<std::size_t>(ci[k1])];
      a2 += va[k2] * x[static_cast<std::size_t>(ci[k2])];
      a3 += va[k3] * x[static_cast<std::size_t>(ci[k3])];
      ++k0;
      ++k1;
      ++k2;
      ++k3;
    }
    for (; k0 < e0; ++k0) a0 += va[k0] * x[static_cast<std::size_t>(ci[k0])];
    for (; k1 < e1; ++k1) a1 += va[k1] * x[static_cast<std::size_t>(ci[k1])];
    for (; k2 < e2; ++k2) a2 += va[k2] * x[static_cast<std::size_t>(ci[k2])];
    for (; k3 < e3; ++k3) a3 += va[k3] * x[static_cast<std::size_t>(ci[k3])];
    out[static_cast<std::size_t>(r)] = a0;
    out[static_cast<std::size_t>(r + 1)] = a1;
    out[static_cast<std::size_t>(r + 2)] = a2;
    out[static_cast<std::size_t>(r + 3)] = a3;
  }
  for (; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += va[k] * x[static_cast<std::size_t>(ci[k])];
    }
    out[static_cast<std::size_t>(r)] = acc;
  }
}

void CsrMatrix::TransposeMultiplyAdd(std::span<const double> v,
                                     std::span<double> out) const {
  PSRA_REQUIRE(v.size() == rows_, "transpose-multiply input mismatch");
  PSRA_REQUIRE(out.size() == cols_, "transpose-multiply output mismatch");
  const std::size_t* rp = row_ptr_.data();
  const Index* ci = col_idx_.data();
  const double* va = values_.data();
  for (Index r = 0; r < rows_; ++r) {
    const double vr = v[static_cast<std::size_t>(r)];
    if (vr == 0.0) continue;
    // Columns within a row are strictly increasing, so the four scatters per
    // block hit distinct targets: unrolling changes no accumulation order,
    // only exposes independent add chains.
    std::size_t k = rp[r];
    const std::size_t end = rp[r + 1];
    for (; k + 4 <= end; k += 4) {
      out[static_cast<std::size_t>(ci[k])] += vr * va[k];
      out[static_cast<std::size_t>(ci[k + 1])] += vr * va[k + 1];
      out[static_cast<std::size_t>(ci[k + 2])] += vr * va[k + 2];
      out[static_cast<std::size_t>(ci[k + 3])] += vr * va[k + 3];
    }
    for (; k < end; ++k) {
      out[static_cast<std::size_t>(ci[k])] += vr * va[k];
    }
  }
}

double CsrMatrix::RowDot(Index r, std::span<const double> x) const {
  PSRA_REQUIRE(r < rows_, "row out of range");
  PSRA_REQUIRE(x.size() == cols_, "row-dot dimension mismatch");
  double acc = 0.0;
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
    acc += values_[k] * x[static_cast<std::size_t>(col_idx_[k])];
  }
  return acc;
}

CsrMatrix CsrMatrix::SliceRows(Index begin, Index end) const {
  PSRA_REQUIRE(begin <= end && end <= rows_, "bad row slice range");
  Builder b(cols_);
  for (Index r = begin; r < end; ++r) b.AddRow(RowIndices(r), RowValues(r));
  return b.Build();
}

std::vector<std::size_t> CsrMatrix::ColumnNnz() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(cols_), 0);
  for (Index c : col_idx_) ++counts[static_cast<std::size_t>(c)];
  return counts;
}

void CsrMatrix::GramProduct(std::span<const double> w,
                            SymmetricGram& out) const {
  PSRA_REQUIRE(w.size() == rows_, "gram-product weight size mismatch");
  PSRA_REQUIRE(out.dim() == cols_, "gram-product dimension mismatch");
  for (Index r = 0; r < rows_; ++r) {
    out.AddScaledOuter(RowIndices(r), RowValues(r),
                       w[static_cast<std::size_t>(r)]);
  }
}

}  // namespace psra::linalg
