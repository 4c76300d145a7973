// Compressed sparse row matrix for sample-major datasets.
//
// Rows are samples, columns are features. Provides the matrix-vector kernels
// the logistic-loss/TRON solver needs: A*x, A^T*v, and row extraction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_ops.hpp"
#include "linalg/sparse_vector.hpp"

namespace psra::linalg {

class SymmetricGram;

class CsrMatrix {
 public:
  using Index = std::uint64_t;

  CsrMatrix() = default;

  /// Builds from CSR arrays. row_ptr has rows+1 entries; within each row the
  /// column indices must be strictly increasing and < cols.
  CsrMatrix(Index rows, Index cols, std::vector<std::size_t> row_ptr,
            std::vector<Index> col_idx, std::vector<double> values);

  /// Incremental builder: append rows one at a time.
  class Builder {
   public:
    explicit Builder(Index cols);
    /// Appends a row given sorted (col, value) pairs.
    void AddRow(std::span<const Index> cols, std::span<const double> values);
    void AddRow(const SparseVector& row);
    CsrMatrix Build();

   private:
    Index cols_;
    std::vector<std::size_t> row_ptr_{0};
    std::vector<Index> col_idx_;
    std::vector<double> values_;
  };

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Density in [0, 1].
  double Density() const;

  std::span<const Index> RowIndices(Index r) const;
  std::span<const double> RowValues(Index r) const;

  /// Row as a SparseVector of dimension cols().
  SparseVector Row(Index r) const;

  /// out = A * x  (out has rows() entries)
  void Multiply(std::span<const double> x, std::span<double> out) const;

  /// out += A^T * v  (out has cols() entries)
  void TransposeMultiplyAdd(std::span<const double> v,
                            std::span<double> out) const;

  /// Dot of row r with dense x.
  double RowDot(Index r, std::span<const double> x) const;

  /// Extracts rows [begin, end) as a new matrix (same column space).
  CsrMatrix SliceRows(Index begin, Index end) const;

  /// Per-column count of nonzero entries (feature frequency).
  std::vector<std::size_t> ColumnNnz() const;

  /// Largest column index + 1 that actually occurs (<= cols()). Cached at
  /// construction — the column array is immutable, so this is O(1).
  Index MaxOccupiedColumn() const { return max_occupied_col_; }

  /// out += A^T diag(w) A accumulated row by row (transpose reduction,
  /// arXiv:1504.02147): each sparse row contributes its weighted outer
  /// product to the packed lower triangle — the Gram the logistic TRON
  /// Hessian needs (H = A^T D A + rho I). w has rows() entries; `out` must
  /// be Reset(cols()) by the caller. Cost is sum_r nnz(r)^2, after which
  /// Hessian-vector products never touch A.
  void GramProduct(std::span<const double> w, SymmetricGram& out) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  Index max_occupied_col_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<Index> col_idx_;
  std::vector<double> values_;
};

}  // namespace psra::linalg
