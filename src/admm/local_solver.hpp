// The per-worker x-update (paper eq. 4), solved on the shard's own columns:
//
//   x = argmin_x  f_i(x) + v^T x + (rho/2) ||x - z||^2
//
// f_i (the shard's logistic loss) depends only on the columns some row of
// the shard touches. On every other column j the problem decouples into
// v_j x_j + (rho/2)(x_j - z_j)^2, whose minimizer is x_j = z_j - v_j / rho
// (general-form consensus, Boyd et al. 2011 §7.2). LocalSolver records the
// shard's d_i occupied columns once and keeps a copy of the shard whose
// column ids are renumbered onto them (none when d_i = d: the caller's shard
// is read as it is). SolveColumns runs TRON in R^{d_i} on x and v already
// held on those columns; WorkerSet keeps its workers' x, y and w there and
// evaluates the closed form once per shared base (DESIGN.md §7 rules 6 and
// 8). Solve is the full-width form: gather, SolveColumns, closed form,
// scatter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "solver/logistic.hpp"
#include "solver/tron.hpp"

namespace psra::admm {

/// Local x-subproblem solver selection (DESIGN.md §14). The CG mode is the
/// matrix-free TRON/CG path every engine has always used; the Gram mode
/// enables the transpose-reduction Hessian (A^T D A accumulated once per
/// outer Newton iteration, Hessian-vector products as dense d_i x d_i
/// matvecs that never re-stream the shard — arXiv:1504.02147). Auto picks
/// per worker from the shard shape. Changing the mode changes the summation
/// order of the x-update, so the default stays kCg: existing runs remain
/// bitwise-identical to every committed baseline.
struct LocalSolverOptions {
  enum class Mode {
    kCg,    ///< matrix-free TRON/CG (default; baseline-exact)
    kAuto,  ///< Gram on tall shards (rows >= tall_ratio * d_i), CG otherwise
    kGram,  ///< Gram Hessian on every worker
  };
  Mode mode = Mode::kCg;
  /// kAuto threshold: a shard is "tall" when rows >= tall_ratio * cols.
  double tall_ratio = 4.0;
  /// kAuto refuses the Gram path above this many occupied columns (the
  /// packed Gram is d_i(d_i+1)/2 doubles per worker; 2048 caps it at 16 MiB).
  std::uint64_t max_gram_dim = 2048;
};

/// Per-worker selection: true when `solver` says a shard of `rows` rows
/// over `cols` occupied columns should run the Gram-accelerated Hessian.
bool UseGramSolver(const LocalSolverOptions& solver, std::uint64_t rows,
                   std::uint64_t cols);

class LocalSolver {
 public:
  /// `shard` must outlive this object; `rho` seeds the proximal weight.
  /// kAuto decides the Hessian path on the occupied-column count d_i. A
  /// shard that touches every column is read as it is, with no copy.
  LocalSolver(const data::Dataset* shard, const LocalSolverOptions& options,
              double rho);

  // The solver points into the compacted shard (or the caller's); a move
  // keeps that pointer valid, a copy would not.
  LocalSolver(const LocalSolver&) = delete;
  LocalSolver& operator=(const LocalSolver&) = delete;
  LocalSolver(LocalSolver&&) = default;

  /// Occupied columns d_i (the dimension TRON runs in).
  std::uint64_t occupied() const { return f_.dim(); }
  /// True when the solver keeps its own renumbered copy of the shard (some
  /// column is untouched); false when it reads the caller's shard.
  bool copies_shard() const { return compact_ != nullptr; }
  bool uses_gram() const { return f_.use_gram_hessian(); }
  /// The occupied columns, ascending.
  std::span<const std::uint64_t> columns() const { return columns_; }

  /// Minimizes eq. 4 on the occupied columns: `x` (the warm start, which
  /// receives the solution) and `v` hold the d_i occupied coordinates, and
  /// the full-width proximal center `z` is read at them. Adds TRON's flops
  /// over d_i plus 2 per untouched column, the closed form the caller
  /// evaluates there.
  void SolveColumns(std::span<double> x, std::span<const double> v,
                    std::span<const double> z, double rho,
                    const solver::TronOptions& tron,
                    solver::FlopCounter* flops);

  /// Full-width form: minimizes eq. 4 with linear term v, proximal center z
  /// and weight rho, starting from (and writing back to) the full-width x,
  /// every untouched coordinate in closed form. Same flops as SolveColumns.
  /// On a shard that touches every column this is bitwise a full-width
  /// TronMinimize.
  void Solve(std::span<double> x, std::span<const double> v,
             std::span<const double> z, double rho,
             const solver::TronOptions& tron, solver::FlopCounter* flops);

 private:
  // Occupied columns, ascending.
  std::vector<std::uint64_t> columns_;
  // The shard with column ids renumbered onto columns_; null when columns_
  // is every column and f_ reads the caller's shard.
  std::unique_ptr<data::Dataset> compact_;
  solver::ProximalLogistic f_;
  std::uint64_t dim_;  // full width d
  // d_i-length gathers of x and v (Solve) and of z, plus TRON's working
  // vectors.
  linalg::DenseVector x_, v_, z_;
  solver::TronWorkspace ws_;
};

}  // namespace psra::admm
