#include "admm/local_solver.hpp"

#include "linalg/csr_matrix.hpp"
#include "support/status.hpp"

namespace psra::admm {

bool UseGramSolver(const LocalSolverOptions& solver, std::uint64_t rows,
                   std::uint64_t cols) {
  switch (solver.mode) {
    case LocalSolverOptions::Mode::kCg:
      return false;
    case LocalSolverOptions::Mode::kGram:
      return true;
    case LocalSolverOptions::Mode::kAuto:
      return cols > 0 && cols <= solver.max_gram_dim &&
             static_cast<double>(rows) >=
                 solver.tall_ratio * static_cast<double>(cols);
  }
  return false;
}

namespace {

/// Fills `columns` with the columns some row of `shard` touches, ascending,
/// and returns the shard with its column ids renumbered onto them. A shard
/// that touches every column maps onto itself: it returns null, and the
/// caller reads the shard as it is.
std::unique_ptr<data::Dataset> CompactShard(
    const data::Dataset* shard, std::vector<std::uint64_t>& columns) {
  PSRA_REQUIRE(shard != nullptr, "null shard");
  const auto& m = shard->features();
  // slot[j]: column j's nonzero count, overwritten by its compacted id.
  auto slot = m.ColumnNnz();
  for (std::size_t j = 0; j < slot.size(); ++j) {
    if (slot[j] == 0) continue;
    slot[j] = columns.size();
    columns.push_back(j);
  }
  if (columns.size() == slot.size()) return nullptr;
  linalg::CsrMatrix::Builder builder(columns.size());
  std::vector<std::uint64_t> row;
  for (std::uint64_t r = 0; r < m.rows(); ++r) {
    row.clear();
    for (const auto j : m.RowIndices(r)) row.push_back(slot[j]);
    builder.AddRow(row, m.RowValues(r));
  }
  return std::make_unique<data::Dataset>(builder.Build(), shard->labels());
}

}  // namespace

LocalSolver::LocalSolver(const data::Dataset* shard,
                         const LocalSolverOptions& options, double rho)
    : compact_(CompactShard(shard, columns_)),
      f_(compact_ != nullptr ? compact_.get() : shard, rho),
      dim_(shard->num_features()),
      x_(columns_.size()),
      v_(columns_.size()),
      z_(columns_.size()) {
  // Tall-vs-wide selection reads d_i, and the Gram buffer is preallocated
  // here so Solve stays allocation-free.
  f_.SetUseGramHessian(UseGramSolver(options, f_.num_samples(), f_.dim()));
}

void LocalSolver::SolveColumns(std::span<double> x, std::span<const double> v,
                               std::span<const double> z, double rho,
                               const solver::TronOptions& tron,
                               solver::FlopCounter* flops) {
  PSRA_REQUIRE(rho > 0.0, "rho must be positive");
  const std::size_t di = columns_.size();
  PSRA_REQUIRE(x.size() == di && v.size() == di && z.size() == dim_,
               "dimension mismatch");
  f_.SetRho(rho);
  for (std::size_t k = 0; k < di; ++k) {
    z_[k] = z[static_cast<std::size_t>(columns_[k])];
  }
  f_.SetIterationTerms(v, z_);
  solver::TronMinimize(f_, x, tron, flops, ws_);
  if (flops != nullptr) flops->Add(2.0 * static_cast<double>(dim_ - di));
}

void LocalSolver::Solve(std::span<double> x, std::span<const double> v,
                        std::span<const double> z, double rho,
                        const solver::TronOptions& tron,
                        solver::FlopCounter* flops) {
  PSRA_REQUIRE(rho > 0.0, "rho must be positive");
  PSRA_REQUIRE(x.size() == dim_ && v.size() == dim_ && z.size() == dim_,
               "dimension mismatch");
  const std::size_t di = columns_.size();
  for (std::size_t k = 0; k < di; ++k) {
    const auto j = static_cast<std::size_t>(columns_[k]);
    x_[k] = x[j];
    v_[k] = v[j];
  }
  SolveColumns(x_, v_, z, rho, tron, flops);
  // Closed form over the full width, then the occupied columns overwritten
  // from the compacted solve: two straight sweeps run about 2.5x faster on
  // the host than one sweep that stops at every occupied column.
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = z[j] - v[j] / rho;
  for (std::size_t k = 0; k < di; ++k) {
    x[static_cast<std::size_t>(columns_[k])] = x_[k];
  }
}

}  // namespace psra::admm
