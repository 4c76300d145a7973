// Tests for the solvers: logistic loss derivatives (checked against finite
// differences), TRON convergence, proximal z-update, metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/dense_ops.hpp"
#include "solver/direct.hpp"
#include "solver/logistic.hpp"
#include "solver/metrics.hpp"
#include "solver/prox.hpp"
#include "solver/tron.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::solver {
namespace {

data::Dataset SmallDataset(std::uint64_t seed = 5, std::uint64_t n = 60,
                           std::uint64_t d = 25) {
  data::SyntheticSpec spec;
  spec.num_features = d;
  spec.num_train = n;
  spec.num_test = 10;
  spec.mean_row_nnz = 6.0;
  spec.seed = seed;
  return data::GenerateSynthetic(spec).train;
}

// ------------------------------------------------------------- logistic ----

TEST(Logistic, ValueAtZeroIsNLog2) {
  const auto ds = SmallDataset();
  const linalg::DenseVector x(ds.num_features(), 0.0);
  EXPECT_NEAR(LogisticValue(ds, x),
              static_cast<double>(ds.num_samples()) * std::log(2.0), 1e-9);
}

TEST(Logistic, ValueIsFiniteForExtremeMargins) {
  const auto ds = SmallDataset();
  linalg::DenseVector x(ds.num_features(), 1e4);
  EXPECT_TRUE(std::isfinite(LogisticValue(ds, x)));
  for (auto& v : x) v = -1e4;
  EXPECT_TRUE(std::isfinite(LogisticValue(ds, x)));
}

class ProximalFixture : public ::testing::Test {
 protected:
  ProximalFixture()
      : ds_(SmallDataset()),
        f_(&ds_, 0.7),
        v_(ds_.num_features(), 0.0),
        z_(ds_.num_features(), 0.0) {
    Rng rng(3);
    for (auto& e : v_) e = 0.1 * rng.NextGaussian();
    for (auto& e : z_) e = 0.2 * rng.NextGaussian();
    f_.SetIterationTerms(v_, z_);
  }

  data::Dataset ds_;
  ProximalLogistic f_;
  linalg::DenseVector v_, z_;
};

TEST_F(ProximalFixture, GradientMatchesFiniteDifferences) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(11);
  linalg::DenseVector x(d);
  for (auto& e : x) e = 0.3 * rng.NextGaussian();

  linalg::DenseVector grad(d);
  const double val = f_.ValueAndGradient(x, grad);
  EXPECT_NEAR(val, f_.Value(x), 1e-9);

  const double h = 1e-6;
  for (std::size_t i = 0; i < d; i += 3) {  // probe a subset of coordinates
    auto xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double fd = (f_.Value(xp) - f_.Value(xm)) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-4) << "coordinate " << i;
  }
}

TEST_F(ProximalFixture, HessianVecMatchesGradientDifferences) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(13);
  linalg::DenseVector x(d), dir(d);
  for (auto& e : x) e = 0.2 * rng.NextGaussian();
  for (auto& e : dir) e = rng.NextGaussian();

  f_.PrepareHessian(x);
  linalg::DenseVector hv(d);
  f_.HessianVec(dir, hv);

  const double h = 1e-6;
  linalg::DenseVector xp = x, xm = x, gp(d), gm(d);
  linalg::Axpy(h, dir, xp);
  linalg::Axpy(-h, dir, xm);
  f_.ValueAndGradient(xp, gp);
  f_.ValueAndGradient(xm, gm);
  for (std::size_t i = 0; i < d; i += 2) {
    const double fd = (gp[i] - gm[i]) / (2 * h);
    EXPECT_NEAR(hv[i], fd, 1e-4) << "coordinate " << i;
  }
}

TEST_F(ProximalFixture, HessianIsPositiveDefiniteWithRho) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  Rng rng(17);
  linalg::DenseVector x(d, 0.0), dir(d), hv(d);
  for (auto& e : dir) e = rng.NextGaussian();
  f_.PrepareHessian(x);
  f_.HessianVec(dir, hv);
  // d^T H d >= rho ||d||^2
  EXPECT_GE(linalg::Dot(dir, hv), 0.7 * linalg::Dot(dir, dir) - 1e-9);
}

TEST_F(ProximalFixture, FlopCountingAccumulates) {
  const auto d = static_cast<std::size_t>(ds_.num_features());
  linalg::DenseVector x(d, 0.1), grad(d);
  FlopCounter flops;
  f_.ValueAndGradient(x, grad, &flops);
  EXPECT_GT(flops.flops, 0.0);
  const double after_grad = flops.flops;
  f_.PrepareHessian(x, &flops);
  f_.HessianVec(grad, x, &flops);
  EXPECT_GT(flops.flops, after_grad);
}

TEST(Proximal, RequiresIterationTermsBeforeUse) {
  const auto ds = SmallDataset();
  ProximalLogistic f(&ds, 1.0);
  const linalg::DenseVector x(ds.num_features(), 0.0);
  EXPECT_THROW(f.Value(x), InvalidArgument);
}

// ----------------------------------------------------------------- tron ----

TEST(Tron, SolvesSubproblemToStationarity) {
  const auto ds = SmallDataset(7);
  const double rho = 1.0;
  ProximalLogistic f(&ds, rho);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.05), z(d, 0.0);
  f.SetIterationTerms(v, z);

  linalg::DenseVector x(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-6;
  const auto res = TronMinimize(f, x, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 0);

  linalg::DenseVector grad(d);
  f.ValueAndGradient(x, grad);
  EXPECT_LT(linalg::Norm2(grad), 1e-3);
}

TEST(Tron, WorkspaceOverloadIsBitwiseIdentical) {
  const auto ds = SmallDataset(7);
  ProximalLogistic f(&ds, 1.0);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.05), z(d, 0.0);
  f.SetIterationTerms(v, z);
  TronOptions opt;
  opt.gradient_tolerance = 1e-6;

  linalg::DenseVector x_plain(d, 0.0);
  const auto res_plain = TronMinimize(f, x_plain, opt);

  // A reused (dirty) workspace must not change anything.
  TronWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    linalg::DenseVector x(d, 0.0);
    const auto res = TronMinimize(f, x, opt, nullptr, ws);
    EXPECT_EQ(x, x_plain);
    EXPECT_EQ(res.iterations, res_plain.iterations);
    EXPECT_EQ(res.cg_iterations, res_plain.cg_iterations);
    EXPECT_EQ(res.objective, res_plain.objective);
    EXPECT_EQ(res.gradient_norm, res_plain.gradient_norm);
    EXPECT_EQ(res.converged, res_plain.converged);
  }
}

// Step counts on a fixed 203-feature shard, pinned to the values the solver
// produced before truncated CG learned to skip the dead p = r + beta p
// update on its last pass. Caps 1 and 2 end every CG call on the step cap,
// cap 10 mostly on the residual test; a skip that moved a step would show.
TEST(Tron, StepCountsArePinnedAcrossCgCaps) {
  data::SyntheticSpec spec;
  spec.num_features = 203;
  spec.num_train = 120;
  spec.num_test = 1;
  spec.mean_row_nnz = 10.0;
  spec.seed = 17;
  const auto ds = data::GenerateSynthetic(spec).train;
  linalg::DenseVector v(ds.num_features()), z(ds.num_features());
  Rng rng(9);
  for (auto& e : v) e = 0.1 * rng.NextGaussian();
  for (auto& e : z) e = 0.1 * rng.NextGaussian();

  struct Pin {
    double gradient_tolerance;
    int max_cg_iterations, iterations, cg_iterations;
  };
  const Pin pins[] = {{1e-2, 1, 10, 10}, {1e-2, 2, 3, 6}, {1e-2, 10, 2, 6},
                      {1e-6, 1, 36, 36}, {1e-6, 2, 9, 18}, {1e-6, 10, 5, 15}};
  for (const Pin& pin : pins) {
    ProximalLogistic f(&ds, 1.0);
    f.SetIterationTerms(v, z);
    TronOptions opt;
    opt.gradient_tolerance = pin.gradient_tolerance;
    opt.max_cg_iterations = pin.max_cg_iterations;
    linalg::DenseVector x(ds.num_features(), 0.0);
    const auto res = TronMinimize(f, x, opt);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, pin.iterations)
        << "tol " << pin.gradient_tolerance << " cap " << pin.max_cg_iterations;
    EXPECT_EQ(res.cg_iterations, pin.cg_iterations)
        << "tol " << pin.gradient_tolerance << " cap " << pin.max_cg_iterations;
  }
}

TEST(Tron, ObjectiveNeverIncreases) {
  const auto ds = SmallDataset(9);
  ProximalLogistic f(&ds, 0.5);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.0), z(d, 0.1);
  f.SetIterationTerms(v, z);

  linalg::DenseVector x(d, 0.0);
  const double before = f.Value(x);
  TronOptions opt;
  opt.max_iterations = 3;  // even a truncated run must not go uphill
  TronMinimize(f, x, opt);
  EXPECT_LE(f.Value(x), before + 1e-12);
}

TEST(Tron, AlreadyOptimalReturnsImmediately) {
  const auto ds = SmallDataset(21);
  ProximalLogistic f(&ds, 1.0);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.0), z(d, 0.0);
  f.SetIterationTerms(v, z);
  linalg::DenseVector x(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-8;
  const auto r1 = TronMinimize(f, x, opt);
  ASSERT_TRUE(r1.converged);
  // Warm start: the gradient is already below an absolute threshold, so the
  // solver must return without taking a step.
  opt.absolute_tolerance = 1e-5;
  const auto r2 = TronMinimize(f, x, opt);
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r2.iterations, 0);
}

TEST(Tron, MatchesIndependentGradientDescent) {
  // Cross-check the minimizer against a slow but simple reference method.
  const auto ds = SmallDataset(15, 40, 12);
  ProximalLogistic f(&ds, 2.0);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.02), z(d, -0.05);
  f.SetIterationTerms(v, z);

  linalg::DenseVector x_tron(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-8;
  opt.max_iterations = 100;
  TronMinimize(f, x_tron, opt);

  linalg::DenseVector x_gd(d, 0.0), grad(d);
  for (int it = 0; it < 20000; ++it) {
    f.ValueAndGradient(x_gd, grad);
    linalg::Axpy(-0.05, grad, x_gd);
  }
  EXPECT_LT(linalg::DistanceL2(x_tron, x_gd), 1e-3);
}

// ----------------------------------- gram Hessian (transpose reduction) ----

TEST(GramHessian, HessianVecMatchesMatrixFreePath) {
  const auto ds = SmallDataset(27);
  const auto d = static_cast<std::size_t>(ds.num_features());
  ProximalLogistic cg_f(&ds, 0.9), gram_f(&ds, 0.9);
  gram_f.SetUseGramHessian(true);
  EXPECT_TRUE(gram_f.use_gram_hessian());
  linalg::DenseVector v(d, 0.03), z(d, -0.02);
  cg_f.SetIterationTerms(v, z);
  gram_f.SetIterationTerms(v, z);

  Rng rng(51);
  linalg::DenseVector x(d), dir(d), hv_cg(d), hv_gram(d);
  for (auto& e : x) e = 0.2 * rng.NextGaussian();
  for (auto& e : dir) e = rng.NextGaussian();

  cg_f.PrepareHessian(x);
  gram_f.PrepareHessian(x);
  cg_f.HessianVec(dir, hv_cg);
  gram_f.HessianVec(dir, hv_gram);
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(hv_gram[i], hv_cg[i], 1e-10) << "coordinate " << i;
  }

  // The fused quadratic-form variant must agree with <d, Hd> too.
  const double dd = linalg::Dot(dir, dir);
  const double quad = gram_f.HessianVecQuad(dir, dd, hv_gram);
  EXPECT_NEAR(quad, linalg::Dot(dir, hv_cg), 1e-8);
}

TEST(GramHessian, TronSolutionsAgreeAcrossHessianPaths) {
  // Same subproblem minimized through the matrix-free and the Gram Hessian:
  // the minimizer is unique (rho-strongly convex), so both must land on it.
  const auto ds = SmallDataset(29, 80, 15);
  const auto d = static_cast<std::size_t>(ds.num_features());
  linalg::DenseVector v(d, 0.05), z(d, 0.0);
  TronOptions opt;
  opt.gradient_tolerance = 1e-8;
  opt.max_iterations = 100;

  ProximalLogistic cg_f(&ds, 1.2);
  cg_f.SetIterationTerms(v, z);
  linalg::DenseVector x_cg(d, 0.0);
  ASSERT_TRUE(TronMinimize(cg_f, x_cg, opt).converged);

  ProximalLogistic gram_f(&ds, 1.2);
  gram_f.SetUseGramHessian(true);
  gram_f.SetIterationTerms(v, z);
  linalg::DenseVector x_gram(d, 0.0);
  ASSERT_TRUE(TronMinimize(gram_f, x_gram, opt).converged);

  EXPECT_LT(linalg::DistanceL2(x_cg, x_gram), 1e-5);
}

TEST(GramHessian, FlopCountingCoversGramBuild) {
  const auto ds = SmallDataset(30);
  const auto d = static_cast<std::size_t>(ds.num_features());
  ProximalLogistic f(&ds, 1.0);
  f.SetUseGramHessian(true);
  linalg::DenseVector v(d, 0.0), z(d, 0.0);
  f.SetIterationTerms(v, z);
  linalg::DenseVector x(d, 0.1), hv(d);
  FlopCounter flops;
  f.PrepareHessian(x, &flops);
  EXPECT_GT(flops.flops, 0.0);
  const double after_prepare = flops.flops;
  f.HessianVec(x, hv, &flops);
  EXPECT_GT(flops.flops, after_prepare);
}

// ------------------------------------ cached-Gram direct least squares ----

namespace {

/// Tall random least-squares instance shared by the direct-solver tests.
struct LsInstance {
  linalg::CsrMatrix a;
  linalg::DenseVector b;
};

LsInstance MakeLs(std::uint64_t seed, std::size_t rows = 40,
                  std::size_t cols = 9) {
  Rng rng(seed);
  linalg::CsrMatrix::Builder builder(cols);
  linalg::DenseVector b(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<linalg::CsrMatrix::Index> idx;
    std::vector<double> val;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(0.5)) {
        idx.push_back(c);
        val.push_back(rng.NextGaussian());
      }
    }
    builder.AddRow(idx, val);
    b[r] = rng.NextGaussian();
  }
  return {builder.Build(), std::move(b)};
}

}  // namespace

TEST(CachedGramLeastSquares, SolvesTheNormalEquations) {
  const auto ls = MakeLs(61);
  const double rho = 0.8;
  CachedGramLeastSquares solver(&ls.a, ls.b, rho);
  EXPECT_EQ(solver.dim(), 9u);

  Rng rng(62);
  linalg::DenseVector v(9), z(9), x(9);
  for (auto& e : v) e = rng.NextGaussian();
  for (auto& e : z) e = rng.NextGaussian();
  solver.Solve(v, z, x);

  // Residual of (A^T A + rho I) x = A^T b - v + rho z, assembled
  // independently with the matrix-free kernels.
  linalg::DenseVector ax(40), lhs(9, 0.0), rhs(9, 0.0);
  ls.a.Multiply(x, ax);
  ls.a.TransposeMultiplyAdd(ax, lhs);
  linalg::Axpy(rho, x, lhs);
  ls.a.TransposeMultiplyAdd(ls.b, rhs);
  for (std::size_t i = 0; i < 9; ++i) rhs[i] += -v[i] + rho * z[i];
  EXPECT_LT(linalg::DistanceL2(lhs, rhs), 1e-9);

  // Empty v/z spans mean zero terms.
  linalg::DenseVector x0(9);
  solver.Solve({}, {}, x0);
  linalg::DenseVector ax0(40), lhs0(9, 0.0), atb(9, 0.0);
  ls.a.Multiply(x0, ax0);
  ls.a.TransposeMultiplyAdd(ax0, lhs0);
  linalg::Axpy(rho, x0, lhs0);
  ls.a.TransposeMultiplyAdd(ls.b, atb);
  EXPECT_LT(linalg::DistanceL2(lhs0, atb), 1e-9);
}

TEST(CachedGramLeastSquares, RhoChangeRefactorsWithoutRestreaming) {
  const auto ls = MakeLs(63);
  CachedGramLeastSquares solver(&ls.a, ls.b, 1.0);
  EXPECT_EQ(solver.gram_builds(), 1);
  EXPECT_EQ(solver.factor_count(), 0);  // factorization is lazy

  linalg::DenseVector x(9);
  solver.Solve({}, {}, x);
  solver.Solve({}, {}, x);
  solver.Solve({}, {}, x);
  EXPECT_EQ(solver.factor_count(), 1);  // repeated solves reuse the factor

  solver.SetRho(1.0);  // no-op change must not refactor
  solver.Solve({}, {}, x);
  EXPECT_EQ(solver.factor_count(), 1);

  solver.SetRho(2.5);
  EXPECT_EQ(solver.factor_count(), 1);  // stale, not yet refactored
  solver.Solve({}, {}, x);
  EXPECT_EQ(solver.factor_count(), 2);  // exactly one extra factorization
  EXPECT_EQ(solver.gram_builds(), 1);   // A was never re-streamed

  // The refreshed factor solves the rho = 2.5 normal equations.
  linalg::DenseVector ax(40), lhs(9, 0.0), atb(9, 0.0);
  ls.a.Multiply(x, ax);
  ls.a.TransposeMultiplyAdd(ax, lhs);
  linalg::Axpy(2.5, x, lhs);
  ls.a.TransposeMultiplyAdd(ls.b, atb);
  EXPECT_LT(linalg::DistanceL2(lhs, atb), 1e-9);
}

TEST(CachedGramLeastSquares, ValidatesArguments) {
  const auto ls = MakeLs(64);
  EXPECT_THROW(CachedGramLeastSquares(&ls.a, ls.b, 0.0), InvalidArgument);
  CachedGramLeastSquares solver(&ls.a, ls.b, 1.0);
  EXPECT_THROW(solver.SetRho(-1.0), InvalidArgument);
  linalg::DenseVector wrong(3);
  EXPECT_THROW(solver.Solve(wrong, {}, wrong), InvalidArgument);
}

// ----------------------------------------------------------------- prox ----

TEST(Prox, ZUpdateL1IsSoftThreshold) {
  ZUpdateConfig cfg;
  cfg.lambda = 2.0;
  cfg.rho = 1.0;
  cfg.num_workers = 4;
  // scale = 4, kappa = 0.5
  const linalg::DenseVector W{8.0, -8.0, 1.0, 0.0};
  linalg::DenseVector z(4);
  ZUpdate(cfg, W, z);
  EXPECT_DOUBLE_EQ(z[0], 1.5);
  EXPECT_DOUBLE_EQ(z[1], -1.5);
  EXPECT_DOUBLE_EQ(z[2], 0.0);
  EXPECT_DOUBLE_EQ(z[3], 0.0);
}

TEST(Prox, ZUpdateSolvesStationarityCondition) {
  // z must satisfy 0 in lambda*sign(z) + rho*N*z - W componentwise.
  ZUpdateConfig cfg;
  cfg.lambda = 1.0;
  cfg.rho = 0.5;
  cfg.num_workers = 3;
  const linalg::DenseVector W{5.0, -0.4, 2.0};
  linalg::DenseVector z(3);
  ZUpdate(cfg, W, z);
  const double scale = cfg.rho * 3;
  for (std::size_t i = 0; i < 3; ++i) {
    if (z[i] != 0.0) {
      const double subgrad = cfg.lambda * (z[i] > 0 ? 1 : -1) +
                             scale * z[i] - W[i];
      EXPECT_NEAR(subgrad, 0.0, 1e-12);
    } else {
      EXPECT_LE(std::fabs(W[i]), cfg.lambda + 1e-12);
    }
  }
}

TEST(Prox, ZUpdateNoneAndL2) {
  ZUpdateConfig cfg;
  cfg.regularizer = Regularizer::kNone;
  cfg.rho = 2.0;
  cfg.num_workers = 1;
  const linalg::DenseVector W{4.0};
  linalg::DenseVector z(1);
  ZUpdate(cfg, W, z);
  EXPECT_DOUBLE_EQ(z[0], 2.0);

  cfg.regularizer = Regularizer::kL2;
  cfg.lambda = 1.0;
  ZUpdate(cfg, W, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);  // W / (rho*N + 2*lambda) = 4/4
}

TEST(Prox, YUpdateAndWLocal) {
  const linalg::DenseVector x{1.0, 2.0}, z{0.5, 0.5};
  linalg::DenseVector y{0.0, 1.0};
  YUpdate(2.0, x, z, y);
  EXPECT_EQ(y, (linalg::DenseVector{1.0, 4.0}));
  linalg::DenseVector w(2);
  WLocal(2.0, x, y, w);
  EXPECT_EQ(w, (linalg::DenseVector{3.0, 8.0}));
}

TEST(Prox, ValidationErrors) {
  ZUpdateConfig cfg;
  cfg.rho = 0.0;
  const linalg::DenseVector W{1.0};
  linalg::DenseVector z(1);
  EXPECT_THROW(ZUpdate(cfg, W, z), InvalidArgument);
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, RelativeErrorDefinition) {
  EXPECT_DOUBLE_EQ(RelativeError(12.0, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(RelativeError(10.0, 10.0), 0.0);
  EXPECT_THROW(RelativeError(1.0, 0.0), InvalidArgument);
}

TEST(Metrics, AccuracyOnSeparableData) {
  data::SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 10;
  spec.num_test = 200;
  spec.label_noise = 0.0;
  spec.seed = 31;
  const auto gen = data::GenerateSynthetic(spec);
  // The planted separator classifies its own data perfectly.
  EXPECT_DOUBLE_EQ(Accuracy(gen.test, gen.true_weights), 1.0);
  // The negated separator gets everything wrong.
  auto neg = gen.true_weights;
  linalg::Scale(-1.0, neg);
  EXPECT_LT(Accuracy(gen.test, neg), 0.1);
}

TEST(Metrics, GlobalObjectiveIncludesRegularizer) {
  const auto ds = SmallDataset();
  linalg::DenseVector z(ds.num_features(), 0.0);
  const double base = GlobalObjective(ds, z, 5.0);
  z[0] = 1.0;
  const double with_l1 = GlobalObjective(ds, z, 5.0);
  EXPECT_GT(with_l1, 0.0);
  EXPECT_NEAR(with_l1 - (LogisticValue(ds, z)), 5.0, 1e-9);
  EXPECT_GT(base, 0.0);
}

}  // namespace
}  // namespace psra::solver
