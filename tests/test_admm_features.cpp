// Tests for the extension features: consensus residuals, adaptive penalty,
// residual-based stopping, trace CSV export, and the extra collectives used
// through the ADMM layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <string>

#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "linalg/dense_ops.hpp"
#include "support/status.hpp"

namespace psra::admm {
namespace {

data::SyntheticSpec TinySpec(std::uint64_t seed = 42) {
  data::SyntheticSpec spec;
  spec.name = "tiny";
  spec.num_features = 80;
  spec.num_train = 160;
  spec.num_test = 60;
  spec.mean_row_nnz = 8.0;
  spec.label_noise = 0.02;
  spec.seed = seed;
  return spec;
}

ClusterConfig TinyCluster(std::uint32_t nodes, std::uint32_t wpn) {
  ClusterConfig c;
  c.num_nodes = nodes;
  c.workers_per_node = wpn;
  return c;
}

// -------------------------------------------------------------- residuals ----

TEST(Residuals, RecordedAndDecreasing) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  RunOptions opt;
  opt.max_iterations = 40;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);

  ASSERT_EQ(res.trace.size(), 40u);
  for (const auto& rec : res.trace) {
    EXPECT_GE(rec.primal_residual, 0.0);
    EXPECT_GE(rec.dual_residual, 0.0);
    EXPECT_DOUBLE_EQ(rec.rho, p.rho);  // adaptive rho off: constant
  }
  // The primal residual must shrink substantially as consensus forms.
  EXPECT_LT(res.trace.back().primal_residual,
            0.2 * res.trace.front().primal_residual);
}

TEST(Residuals, WorkerSetComputesConsistentNorms) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  // All state is zero: every norm must be zero.
  linalg::DenseVector z_prev(p.dim(), 0.0);
  const auto res = ws.ComputeResiduals(z_prev);
  EXPECT_DOUBLE_EQ(res.primal, 0.0);
  EXPECT_DOUBLE_EQ(res.dual, 0.0);
  EXPECT_DOUBLE_EQ(res.x_norm, 0.0);

  // Perturb one worker's x: primal residual equals that perturbation norm.
  ws.x(0)[3] = 2.0;
  const auto res2 = ws.ComputeResiduals(z_prev);
  EXPECT_DOUBLE_EQ(res2.primal, 2.0);
  EXPECT_DOUBLE_EQ(res2.x_norm, 2.0);
}

// ----------------------------------------------------------- adaptive rho ----

TEST(AdaptiveRho, BalancesResiduals) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  AdaptiveRhoConfig cfg;
  cfg.enabled = true;
  cfg.mu = 10.0;
  cfg.tau = 2.0;

  WorkerSet::Residuals res;
  res.primal = 100.0;
  res.dual = 1.0;  // primal dominates -> rho must grow
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), p.rho * 2.0);

  res.primal = 1.0;
  res.dual = 1000.0;  // dual dominates -> rho must shrink
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), p.rho);  // back to initial

  res.primal = 1.0;
  res.dual = 2.0;  // balanced: no change
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), p.rho);
}

TEST(AdaptiveRho, RespectsClamps) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  AdaptiveRhoConfig cfg;
  cfg.enabled = true;
  cfg.rho_max = 1.5;
  WorkerSet::Residuals res;
  res.primal = 100.0;
  res.dual = 0.001;
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), 1.5);
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho(cfg, res), 1.5);  // stays clamped
}

TEST(AdaptiveRho, DisabledIsIdentity) {
  const auto p = BuildProblem(TinySpec(), 2);
  RunOptions opt;
  WorkerSet ws(&p, &opt);
  WorkerSet::Residuals res;
  res.primal = 100.0;
  res.dual = 0.001;
  EXPECT_DOUBLE_EQ(ws.MaybeAdaptRho({}, res), p.rho);
}

TEST(AdaptiveRho, EndToEndRunConvergesAndTracksRho) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  RunOptions opt;
  opt.max_iterations = 30;
  opt.adaptive_rho.enabled = true;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
  // rho must have been recorded each iteration and stay in clamps.
  for (const auto& rec : res.trace) {
    EXPECT_GE(rec.rho, opt.adaptive_rho.rho_min);
    EXPECT_LE(rec.rho, opt.adaptive_rho.rho_max);
  }
}

// --------------------------------------------------------------- stopping ----

TEST(Stopping, CriterionMathIsBoydStyle) {
  StoppingConfig cfg;
  cfg.enabled = true;
  cfg.eps_abs = 0.1;
  cfg.eps_rel = 0.0;
  WorkerSet::Residuals res;
  res.primal = 0.5;
  res.dual = 0.5;
  // scale = sqrt(4 * 1) = 2 -> thresholds 0.2: not converged at 0.5.
  EXPECT_FALSE(WorkerSet::ShouldStop(cfg, res, 4, 1));
  res.primal = 0.1;
  res.dual = 0.1;
  EXPECT_TRUE(WorkerSet::ShouldStop(cfg, res, 4, 1));
  cfg.enabled = false;
  EXPECT_FALSE(WorkerSet::ShouldStop(cfg, res, 4, 1));
}

TEST(Stopping, EndsRunEarlyOnLooseTolerances) {
  const auto cluster = TinyCluster(2, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 200;
  opt.stopping.enabled = true;
  opt.stopping.eps_abs = 1e-2;
  opt.stopping.eps_rel = 1e-1;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_LT(res.iterations_run, 200u);
  EXPECT_GT(res.iterations_run, 1u);
}

TEST(Stopping, TightTolerancesRunToMaxIterations) {
  const auto cluster = TinyCluster(2, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 5;
  opt.stopping.enabled = true;
  opt.stopping.eps_abs = 1e-14;
  opt.stopping.eps_rel = 1e-14;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_FALSE(res.stopped_early);
  EXPECT_EQ(res.iterations_run, 5u);
}

// -------------------------------------------------------------- trace csv ----

TEST(TraceCsv, WritesHeaderAndRows) {
  const auto cluster = TinyCluster(2, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 3;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);

  std::ostringstream os;
  res.WriteTraceCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("algorithm,iteration,objective"), std::string::npos);
  // header + 3 records
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("PSRA-HGADMM(psr)"), std::string::npos);
}

// --------------------------------------------------------- mixed precision ----

TEST(MixedPrecision, CheaperCommSlightlyDifferentModel) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 12;

  PsraConfig fp64;
  fp64.cluster = cluster;
  fp64.grouping = GroupingMode::kHierarchical;
  PsraConfig fp32 = fp64;
  fp32.mixed_precision = true;

  const auto a = PsraHgAdmm(fp64).Run(p, opt);
  const auto b = PsraHgAdmm(fp32).Run(p, opt);

  // Same element counts, cheaper wire time (4-byte values inter-node).
  EXPECT_LT(b.total_comm_time, a.total_comm_time);
  // fp32 rounding perturbs the trajectory only slightly: both converge to
  // nearly the same objective.
  EXPECT_NEAR(a.final_objective, b.final_objective,
              1e-3 * a.final_objective);
  EXPECT_GT(b.final_accuracy, 0.55);
}

TEST(MixedPrecision, RoundToFloatQuantizes) {
  linalg::DenseVector v{1.0, 0.1, -3.337779921e100, 0.0};
  linalg::RoundToFloat(v);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], static_cast<double>(0.1f));
  EXPECT_TRUE(std::isinf(v[2]));  // overflow saturates like fp32
  EXPECT_DOUBLE_EQ(v[3], 0.0);
}

// ---------------------------------------------------------------- censoring ----

TEST(Censoring, SuppressesSendsAndStaysAccurate) {
  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 40;

  PsraConfig plain;
  plain.cluster = cluster;
  plain.grouping = GroupingMode::kFlat;
  PsraConfig censored = plain;
  censored.censor_threshold = 0.5;
  censored.censor_decay = 0.95;

  const auto a = PsraHgAdmm(plain).Run(p, opt);
  const auto b = PsraHgAdmm(censored).Run(p, opt);

  EXPECT_EQ(a.censored_sends, 0u);
  EXPECT_GT(b.censored_sends, 0u);
  // Fewer elements hit the wire...
  EXPECT_LT(b.elements_sent, a.elements_sent);
  // ...and the model stays close to the uncensored run's quality.
  EXPECT_NEAR(a.final_objective, b.final_objective,
              0.05 * a.final_objective);
}

TEST(Censoring, HugeThresholdFreezesCommunication) {
  const auto cluster = TinyCluster(2, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 10;
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kFlat;
  cfg.censor_threshold = 1e12;  // everything censored
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_EQ(res.censored_sends, 10u * cluster.world_size());
  EXPECT_EQ(res.elements_sent, 0u);  // no payload ever moved
}

TEST(Censoring, WorksInHierarchicalMode) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 40;
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kHierarchical;
  cfg.censor_threshold = 2.0;
  cfg.censor_decay = 1.0;  // constant threshold: late small deltas censored
  const auto res = PsraHgAdmm(cfg).Run(p, opt);
  EXPECT_GT(res.censored_sends, 0u);
  EXPECT_LT(res.trace.back().objective, res.trace.front().objective);
}

TEST(Censoring, RejectedWithDynamicGrouping) {
  const auto cluster = TinyCluster(4, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 1;
  PsraConfig cfg;
  cfg.cluster = cluster;
  cfg.grouping = GroupingMode::kDynamicGroups;
  cfg.censor_threshold = 0.5;
  EXPECT_THROW(PsraHgAdmm(cfg).Run(p, opt), InvalidArgument);
}

TEST(Censoring, ZeroThresholdIsExactlyPlainRun) {
  const auto cluster = TinyCluster(3, 1);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 8;
  PsraConfig plain;
  plain.cluster = cluster;
  plain.grouping = GroupingMode::kFlat;
  PsraConfig off = plain;
  off.censor_threshold = 0.0;
  const auto a = PsraHgAdmm(plain).Run(p, opt);
  const auto b = PsraHgAdmm(off).Run(p, opt);
  EXPECT_DOUBLE_EQ(a.final_objective, b.final_objective);
  EXPECT_EQ(a.elements_sent, b.elements_sent);
}

// ------------------------------------------- payload preparation pins ----

// FNV-1a over the bit patterns of v: a final-z digest for integer pins.
std::uint64_t BitDigest(std::span<const double> v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double e : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e, sizeof bits);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// Mixed precision and censoring rewrite each collective input before it is
// sent: censor, then round to fp32, then pack for sparse comm (flat runs
// round first, then censor). These integers and final-z digests were taken
// from the build before that preparation moved into the pooled node phase;
// serial and pooled runs must both keep them. The sparse cases' elements_sent
// was re-pinned when messages began to travel in the cheaper encoding (a
// dense message counts its values); nothing else moved.
TEST(PayloadPins, MixedPrecisionAndCensoringKeepTheirIntegers) {
  const auto cluster = TinyCluster(4, 2);
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  const struct {
    const char* name;
    GroupingMode grouping;
    bool sparse;
    bool mixed;
    double censor;
    std::size_t censored_sends;
    std::size_t elements_sent;
    std::size_t messages_sent;
    std::uint64_t z_digest;
  } cases[] = {
      {"flat dense mixed", GroupingMode::kFlat, false, true, 0.0, 0, 22400,
       2240, 9186608966504584009ULL},
      {"flat sparse mixed", GroupingMode::kFlat, true, true, 0.0, 0, 18991,
       2240, 9186608966504584009ULL},
      {"hierarchical dense mixed", GroupingMode::kHierarchical, false, true,
       0.0, 0, 22400, 640, 17180535742278333140ULL},
      {"hierarchical sparse mixed", GroupingMode::kHierarchical, true, true,
       0.0, 0, 21720, 640, 17180535742278333140ULL},
      {"flat dense censor", GroupingMode::kFlat, false, false, 1.5, 144,
       22400, 2240, 13752276651575658398ULL},
      {"flat sparse censor", GroupingMode::kFlat, true, false, 1.5, 144, 3513,
       392, 13752276651575658398ULL},
      {"hierarchical dense censor", GroupingMode::kHierarchical, false, false,
       1.5, 61, 22400, 640, 1107250467745326660ULL},
      {"hierarchical sparse censor", GroupingMode::kHierarchical, true, false,
       1.5, 61, 12975, 337, 1107250467745326660ULL},
      {"flat sparse mixed+censor", GroupingMode::kFlat, true, true, 1.5, 144,
       3583, 392, 11568805907289542224ULL},
      {"hierarchical sparse mixed+censor", GroupingMode::kHierarchical, true,
       true, 1.5, 61, 12975, 337, 11807801609031478383ULL},
  };
  engine::ThreadPool pool(2);
  pool.ForceParallelDispatchForTesting();
  for (const auto& c : cases) {
    for (engine::ThreadPool* const host :
         {static_cast<engine::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::string(c.name) + (host != nullptr ? " pooled" : ""));
      PsraConfig cfg;
      cfg.cluster = cluster;
      cfg.grouping = c.grouping;
      cfg.sparse_comm = c.sparse;
      cfg.mixed_precision = c.mixed;
      cfg.censor_threshold = c.censor;
      cfg.censor_decay = 1.0;
      RunOptions opt;
      opt.max_iterations = 20;
      opt.eval_every = 20;
      opt.pool = host;
      const RunResult r = PsraHgAdmm(cfg).Run(p, opt);
      EXPECT_EQ(r.censored_sends, c.censored_sends);
      EXPECT_EQ(r.elements_sent, c.elements_sent);
      EXPECT_EQ(r.messages_sent, c.messages_sent);
      EXPECT_EQ(r.iterations_run, 20u);
      EXPECT_EQ(BitDigest(r.final_z), c.z_digest);
    }
  }
}

// --------------------------------------- non-PSR collectives in ADMM ----

class ExtraCollectiveInAdmm
    : public ::testing::TestWithParam<comm::AllreduceKind> {};

TEST_P(ExtraCollectiveInAdmm, ProducesSameModelAsPsr) {
  // In full-barrier mode the collective choice must not change the math.
  const auto cluster = TinyCluster(5, 1);  // odd: uneven blocks
  const auto p = BuildProblem(TinySpec(), cluster.world_size());
  RunOptions opt;
  opt.max_iterations = 8;

  PsraConfig base;
  base.cluster = cluster;
  base.grouping = GroupingMode::kHierarchical;
  base.allreduce = comm::AllreduceKind::kPsr;
  const auto ref = PsraHgAdmm(base).Run(p, opt);

  PsraConfig other = base;
  other.allreduce = GetParam();
  const auto alt = PsraHgAdmm(other).Run(p, opt);
  EXPECT_LT(linalg::DistanceL2(ref.final_z, alt.final_z), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ExtraCollectiveInAdmm,
                         ::testing::Values(comm::AllreduceKind::kNaive,
                                           comm::AllreduceKind::kRing));

}  // namespace
}  // namespace psra::admm
