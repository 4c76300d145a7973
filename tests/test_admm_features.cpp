// Tests for the extension features: consensus residuals, adaptive penalty,
// residual-based stopping, trace CSV export, and the extra collectives used
// through the ADMM layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <sstream>
#include <string>

#include "admm/ad_admm.hpp"
#include "admm/admmlib.hpp"
#include "admm/checkpoint.hpp"
#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "engine/thread_pool.hpp"
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

// ------------------------------------------------- worker state pins ----

// Every worker's state, pinned as digests taken from the build in which each
// worker still kept x, y, w and z at full width. `mid` and `end` chain every
// worker's x, y and z from the checkpoint after iteration 7 and after the
// last iteration, followed by every worker's w after one XWStepAll from a
// WorkerSet warm-started on that checkpoint. `final_z` digests the model,
// `residuals` the (primal, dual) series of the trace.
struct StatePin {
  std::uint64_t mid = 0;
  std::uint64_t end = 0;
  std::uint64_t final_z = 0;
  std::uint64_t iterations = 0;
  std::uint64_t residuals = 0;
};

// A wide, sparse problem: each of the 9 shards leaves most of its 301
// columns untouched, so the closed-form columns dominate the state, and the
// width is not a multiple of 4, so every four-lane sum has a tail.
const ConsensusProblem& WideProblem() {
  static const ConsensusProblem p = [] {
    data::SyntheticSpec spec = TinySpec(7);
    spec.num_features = 301;
    spec.num_train = 240;
    spec.num_test = 60;
    spec.mean_row_nnz = 6.0;
    return BuildProblem(spec, 9);
  }();
  return p;
}

// Three workers per node: with two, a node sum in either member order gives
// the same bits.
ClusterConfig PinCluster() { return TinyCluster(3, 3); }

std::uint64_t Chain(std::uint64_t h, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    h ^= (v >> (8 * k)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t StateDigest(const ConsensusProblem& p, const RunOptions& base,
                          const RunCheckpoint& ckpt) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const WorkerCheckpoint& w : ckpt.workers) {
    h = Chain(h, BitDigest(w.x));
    h = Chain(h, BitDigest(w.y));
    h = Chain(h, BitDigest(w.z));
  }
  RunOptions opt = base;
  opt.warm_start = &ckpt;
  WorkerSet ws(&p, &opt);
  ApplyWarmStart(ws, opt);
  std::vector<double> flops(ws.size());
  ws.XWStepAll(flops);
  const WorkerSet& cws = ws;
  for (std::size_t i = 0; i < cws.size(); ++i) {
    h = Chain(h, BitDigest(cws.w(i)));
  }
  return h;
}

using EngineRun = std::function<RunResult(const RunOptions&)>;

/// Runs `run` with a checkpoint after iteration 7 and again with one after
/// its last iteration (`warm`, when set, resumes both from a checkpoint).
StatePin PinOf(const ConsensusProblem& p, const EngineRun& run,
               RunOptions opt, bool with_state) {
  StatePin pin;
  RunCheckpoint mid, end;
  if (with_state) {
    opt.checkpoint_out = &mid;
    opt.checkpoint_at = 7;
  }
  const RunResult r = run(opt);
  pin.final_z = BitDigest(r.final_z);
  pin.iterations = r.iterations_run;
  std::vector<double> series;
  for (const auto& rec : r.trace) {
    series.push_back(rec.primal_residual);
    series.push_back(rec.dual_residual);
    series.push_back(rec.objective);
  }
  pin.residuals = BitDigest(series);
  if (!with_state) return pin;
  pin.mid = StateDigest(p, opt, mid);
  opt.checkpoint_out = &end;
  opt.checkpoint_at = r.iterations_run;
  (void)run(opt);
  pin.end = StateDigest(p, opt, end);
  return pin;
}

enum class Scenario {
  kNoFaults,
  kDropDelay,
  kCrashDeath,
  kMixedCensor,
  kStopAdaptive,
  kWarmStart,
};

simnet::FaultConfig PinDropDelay() {
  simnet::FaultConfig f;
  f.message_drop_probability = 0.1;
  f.max_retries = 12;
  f.message_delay_probability = 0.2;
  f.message_delay_s = 1e-4;
  return f;
}

simnet::FaultConfig PinCrashDeath() {
  simnet::FaultConfig f;
  f.crashes.push_back({/*rank=*/3, /*at_iteration=*/5, /*down_iterations=*/4});
  f.crashes.push_back({/*rank=*/6, /*at_iteration=*/9, /*down_iterations=*/0});
  f.leader_deaths.push_back({/*node=*/1, /*at_iteration=*/6,
                             /*down_iterations=*/3});
  f.message_drop_probability = 0.1;
  f.max_retries = 2;
  f.checkpoint_every = 4;
  return f;
}

struct PsraPinCase {
  GroupingMode grouping;
  bool sparse;
  Scenario scenario;
  StatePin pin;
};

std::string ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kNoFaults: return "no faults";
    case Scenario::kDropDelay: return "drop/delay";
    case Scenario::kCrashDeath: return "crash+death";
    case Scenario::kMixedCensor: return "mixed+censor";
    case Scenario::kStopAdaptive: return "stop+adaptive";
    case Scenario::kWarmStart: return "warm start";
  }
  return "?";
}

void ExpectPin(const StatePin& got, const StatePin& want) {
  EXPECT_EQ(got.mid, want.mid);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.final_z, want.final_z);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.residuals, want.residuals);
}

StatePin RunPsraPin(const PsraPinCase& c, engine::ThreadPool* pool) {
  const ConsensusProblem& p = WideProblem();
  PsraConfig cfg;
  cfg.cluster = PinCluster();
  cfg.grouping = c.grouping;
  cfg.sparse_comm = c.sparse;
  RunOptions opt;
  opt.max_iterations = 20;
  opt.eval_every = 1;
  opt.pool = pool;
  switch (c.scenario) {
    case Scenario::kNoFaults:
    case Scenario::kWarmStart:
      break;
    case Scenario::kDropDelay:
      cfg.cluster.fault = PinDropDelay();
      break;
    case Scenario::kCrashDeath:
      cfg.cluster.fault = PinCrashDeath();
      break;
    case Scenario::kMixedCensor:
      cfg.mixed_precision = true;
      cfg.censor_threshold = 1.5;
      cfg.censor_decay = 1.0;
      break;
    case Scenario::kStopAdaptive:
      opt.max_iterations = 60;
      opt.stopping.enabled = true;
      opt.stopping.eps_abs = 1e-3;
      opt.stopping.eps_rel = 2e-2;
      opt.adaptive_rho.enabled = true;
      opt.adaptive_rho.mu = 2.0;
      break;
  }
  const PsraHgAdmm engine(cfg);
  RunCheckpoint at4;
  if (c.scenario == Scenario::kWarmStart) {
    RunOptions first = opt;
    first.max_iterations = 4;
    first.checkpoint_out = &at4;
    first.checkpoint_at = 4;
    (void)engine.Run(p, first);
    opt.warm_start = &at4;
  }
  return PinOf(p, [&](const RunOptions& o) { return engine.Run(p, o); }, opt,
               /*with_state=*/true);
}

// Every PSRA grouping, dense and sparse, under each scenario; ADMMLib and
// AD-ADMM below. Serial and pooled runs must both give the pinned digests.
TEST(WorkerStatePins, PsraRunsKeepEveryWorkersState) {
  using G = GroupingMode;
  using S = Scenario;
  const PsraPinCase cases[] = {
      {G::kFlat, false, S::kNoFaults,
       {18429359326503888011ULL, 13408059294388467482ULL,
        14198213269813692993ULL, 20, 4026001802209094127ULL}},
      {G::kFlat, false, S::kDropDelay,
       {18429359326503888011ULL, 13408059294388467482ULL,
        14198213269813692993ULL, 20, 4026001802209094127ULL}},
      {G::kFlat, false, S::kCrashDeath,
       {693448824220744082ULL, 14468325813531521758ULL,
        11261943956499543078ULL, 20, 1521000882761299062ULL}},
      {G::kFlat, false, S::kMixedCensor,
       {8250691866688518596ULL, 12928471541515181910ULL,
        16597200589847125508ULL, 20, 6657107514341051745ULL}},
      {G::kFlat, false, S::kStopAdaptive,
       {10617655464868003924ULL, 12022885940654165418ULL,
        12437536477533461922ULL, 17, 3388102365108683511ULL}},
      {G::kFlat, false, S::kWarmStart,
       {18429359326503888011ULL, 13408059294388467482ULL,
        14198213269813692993ULL, 20, 8772822158954016672ULL}},
      {G::kFlat, true, S::kNoFaults,
       {18429359326503888011ULL, 13408059294388467482ULL,
        14198213269813692993ULL, 20, 4026001802209094127ULL}},
      {G::kFlat, true, S::kDropDelay,
       {18429359326503888011ULL, 13408059294388467482ULL,
        14198213269813692993ULL, 20, 4026001802209094127ULL}},
      {G::kFlat, true, S::kCrashDeath,
       {693448824220744082ULL, 14468325813531521758ULL,
        11261943956499543078ULL, 20, 1521000882761299062ULL}},
      {G::kFlat, true, S::kMixedCensor,
       {8250691866688518596ULL, 12928471541515181910ULL,
        16597200589847125508ULL, 20, 6657107514341051745ULL}},
      {G::kFlat, true, S::kStopAdaptive,
       {10617655464868003924ULL, 12022885940654165418ULL,
        12437536477533461922ULL, 17, 3388102365108683511ULL}},
      {G::kFlat, true, S::kWarmStart,
       {18429359326503888011ULL, 13408059294388467482ULL,
        14198213269813692993ULL, 20, 8772822158954016672ULL}},
      {G::kHierarchical, false, S::kNoFaults,
       {5196921551353459824ULL, 10615084302065244668ULL,
        14705257360394134110ULL, 20, 12744377656532640646ULL}},
      {G::kHierarchical, false, S::kDropDelay,
       {5196921551353459824ULL, 10615084302065244668ULL,
        14705257360394134110ULL, 20, 12744377656532640646ULL}},
      {G::kHierarchical, false, S::kCrashDeath,
       {14290884468280866339ULL, 13873364273223912432ULL,
        14087254904945478168ULL, 20, 17116969406270386670ULL}},
      {G::kHierarchical, false, S::kMixedCensor,
       {6002310017634709616ULL, 12556086556427538882ULL,
        755190500820741908ULL, 20, 5681699238460481292ULL}},
      {G::kHierarchical, false, S::kStopAdaptive,
       {14817312307656587151ULL, 4695023271521814147ULL,
        3343283452233739245ULL, 17, 18398814691527585092ULL}},
      {G::kHierarchical, false, S::kWarmStart,
       {5196921551353459824ULL, 10615084302065244668ULL,
        14705257360394134110ULL, 20, 465224495664787126ULL}},
      {G::kHierarchical, true, S::kNoFaults,
       {5196921551353459824ULL, 10615084302065244668ULL,
        14705257360394134110ULL, 20, 12744377656532640646ULL}},
      {G::kHierarchical, true, S::kDropDelay,
       {5196921551353459824ULL, 10615084302065244668ULL,
        14705257360394134110ULL, 20, 12744377656532640646ULL}},
      {G::kHierarchical, true, S::kCrashDeath,
       {14290884468280866339ULL, 13873364273223912432ULL,
        14087254904945478168ULL, 20, 17116969406270386670ULL}},
      {G::kHierarchical, true, S::kMixedCensor,
       {6002310017634709616ULL, 12556086556427538882ULL,
        755190500820741908ULL, 20, 5681699238460481292ULL}},
      {G::kHierarchical, true, S::kStopAdaptive,
       {14817312307656587151ULL, 4695023271521814147ULL,
        3343283452233739245ULL, 17, 18398814691527585092ULL}},
      {G::kHierarchical, true, S::kWarmStart,
       {5196921551353459824ULL, 10615084302065244668ULL,
        14705257360394134110ULL, 20, 465224495664787126ULL}},
      {G::kDynamicGroups, false, S::kNoFaults,
       {17258013108240747ULL, 7592858226813183021ULL,
        12097659041111708563ULL, 20, 7726599100563027545ULL}},
      {G::kDynamicGroups, false, S::kDropDelay,
       {17258013108240747ULL, 7592858226813183021ULL,
        12097659041111708563ULL, 20, 7726599100563027545ULL}},
      {G::kDynamicGroups, false, S::kCrashDeath,
       {5098133468502439417ULL, 3097616375696561455ULL,
        4893360682642841900ULL, 20, 8289286667789601349ULL}},
      {G::kDynamicGroups, false, S::kStopAdaptive,
       {12428942055339910916ULL, 11555968509262102925ULL,
        11378749620280209583ULL, 9, 8041453887927359090ULL}},
      {G::kDynamicGroups, false, S::kWarmStart,
       {17258013108240747ULL, 7592858226813183021ULL,
        12097659041111708563ULL, 20, 5053470038542329698ULL}},
      {G::kDynamicGroups, true, S::kNoFaults,
       {17258013108240747ULL, 7592858226813183021ULL,
        12097659041111708563ULL, 20, 7726599100563027545ULL}},
      {G::kDynamicGroups, true, S::kDropDelay,
       {17258013108240747ULL, 7592858226813183021ULL,
        12097659041111708563ULL, 20, 7726599100563027545ULL}},
      {G::kDynamicGroups, true, S::kCrashDeath,
       {5098133468502439417ULL, 3097616375696561455ULL,
        4893360682642841900ULL, 20, 8289286667789601349ULL}},
      {G::kDynamicGroups, true, S::kStopAdaptive,
       {12428942055339910916ULL, 11555968509262102925ULL,
        11378749620280209583ULL, 9, 8041453887927359090ULL}},
      {G::kDynamicGroups, true, S::kWarmStart,
       {17258013108240747ULL, 7592858226813183021ULL,
        12097659041111708563ULL, 20, 5053470038542329698ULL}},
  };
  engine::ThreadPool pool(3);
  pool.ForceParallelDispatchForTesting();
  for (const PsraPinCase& c : cases) {
    const std::string name = GroupingModeName(c.grouping) +
                             (c.sparse ? " sparse " : " dense ") +
                             ScenarioName(c.scenario);
    for (engine::ThreadPool* const host :
         {static_cast<engine::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(name + (host != nullptr ? " pooled" : " serial"));
      ExpectPin(RunPsraPin(c, host), c.pin);
    }
  }
}

TEST(WorkerStatePins, AdmmLibAndAdAdmmKeepEveryWorkersState) {
  const ConsensusProblem& p = WideProblem();
  const struct {
    const char* name;
    bool admmlib;
    bool sparse;
    StatePin pin;
  } cases[] = {
      {"admmlib dense", true, false,
       {223978507221457413ULL, 15317674880853075072ULL,
        12237515225553616059ULL, 20, 889456084129507743ULL}},
      {"admmlib sparse", true, true,
       {223978507221457413ULL, 15317674880853075072ULL,
        12237515225553616059ULL, 20, 889456084129507743ULL}},
      {"ad-admm classic", false, false,
       {0ULL, 0ULL,
        12534018647755320827ULL, 20, 11857668071717595629ULL}},
      {"ad-admm sparse", false, true,
       {0ULL, 0ULL,
        12534018647755320827ULL, 20, 11857668071717595629ULL}},
  };
  engine::ThreadPool pool(3);
  pool.ForceParallelDispatchForTesting();
  for (const auto& c : cases) {
    for (engine::ThreadPool* const host :
         {static_cast<engine::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::string(c.name) + (host != nullptr ? " pooled" : ""));
      RunOptions opt;
      opt.max_iterations = 20;
      opt.eval_every = 1;
      opt.pool = host;
      StatePin got;
      if (c.admmlib) {
        AdmmLibConfig cfg;
        cfg.cluster = PinCluster();
        cfg.sparse_comm = c.sparse;
        const AdmmLib engine(cfg);
        got = PinOf(p, [&](const RunOptions& o) { return engine.Run(p, o); },
                    opt, /*with_state=*/true);
      } else {
        AdAdmmConfig cfg;
        cfg.cluster = PinCluster();
        cfg.classic_exchange = !c.sparse;
        const AdAdmm engine(cfg);
        got = PinOf(p, [&](const RunOptions& o) { return engine.Run(p, o); },
                    opt, /*with_state=*/false);
      }
      ExpectPin(got, c.pin);
    }
  }
}

// ------------------------------------------------- sparse comm pins ----

// Sparse-comm runs that no pin above covers: Ring and naive under every
// grouping, two-rack hierarchical runs and ADMMLib. The values come from the
// build in which every engine packed its collective inputs into
// SparseVectors; serial and pooled runs must both keep them.
struct CommPin {
  std::uint64_t final_z = 0;
  std::uint64_t iterations = 0;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
  std::uint64_t system_time = 0;  // the bits of RunResult::SystemTime()
  std::uint64_t residuals = 0;    // the (primal, dual) series
};

// Six nodes of two workers: flat runs reduce over 12 members, hierarchical
// ones over 6 leaders (3 per rack with two racks) and dynamic ones over
// groups of 3, so every Ring collective forwards partial folds.
const ConsensusProblem& TwelveShardProblem() {
  static const ConsensusProblem p = [] {
    data::SyntheticSpec spec = TinySpec(7);
    spec.num_features = 301;
    spec.num_train = 240;
    spec.num_test = 60;
    spec.mean_row_nnz = 6.0;
    return BuildProblem(spec, 12);
  }();
  return p;
}

CommPin CommPinOf(const RunResult& r) {
  CommPin pin;
  pin.final_z = BitDigest(r.final_z);
  pin.iterations = r.iterations_run;
  pin.elements_sent = r.elements_sent;
  pin.messages_sent = r.messages_sent;
  const double t = r.SystemTime();
  std::memcpy(&pin.system_time, &t, sizeof t);
  std::vector<double> series;
  for (const auto& rec : r.trace) {
    series.push_back(rec.primal_residual);
    series.push_back(rec.dual_residual);
  }
  pin.residuals = BitDigest(series);
  return pin;
}

TEST(SparseCommPins, RingNaiveMultiRackAndAdmmLibKeepTheirRuns) {
  using G = GroupingMode;
  using K = comm::AllreduceKind;
  using S = Scenario;
  const struct {
    const char* name;
    bool admmlib;
    G grouping;
    K allreduce;
    S scenario;
    std::uint32_t racks;
    CommPin pin;
  } cases[] = {
      {"flat ring", false, G::kFlat, K::kRing, S::kNoFaults, 1,
       {16330984212173478560ULL, 20, 104958, 5280, 4571280235144194352ULL,
        4702776972723835051ULL}},
      {"flat ring drop/delay", false, G::kFlat, K::kRing, S::kDropDelay, 1,
       {16330984212173478560ULL, 20, 104958, 5280, 4587577483837386806ULL,
        4702776972723835051ULL}},
      {"flat ring mixed+censor", false, G::kFlat, K::kRing, S::kMixedCensor, 1,
       {17943321456753609309ULL, 20, 17280, 5280, 4570703320264893626ULL,
        9739083587309322236ULL}},
      {"flat naive", false, G::kFlat, K::kNaive, S::kNoFaults, 1,
       {8324704928539854369ULL, 20, 81853, 440, 4570583228321846554ULL,
        5517508559096981327ULL}},
      {"flat naive drop/delay", false, G::kFlat, K::kNaive, S::kDropDelay, 1,
       {8324704928539854369ULL, 20, 81853, 440, 4587496217079504192ULL,
        5517508559096981327ULL}},
      {"flat naive mixed+censor", false, G::kFlat, K::kNaive, S::kMixedCensor,
       1,
       {17943321456753609309ULL, 20, 13774, 242, 4566659766817127509ULL,
        9739083587309322236ULL}},
      {"hierarchical ring", false, G::kHierarchical, K::kRing, S::kNoFaults, 1,
       {6140083834634873367ULL, 20, 92525, 1440, 4567064821986909494ULL,
        7367673301023356120ULL}},
      {"hierarchical ring drop/delay", false, G::kHierarchical, K::kRing,
       S::kDropDelay, 1,
       {6140083834634873367ULL, 20, 92525, 1440, 4580162637309830431ULL,
        7367673301023356120ULL}},
      {"hierarchical ring mixed+censor", false, G::kHierarchical, K::kRing,
       S::kMixedCensor, 1,
       {2554232137478178164ULL, 20, 29188, 1440, 4566180279743871536ULL,
        925402263827957815ULL}},
      {"hierarchical naive", false, G::kHierarchical, K::kNaive, S::kNoFaults,
       1,
       {7473586283068549551ULL, 20, 85543, 440, 4567037506273825820ULL,
        17611518514539743738ULL}},
      {"hierarchical naive drop/delay", false, G::kHierarchical, K::kNaive,
       S::kDropDelay, 1,
       {7473586283068549551ULL, 20, 85543, 440, 4580149027155232560ULL,
        17611518514539743738ULL}},
      {"hierarchical naive mixed+censor", false, G::kHierarchical, K::kNaive,
       S::kMixedCensor, 1,
       {2554232137478178164ULL, 20, 28123, 360, 4563086852389664202ULL,
        925402263827957815ULL}},
      {"dynamic ring", false, G::kDynamicGroups, K::kRing, S::kNoFaults, 1,
       {14628367707280752059ULL, 20, 78848, 960, 4569983308179048607ULL,
        8714404643611761612ULL}},
      {"dynamic ring drop/delay", false, G::kDynamicGroups, K::kRing,
       S::kDropDelay, 1,
       {14628367707280752059ULL, 20, 78848, 960, 4577233236418937470ULL,
        8714404643611761612ULL}},
      {"dynamic naive", false, G::kDynamicGroups, K::kNaive, S::kNoFaults, 1,
       {12461315098612729668ULL, 20, 77063, 640, 4570131028955338316ULL,
        13265298403898280679ULL}},
      {"dynamic naive drop/delay", false, G::kDynamicGroups, K::kNaive,
       S::kDropDelay, 1,
       {10544837485106029023ULL, 20, 77050, 640, 4577146679145290995ULL,
        15013906235191707930ULL}},
      {"two-rack psr", false, G::kHierarchical, K::kPsr, S::kNoFaults, 2,
       {15531490033496690581ULL, 20, 111146, 880, 4569634211884384463ULL,
        11955434293469940798ULL}},
      {"two-rack ring", false, G::kHierarchical, K::kRing, S::kNoFaults, 2,
       {16566143125942639782ULL, 20, 113601, 880, 4569729080853906394ULL,
        6557918775541186782ULL}},
      {"admmlib ring", true, G::kFlat, K::kRing, S::kNoFaults, 1,
       {8068188683402171413ULL, 20, 92223, 1446, 4567045381832544695ULL,
        17368180657193709972ULL}},
      {"admmlib psr", true, G::kFlat, K::kPsr, S::kNoFaults, 1,
       {12478822955245138541ULL, 20, 85283, 1406, 4566862436986085265ULL,
        15484594207928513781ULL}},
  };
  const ConsensusProblem& p = TwelveShardProblem();
  engine::ThreadPool pool(3);
  pool.ForceParallelDispatchForTesting();
  for (const auto& c : cases) {
    ClusterConfig cluster = TinyCluster(6, 2);
    cluster.num_racks = c.racks;
    for (engine::ThreadPool* const host :
         {static_cast<engine::ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::string(c.name) + (host != nullptr ? " pooled" : ""));
      RunOptions opt;
      opt.max_iterations = 20;
      opt.eval_every = 1;
      opt.pool = host;
      RunResult r;
      if (c.admmlib) {
        AdmmLibConfig cfg;
        cfg.cluster = cluster;
        cfg.allreduce = c.allreduce;
        cfg.sparse_comm = true;
        r = AdmmLib(cfg).Run(p, opt);
      } else {
        PsraConfig cfg;
        cfg.cluster = cluster;
        cfg.grouping = c.grouping;
        cfg.allreduce = c.allreduce;
        cfg.sparse_comm = true;
        if (c.scenario == S::kDropDelay) cfg.cluster.fault = PinDropDelay();
        if (c.scenario == S::kMixedCensor) {
          cfg.mixed_precision = true;
          cfg.censor_threshold = 1.5;
          cfg.censor_decay = 1.0;
        }
        r = PsraHgAdmm(cfg).Run(p, opt);
      }
      const CommPin got = CommPinOf(r);
      EXPECT_EQ(got.final_z, c.pin.final_z);
      EXPECT_EQ(got.iterations, c.pin.iterations);
      EXPECT_EQ(got.elements_sent, c.pin.elements_sent);
      EXPECT_EQ(got.messages_sent, c.pin.messages_sent);
      EXPECT_EQ(got.system_time, c.pin.system_time);
      EXPECT_EQ(got.residuals, c.pin.residuals);
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
