// Tests for model checkpointing (save/load round trips, format errors) and
// in-memory run checkpoints (capture, warm start, split runs).
#include <gtest/gtest.h>

#include <sstream>

#include "admm/ad_admm.hpp"
#include "admm/admmlib.hpp"
#include "admm/checkpoint.hpp"
#include "admm/gadmm.hpp"
#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "obs/obs.hpp"
#include "solver/metrics.hpp"
#include "support/status.hpp"

namespace psra::admm {
namespace {

ModelCheckpoint SampleModel() {
  ModelCheckpoint m;
  m.algorithm = "PSRA-HGADMM(psr)";
  m.lambda = 1.5;
  m.rho = 0.25;
  m.z.assign(10, 0.0);
  m.z[0] = 1.25;
  m.z[7] = -3.5e-4;
  return m;
}

TEST(Checkpoint, RoundTripPreservesEverything) {
  const auto m = SampleModel();
  std::ostringstream os;
  WriteModel(m, os);
  std::istringstream is(os.str());
  const auto back = ReadModel(is);
  EXPECT_EQ(back.algorithm, m.algorithm);
  EXPECT_DOUBLE_EQ(back.lambda, m.lambda);
  EXPECT_DOUBLE_EQ(back.rho, m.rho);
  ASSERT_EQ(back.z.size(), m.z.size());
  for (std::size_t i = 0; i < m.z.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.z[i], m.z[i]) << i;
  }
}

TEST(Checkpoint, SparseStorageOmitsZeros) {
  const auto m = SampleModel();
  std::ostringstream os;
  WriteModel(m, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("nnz 2"), std::string::npos);
  // header(5 lines) + nnz line...: magic, algorithm, dim, lambda, rho, nnz,
  // then exactly 2 entries.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 8);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::istringstream is("not a model\n");
  EXPECT_THROW(ReadModel(is), InvalidArgument);
}

TEST(Checkpoint, RejectsTruncatedEntries) {
  std::istringstream is(
      "psra-model v1\nalgorithm x\ndim 4\nlambda 1\nrho 1\nnnz 2\n0 1.0\n");
  EXPECT_THROW(ReadModel(is), InvalidArgument);
}

TEST(Checkpoint, RejectsOutOfRangeIndex) {
  std::istringstream is(
      "psra-model v1\nalgorithm x\ndim 2\nlambda 1\nrho 1\nnnz 1\n5 1.0\n");
  EXPECT_THROW(ReadModel(is), InvalidArgument);
}

TEST(Checkpoint, RejectsUnknownHeaderField) {
  std::istringstream is("psra-model v1\nflavor vanilla\n");
  EXPECT_THROW(ReadModel(is), InvalidArgument);
}

TEST(Checkpoint, MissingFileThrowsIoError) {
  EXPECT_THROW(ReadModelFile("/nonexistent/model"), IoError);
}

TEST(Checkpoint, EmptyModelRejectedOnWrite) {
  ModelCheckpoint m;
  std::ostringstream os;
  EXPECT_THROW(WriteModel(m, os), InvalidArgument);
}

TEST(Checkpoint, FromRunResultScoresIdentically) {
  data::SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 120;
  spec.num_test = 60;
  spec.mean_row_nnz = 8.0;
  ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.workers_per_node = 2;
  const auto p = BuildProblem(spec, cluster.world_size());
  PsraConfig cfg;
  cfg.cluster = cluster;
  RunOptions opt;
  opt.max_iterations = 10;
  const auto res = PsraHgAdmm(cfg).Run(p, opt);

  std::ostringstream os;
  WriteModel(FromRunResult(res, p.lambda, p.rho), os);
  std::istringstream is(os.str());
  const auto loaded = ReadModel(is);
  EXPECT_DOUBLE_EQ(solver::Accuracy(p.test, loaded.z), res.final_accuracy);
}

// ------------------------------------------------------- run checkpoints --

struct RunCkptFixture {
  RunCkptFixture()
      : problem(BuildProblem(
            [] {
              data::SyntheticSpec spec;
              spec.num_features = 40;
              spec.num_train = 60;
              spec.num_test = 20;
              spec.mean_row_nnz = 6.0;
              spec.seed = 5;
              return spec;
            }(),
            3)),
        ws(&problem, &options) {}

  RunOptions options;
  ConsensusProblem problem;
  WorkerSet ws;
};

TEST(RunCheckpointTest, RoundTripPreservesEveryWorker) {
  RunCkptFixture f;
  f.ws.x(1)[0] = -2.5;
  f.ws.y(2)[3] = 1e-12;
  const std::vector<simnet::Rank> everyone{0, 1, 2};

  RunCheckpoint ckpt;
  CaptureRunCheckpoint(f.ws, 7, everyone, ckpt);
  EXPECT_EQ(ckpt.iteration, 7u);
  ASSERT_EQ(ckpt.workers.size(), 3u);

  // Read through a const reference: the mutable accessors would detach the
  // worker from its shared base.
  const WorkerSet& ws = f.ws;
  EXPECT_EQ(ckpt.rho, ws.rho());
  for (std::size_t i = 0; i < ckpt.workers.size(); ++i) {
    EXPECT_EQ(ckpt.workers[i].x, ws.x(i)) << "worker " << i;
    EXPECT_EQ(ckpt.workers[i].y, ws.y(i)) << "worker " << i;
    EXPECT_EQ(ckpt.workers[i].z, ws.z(i)) << "worker " << i;
  }
}

TEST(RunCheckpointTest, SubsetCaptureLeavesOtherSlotsUntouched) {
  RunCkptFixture f;
  const std::vector<simnet::Rank> everyone{0, 1, 2};
  RunCheckpoint ckpt;
  f.ws.x(0)[0] = 11.0;
  CaptureRunCheckpoint(f.ws, 1, everyone, ckpt);
  const auto worker0_at_1 = ckpt.workers[0].x;

  // Worker 0 "crashes": its live state moves on, but the next capture only
  // covers the survivors, so its slot must keep the iteration-1 snapshot.
  f.ws.x(0)[0] = 99.0;
  f.ws.x(1)[0] = 42.0;
  const std::vector<simnet::Rank> survivors{1, 2};
  CaptureRunCheckpoint(f.ws, 2, survivors, ckpt);
  EXPECT_EQ(ckpt.iteration, 2u);
  EXPECT_EQ(ckpt.workers[0].x, worker0_at_1);
  EXPECT_DOUBLE_EQ(ckpt.workers[1].x[0], 42.0);
}

TEST(RunCheckpointTest, RestoreWorkerRecomputesDerivedState) {
  RunCkptFixture f;
  const std::vector<simnet::Rank> everyone{0, 1, 2};
  RunCheckpoint ckpt;
  CaptureRunCheckpoint(f.ws, 1, everyone, ckpt);

  std::vector<double> flops(3, 0.0);
  f.ws.XWStepAll(flops);  // moves x and w away from the snapshot
  ASSERT_NE(f.ws.x(1), ckpt.workers[1].x);

  const auto w_before = f.ws.w(1);
  f.ws.RestoreWorker(1, ckpt.workers[1].x, ckpt.workers[1].y,
                     ckpt.workers[1].z);
  EXPECT_EQ(f.ws.x(1), ckpt.workers[1].x);
  EXPECT_EQ(f.ws.y(1), ckpt.workers[1].y);
  EXPECT_EQ(f.ws.z(1), ckpt.workers[1].z);
  EXPECT_NE(f.ws.w(1), w_before);  // w recomputed from the restored x/y
}

// ------------------------------------------------------ metrics snapshot --

TEST(RunCheckpointTest, CaptureSnapshotsMetricsRegistry) {
  RunCkptFixture f;
  const std::vector<simnet::Rank> everyone{0, 1, 2};
  obs::MetricsRegistry metrics;
  metrics.Counter("comm.allreduce.psr.bytes") = 12345;
  metrics.Gauge("run.makespan_s") = 0.125;

  RunCheckpoint ckpt;
  CaptureRunCheckpoint(f.ws, 3, everyone, ckpt, &metrics);
  EXPECT_EQ(ckpt.metrics, metrics);

  // The snapshot is a copy frozen at capture time, not a live reference.
  metrics.Counter("comm.allreduce.psr.bytes") = 99999;
  EXPECT_NE(ckpt.metrics, metrics);

  // Null metrics leaves the checkpoint's registry untouched.
  CaptureRunCheckpoint(f.ws, 4, everyone, ckpt);
  EXPECT_FALSE(ckpt.metrics.empty());
  EXPECT_EQ(ckpt.metrics.counters().at("comm.allreduce.psr.bytes"), 12345u);
}

// ------------------------------------------------ warm-start application --

TEST(RunCheckpointTest, ApplyWarmStartRestoresStateAndReturnsIteration) {
  RunCkptFixture f;
  const std::vector<simnet::Rank> everyone{0, 1, 2};
  RunCheckpoint ckpt;
  f.ws.x(2)[1] = -7.5;
  CaptureRunCheckpoint(f.ws, 4, everyone, ckpt);

  std::vector<double> flops(3, 0.0);
  f.ws.XWStepAll(flops);  // move every worker away from the snapshot
  f.ws.SetRho(f.ws.rho() * 3.0);

  RunOptions opt;
  opt.warm_start = &ckpt;
  EXPECT_EQ(ApplyWarmStart(f.ws, opt), 4u);
  EXPECT_DOUBLE_EQ(f.ws.rho(), ckpt.rho);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.ws.x(i), ckpt.workers[i].x) << "worker " << i;
    EXPECT_EQ(f.ws.y(i), ckpt.workers[i].y) << "worker " << i;
    EXPECT_EQ(f.ws.z(i), ckpt.workers[i].z) << "worker " << i;
  }
}

TEST(RunCheckpointTest, WarmStartRejectsWorkerCountMismatch) {
  RunCkptFixture f;
  const std::vector<simnet::Rank> everyone{0, 1, 2};
  RunCheckpoint ckpt;
  CaptureRunCheckpoint(f.ws, 1, everyone, ckpt);
  ckpt.workers.resize(2);  // claims a smaller cluster than ws
  RunOptions opt;
  opt.warm_start = &ckpt;
  EXPECT_THROW(ApplyWarmStart(f.ws, opt), InvalidArgument);
}

TEST(RunCheckpointTest, WarmStartRejectsDimensionMismatch) {
  RunCkptFixture f;
  const std::vector<simnet::Rank> everyone{0, 1, 2};
  RunCheckpoint ckpt;
  CaptureRunCheckpoint(f.ws, 1, everyone, ckpt);
  ckpt.workers[1].y.resize(3);  // problem dim is 40
  RunOptions opt;
  opt.warm_start = &ckpt;
  EXPECT_THROW(ApplyWarmStart(f.ws, opt), InvalidArgument);
}

// --------------------------------------- split runs resume bit-identically --

ConsensusProblem SplitRunProblem() {
  data::SyntheticSpec spec;
  spec.num_features = 48;
  spec.num_train = 96;
  spec.num_test = 32;
  spec.mean_row_nnz = 6.0;
  spec.seed = 9;
  return BuildProblem(spec, 8);
}

/// Runs the engine 10 iterations straight, then as 5 + checkpoint + 5 warm
/// started, and requires the two final consensus models to match BITWISE.
/// Virtual clocks restart at zero on resume, so only the algebra (not the
/// makespan) is comparable — exactly the contract RunOptions documents.
template <typename Engine>
void ExpectSplitRunMatchesStraightRun(const Engine& engine,
                                      const ConsensusProblem& problem) {
  RunOptions straight;
  straight.max_iterations = 10;
  const auto full = engine.Run(problem, straight);
  ASSERT_EQ(full.iterations_run, 10u);

  RunCheckpoint ckpt;
  RunOptions first;
  first.max_iterations = 5;
  first.checkpoint_out = &ckpt;
  first.checkpoint_at = 5;
  (void)engine.Run(problem, first);
  ASSERT_EQ(ckpt.iteration, 5u);
  ASSERT_EQ(ckpt.workers.size(), 8u);

  RunOptions resume;
  resume.max_iterations = 10;
  resume.warm_start = &ckpt;
  const auto back = engine.Run(problem, resume);
  ASSERT_EQ(back.final_z.size(), full.final_z.size());
  EXPECT_EQ(back.final_z, full.final_z);
  EXPECT_DOUBLE_EQ(back.final_objective, full.final_objective);
}

TEST(SplitRunTest, PsraFlatResumesBitwise) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = GroupingMode::kFlat;
  ExpectSplitRunMatchesStraightRun(PsraHgAdmm(cfg), SplitRunProblem());
}

TEST(SplitRunTest, PsraHierarchicalMultiRackResumesBitwise) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.num_racks = 2;  // exercises the recursive leader collective
  cfg.grouping = GroupingMode::kHierarchical;
  ExpectSplitRunMatchesStraightRun(PsraHgAdmm(cfg), SplitRunProblem());
}

TEST(SplitRunTest, AdmmLibFullBarrierResumesBitwise) {
  AdmmLibConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  // A full barrier makes every round synchronous; partial-barrier staleness
  // lives outside the checkpoint, so only this mode resumes exactly.
  cfg.min_barrier_fraction = 1.0;
  ExpectSplitRunMatchesStraightRun(AdmmLib(cfg), SplitRunProblem());
}

/// The timeline analogue of the bitwise split-run contract: a run checkpointed
/// at 5 and resumed to 10 records rows 6..10, and concatenating them after the
/// first leg's rows 1..5 (TimeSeriesRecorder::MergeFrom) must reproduce the
/// uninterrupted run's JSONL byte-for-byte — per-iteration deltas (ts.bytes,
/// ts.rounds) are baselined after setup traffic, so resumed rows carry no
/// warm-start skew.
template <typename Engine>
void ExpectSplitTimelineMatchesStraightTimeline(
    const Engine& engine, const ConsensusProblem& problem) {
  obs::ObsContext straight_obs;
  RunOptions straight;
  straight.max_iterations = 10;
  straight.obs = &straight_obs;
  (void)engine.Run(problem, straight);
  ASSERT_EQ(straight_obs.timeline.rows(), 10u);

  RunCheckpoint ckpt;
  obs::ObsContext head_obs;
  RunOptions first;
  first.max_iterations = 5;
  first.checkpoint_out = &ckpt;
  first.checkpoint_at = 5;
  first.obs = &head_obs;
  (void)engine.Run(problem, first);
  ASSERT_EQ(head_obs.timeline.rows(), 5u);

  obs::ObsContext tail_obs;
  RunOptions resume;
  resume.max_iterations = 10;
  resume.warm_start = &ckpt;
  resume.obs = &tail_obs;
  (void)engine.Run(problem, resume);
  ASSERT_EQ(tail_obs.timeline.rows(), 5u);
  ASSERT_EQ(tail_obs.timeline.IterationAt(0), 6u);

  head_obs.timeline.MergeFrom(tail_obs.timeline);
  std::ostringstream merged, uninterrupted;
  head_obs.timeline.WriteJsonl(merged);
  straight_obs.timeline.WriteJsonl(uninterrupted);
  EXPECT_EQ(merged.str(), uninterrupted.str());
}

TEST(SplitRunTest, PsraTimelineMergesBitwise) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = GroupingMode::kFlat;
  ExpectSplitTimelineMatchesStraightTimeline(PsraHgAdmm(cfg),
                                             SplitRunProblem());
}

TEST(SplitRunTest, AdmmLibTimelineMergesBitwise) {
  AdmmLibConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.min_barrier_fraction = 1.0;  // see AdmmLibFullBarrierResumesBitwise
  ExpectSplitTimelineMatchesStraightTimeline(AdmmLib(cfg), SplitRunProblem());
}

TEST(SplitRunTest, GadmmRejectsWarmStarts) {
  const auto problem = SplitRunProblem();
  RunCheckpoint ckpt;
  RunOptions opt;
  opt.max_iterations = 2;
  opt.warm_start = &ckpt;
  GadmmConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  EXPECT_THROW(Gadmm(cfg).Run(problem, opt), InvalidArgument);
}

TEST(SplitRunTest, AdAdmmRejectsWarmStarts) {
  const auto problem = SplitRunProblem();
  RunCheckpoint ckpt;
  RunOptions opt;
  opt.max_iterations = 2;
  opt.warm_start = &ckpt;
  AdAdmmConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  EXPECT_THROW(AdAdmm(cfg).Run(problem, opt), InvalidArgument);
}

}  // namespace
}  // namespace psra::admm
