// Host-parallelism determinism regression: the thread pool is a wall-clock
// optimization only, so a PSRA-HGADMM run must produce BITWISE-identical
// results for any pool size, including no pool at all. Every parallel loop
// in the hot path (XWStepAll, ZYStepAll, ComputeResiduals, MeanZInto) either
// touches disjoint per-worker state or reduces through a fixed block
// structure, and this test pins that contract.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "engine/thread_pool.hpp"

namespace psra::admm {
namespace {

data::SyntheticSpec SmallSpec() {
  data::SyntheticSpec spec;
  spec.name = "determinism";
  spec.num_features = 120;
  spec.num_train = 240;
  spec.num_test = 80;
  spec.mean_row_nnz = 10.0;
  spec.label_noise = 0.02;
  spec.seed = 7;
  return spec;
}

PsraConfig SmallCluster(GroupingMode grouping) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = grouping;
  return cfg;
}

RunResult RunWithPool(const ConsensusProblem& problem, const PsraConfig& cfg,
                      engine::ThreadPool* pool) {
  RunOptions opt;
  opt.max_iterations = 8;
  opt.eval_every = 2;
  opt.adaptive_rho.enabled = true;  // exercise the residual-driven rho path
  opt.pool = pool;
  return PsraHgAdmm(cfg).Run(problem, opt);
}

/// Bitwise equality for doubles: EXPECT_EQ would accept -0.0 == 0.0 and
/// reject NaN == NaN; the contract here is "same bits", nothing weaker.
void ExpectBitsEq(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " vs " << b;
}

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  // Final consensus model, bit for bit.
  ASSERT_EQ(a.final_z.size(), b.final_z.size());
  for (std::size_t i = 0; i < a.final_z.size(); ++i) {
    ExpectBitsEq(a.final_z[i], b.final_z[i], "final_z");
  }
  ExpectBitsEq(a.final_objective, b.final_objective, "final_objective");
  ExpectBitsEq(a.final_accuracy, b.final_accuracy, "final_accuracy");

  // Virtual-time accounting and comm stats: host threading must not change
  // a single simulated byte or second.
  ExpectBitsEq(a.total_cal_time, b.total_cal_time, "total_cal_time");
  ExpectBitsEq(a.total_comm_time, b.total_comm_time, "total_comm_time");
  ExpectBitsEq(a.makespan, b.makespan, "makespan");
  EXPECT_EQ(a.elements_sent, b.elements_sent);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  EXPECT_EQ(a.faults, b.faults);

  // Full trace.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t t = 0; t < a.trace.size(); ++t) {
    const auto& ra = a.trace[t];
    const auto& rb = b.trace[t];
    EXPECT_EQ(ra.iteration, rb.iteration);
    ExpectBitsEq(ra.objective, rb.objective, "trace.objective");
    ExpectBitsEq(ra.accuracy, rb.accuracy, "trace.accuracy");
    ExpectBitsEq(ra.cal_time, rb.cal_time, "trace.cal_time");
    ExpectBitsEq(ra.comm_time, rb.comm_time, "trace.comm_time");
    ExpectBitsEq(ra.makespan, rb.makespan, "trace.makespan");
    ExpectBitsEq(ra.primal_residual, rb.primal_residual,
                 "trace.primal_residual");
    ExpectBitsEq(ra.dual_residual, rb.dual_residual, "trace.dual_residual");
    ExpectBitsEq(ra.rho, rb.rho, "trace.rho");
  }
}

class PoolDeterminism : public ::testing::TestWithParam<GroupingMode> {};

TEST_P(PoolDeterminism, SerialAndPooledRunsAreBitwiseIdentical) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  const auto cfg = SmallCluster(GetParam());

  const RunResult serial = RunWithPool(problem, cfg, nullptr);

  engine::ThreadPool pool1(1);
  ExpectIdenticalRuns(serial, RunWithPool(problem, cfg, &pool1));

  // Pool of 2: the smallest size where work is genuinely split, and where
  // the group-batched phases (cross-group ParallelFor) straddle threads.
  engine::ThreadPool pool2(2);
  pool2.ForceParallelDispatchForTesting();
  ExpectIdenticalRuns(serial, RunWithPool(problem, cfg, &pool2));

  engine::ThreadPool pool8(8);
  pool8.ForceParallelDispatchForTesting();  // even on a 1-CPU host
  ExpectIdenticalRuns(serial, RunWithPool(problem, cfg, &pool8));

  // A second run on the same pool must also match: the workspaces the run
  // recycles internally may not leak state between runs.
  ExpectIdenticalRuns(serial, RunWithPool(problem, cfg, &pool8));
}

TEST_P(PoolDeterminism, EmptyFaultPlanKnobsArePureNoOps) {
  // Tuning fault knobs that schedule nothing (seed, retry policy,
  // checkpoint cadence) must leave runs BITWISE identical: an empty
  // FaultPlan takes exactly the fault-free code path.
  const auto problem = BuildProblem(SmallSpec(), 8);
  const auto cfg = SmallCluster(GetParam());
  const RunResult base = RunWithPool(problem, cfg, nullptr);

  auto tweaked = cfg;
  tweaked.cluster.fault.seed = 9999;
  tweaked.cluster.fault.checkpoint_every = 2;
  tweaked.cluster.fault.max_retries = 11;
  tweaked.cluster.fault.retry_timeout_s = 0.5;
  tweaked.cluster.fault.restart_delay_s = 7.0;
  ExpectIdenticalRuns(base, RunWithPool(problem, tweaked, nullptr));
  EXPECT_EQ(base.faults, FaultStats{});
}

TEST_P(PoolDeterminism, FaultyRunsAreBitwiseIdenticalAcrossPools) {
  // The determinism contract extends to fault injection: crashes, drops and
  // recoveries are scheduled in virtual time, so host threading must not
  // move a single one of them.
  const auto problem = BuildProblem(SmallSpec(), 8);
  auto cfg = SmallCluster(GetParam());
  cfg.cluster.fault.crashes.push_back({/*rank=*/1, /*at_iteration=*/3,
                                       /*down_iterations=*/2});
  cfg.cluster.fault.message_drop_probability = 0.1;
  cfg.cluster.fault.checkpoint_every = 2;

  const RunResult serial = RunWithPool(problem, cfg, nullptr);
  EXPECT_EQ(serial.faults.worker_crashes, 1u);
  EXPECT_EQ(serial.faults.recoveries, 1u);

  engine::ThreadPool pool8(8);
  pool8.ForceParallelDispatchForTesting();
  ExpectIdenticalRuns(serial, RunWithPool(problem, cfg, &pool8));
  ExpectIdenticalRuns(serial, RunWithPool(problem, cfg, &pool8));
}

TEST_P(PoolDeterminism, NeverFiringPlanMatchesFaultFreeRun) {
  // A plan whose only event is a crash after the last iteration makes the
  // run faulty (fault bookkeeping, checkpoints, fault contexts on every
  // collective) without ever injecting anything. The iteration flow is the
  // same one fault-free runs take, so the result must be too, bit for bit.
  const auto problem = BuildProblem(SmallSpec(), 8);
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    auto cfg = SmallCluster(GetParam());
    cfg.sparse_comm = sparse;
    const RunResult clean = RunWithPool(problem, cfg, nullptr);

    cfg.cluster.fault.crashes.push_back({/*rank=*/3, /*at_iteration=*/9,
                                         /*down_iterations=*/2});
    cfg.cluster.fault.checkpoint_every = 2;
    ExpectIdenticalRuns(clean, RunWithPool(problem, cfg, nullptr));

    engine::ThreadPool pool2(2);
    pool2.ForceParallelDispatchForTesting();
    ExpectIdenticalRuns(clean, RunWithPool(problem, cfg, &pool2));
  }
}

INSTANTIATE_TEST_SUITE_P(AllGroupings, PoolDeterminism,
                         ::testing::Values(GroupingMode::kFlat,
                                           GroupingMode::kHierarchical,
                                           GroupingMode::kDynamicGroups),
                         [](const auto& info) {
                           return GroupingModeName(info.param);
                         });

// The transpose-reduction solver path (DESIGN.md §14) is covered by the
// same contract: with the Gram Hessian forced on for every worker, serial
// and pooled runs must stay bitwise identical — the packed Gram accumulation
// and the dense Hessian products are per-worker state, untouched by host
// threading.
TEST(GramSolverDeterminism, SerialAndPooledRunsAreBitwiseIdentical) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  const auto cfg = SmallCluster(GroupingMode::kHierarchical);

  const auto run = [&](engine::ThreadPool* pool) {
    RunOptions opt;
    opt.max_iterations = 8;
    opt.eval_every = 2;
    opt.adaptive_rho.enabled = true;  // rho changes rebuild the shifted Gram
    opt.local_solver.mode = LocalSolverOptions::Mode::kGram;
    opt.pool = pool;
    return PsraHgAdmm(cfg).Run(problem, opt);
  };

  const RunResult serial = run(nullptr);
  engine::ThreadPool pool8(8);
  pool8.ForceParallelDispatchForTesting();
  ExpectIdenticalRuns(serial, run(&pool8));
  ExpectIdenticalRuns(serial, run(&pool8));
}

}  // namespace
}  // namespace psra::admm
