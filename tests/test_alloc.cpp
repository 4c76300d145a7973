// Steady-state allocation regression test: after warm-up, a PSRA-HGADMM
// iteration must perform ZERO dynamic allocations — for every grouping,
// serial and pooled, dense and sparse comm, with and without message
// faults. This is the testable core of the bench_hotpath alloc gate:
// bench numbers need a quiet machine, but an allocation count is
// deterministic, so it can fail a plain ctest run the moment a hot-path
// std::vector sneaks back in.
//
// The measurement uses the same delta method as bench_hotpath: run the same
// configuration at two iteration counts K1 < K2 and require
//   (allocs(K2) - allocs(K1)) - (allocs(K1) - allocs(K0)) == 0
// which cancels setup, warm-up and teardown allocations exactly.
//
// This binary (and bench_hotpath) are the only ones that link
// psra_alloc_counter, which replaces global operator new/delete with
// counting forwarders.
#include <gtest/gtest.h>

#include <cstdint>

#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "engine/alloc_counter.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"
#include "simnet/event_queue.hpp"

namespace psra::admm {
namespace {

data::SyntheticSpec SmallSpec() {
  data::SyntheticSpec spec;
  spec.name = "alloc";
  spec.num_features = 96;
  spec.num_train = 192;
  spec.num_test = 64;
  spec.mean_row_nnz = 8.0;
  spec.label_noise = 0.02;
  spec.seed = 11;
  return spec;
}

PsraConfig SmallCluster(GroupingMode grouping) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = grouping;
  cfg.sparse_comm = false;
  return cfg;
}

/// SmallCluster under message faults only: drops that always resolve
/// within the retry bound (0.1^13 per member never excludes anyone here)
/// plus delays. Every iteration runs the fault protocol on every collective.
PsraConfig DropDelayCluster(GroupingMode grouping) {
  PsraConfig cfg = SmallCluster(grouping);
  cfg.cluster.fault.message_drop_probability = 0.1;
  cfg.cluster.fault.max_retries = 12;
  cfg.cluster.fault.message_delay_probability = 0.2;
  cfg.cluster.fault.message_delay_s = 1e-4;
  return cfg;
}

/// `cfg` with sparse collectives: every inter-node input stays dense, and
/// the collective prices each send by the entries it would carry.
PsraConfig Sparse(PsraConfig cfg) {
  cfg.sparse_comm = true;
  return cfg;
}

std::uint64_t RunOnce(const ConsensusProblem& problem, const PsraConfig& cfg,
                      engine::ThreadPool* pool, std::uint64_t iterations,
                      bool with_obs = false) {
  RunOptions opt;
  opt.max_iterations = iterations;
  opt.eval_every = iterations;  // evaluation allocates; keep it off-path
  opt.pool = pool;
  // One fresh context per run, like every harness: its setup cost (tracks,
  // hoisted counter slots, the first chunk lease per series) is then the
  // same for every run, so the delta method cancels it exactly. Metrics and
  // timeline only — span recording allocates by design.
  obs::ObsContext obs;
  obs.tracing = false;
  opt.obs = with_obs ? &obs : nullptr;
  return PsraHgAdmm(cfg).Run(problem, opt).iterations_run;
}

/// Allocations per iteration by the delta method (exact, not averaged: the
/// counts are deterministic, so the division must come out whole).
std::uint64_t AllocsPerIter(const ConsensusProblem& problem,
                            const PsraConfig& cfg, engine::ThreadPool* pool,
                            bool with_obs = false) {
  constexpr std::uint64_t k1 = 4;
  constexpr std::uint64_t k2 = 12;
  (void)RunOnce(problem, cfg, pool, k1, with_obs);  // warm-up: workspaces

  const std::uint64_t a0 = engine::AllocCount();
  (void)RunOnce(problem, cfg, pool, k1, with_obs);
  const std::uint64_t a1 = engine::AllocCount();
  (void)RunOnce(problem, cfg, pool, k2, with_obs);
  const std::uint64_t a2 = engine::AllocCount();

  const std::uint64_t delta = (a2 - a1) - (a1 - a0);
  return delta / (k2 - k1);
}

class AllocRegression : public ::testing::TestWithParam<GroupingMode> {
 protected:
  void SetUp() override {
#ifdef PSRA_SANITIZE_BUILD
    GTEST_SKIP() << "allocation counts are not meaningful under sanitizers";
#endif
  }
};

TEST_P(AllocRegression, SerialIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  EXPECT_EQ(AllocsPerIter(problem, SmallCluster(GetParam()), nullptr), 0u);
}

TEST_P(AllocRegression, PooledIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  engine::ThreadPool pool(8);
  pool.ForceParallelDispatchForTesting();
  EXPECT_EQ(AllocsPerIter(problem, SmallCluster(GetParam()), &pool), 0u);
}

// Faulty runs take the same pooled iteration flow: each group slot owns its
// fault context, so drawing fault coins, stalling for retries and delaying
// messages allocate nothing once the slots are warm.
TEST_P(AllocRegression, SerialFaultyIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  EXPECT_EQ(AllocsPerIter(problem, DropDelayCluster(GetParam()), nullptr), 0u);
}

TEST_P(AllocRegression, PooledFaultyIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  engine::ThreadPool pool(8);
  pool.ForceParallelDispatchForTesting();
  EXPECT_EQ(AllocsPerIter(problem, DropDelayCluster(GetParam()), &pool), 0u);
}

// Sparse comm reduces the dense collective inputs where they are: the group
// collective folds them into the dense sum with recycled folds and packs
// nothing.
TEST_P(AllocRegression, SparseSerialIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  EXPECT_EQ(
      AllocsPerIter(problem, Sparse(SmallCluster(GetParam())), nullptr), 0u);
}

TEST_P(AllocRegression, SparsePooledIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  engine::ThreadPool pool(8);
  pool.ForceParallelDispatchForTesting();
  EXPECT_EQ(AllocsPerIter(problem, Sparse(SmallCluster(GetParam())), &pool),
            0u);
}

TEST_P(AllocRegression, SparsePooledFaultyIterationIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  engine::ThreadPool pool(8);
  pool.ForceParallelDispatchForTesting();
  EXPECT_EQ(
      AllocsPerIter(problem, Sparse(DropDelayCluster(GetParam())), &pool), 0u);
}

// The convergence timeline must ride for free: with a metrics-only
// ObsContext attached (tracing off — span recording allocates by design),
// per-iteration counter adds are plain stores into hoisted slots and
// TimeSeries appends land in chunks pooled by the recorder, so the
// steady-state iteration stays allocation-free. This is the recorder's
// 0-allocs/iter contract from DESIGN.md §13.
TEST_P(AllocRegression, IterationWithTimelineRecorderIsAllocationFree) {
  const auto problem = BuildProblem(SmallSpec(), 8);
  EXPECT_EQ(AllocsPerIter(problem, SmallCluster(GetParam()), nullptr,
                          /*with_obs=*/true),
            0u);
}

INSTANTIATE_TEST_SUITE_P(AllGroupings, AllocRegression,
                         ::testing::Values(GroupingMode::kFlat,
                                           GroupingMode::kHierarchical,
                                           GroupingMode::kDynamicGroups),
                         [](const auto& info) {
                           return GroupingModeName(info.param);
                         });

// Transpose-reduction solver path (DESIGN.md §14): with the Gram Hessian
// forced on for every worker, the packed Gram rebuild inside PrepareHessian*
// and the dense Hessian-vector products must run entirely in the buffers
// preallocated by SetUseGramHessian — the steady-state iteration stays
// allocation-free like the CG path.
TEST(AllocRegressionGram, GramSolverIterationIsAllocationFree) {
#ifdef PSRA_SANITIZE_BUILD
  GTEST_SKIP() << "allocation counts are not meaningful under sanitizers";
#endif
  const auto problem = BuildProblem(SmallSpec(), 8);
  const auto cfg = SmallCluster(GroupingMode::kHierarchical);

  constexpr std::uint64_t k1 = 4;
  constexpr std::uint64_t k2 = 12;
  const auto run = [&](std::uint64_t iterations) {
    RunOptions opt;
    opt.max_iterations = iterations;
    opt.eval_every = iterations;
    opt.local_solver.mode = LocalSolverOptions::Mode::kGram;
    (void)PsraHgAdmm(cfg).Run(problem, opt).iterations_run;
  };
  run(k1);  // warm-up: workspaces + Gram buffers

  const std::uint64_t a0 = engine::AllocCount();
  run(k1);
  const std::uint64_t a1 = engine::AllocCount();
  run(k2);
  const std::uint64_t a2 = engine::AllocCount();
  EXPECT_EQ(((a2 - a1) - (a1 - a0)) / (k2 - k1), 0u);
}

// The event queue itself: once the record arena (and the heap reserved
// with it) is warm, schedule + drain performs ZERO allocations per event,
// at a 1 us and a 0.5 ms cadence. Callables are stored inline, so no
// std::function spill can sneak in either.
TEST(EventQueueAlloc, SteadyStateEventsAreAllocationFree) {
#ifdef PSRA_SANITIZE_BUILD
  GTEST_SKIP() << "allocation counts are not meaningful under sanitizers";
#endif
  simnet::EventQueue q;
  struct Hop {
    simnet::EventQueue* q;
    int* remaining;
    double delay;
    void operator()() const {
      if (--*remaining > 0) q->ScheduleAfter(delay, *this);
    }
  };
  int remaining = 0;
  const auto run_actors = [&](int actors, int events, double delay) {
    remaining = events;
    for (int a = 0; a < actors; ++a) {
      q.ScheduleAfter(0.0, Hop{&q, &remaining, delay});
    }
    q.Run();
  };

  // Warm-up: the first run grows the arena to its working size; the
  // measured runs repeat both cadences.
  run_actors(8, 1024, 1e-6);
  run_actors(8, 256, 5e-4);

  const std::uint64_t a0 = engine::AllocCount();
  run_actors(8, 1024, 1e-6);
  run_actors(8, 256, 5e-4);
  EXPECT_EQ(engine::AllocCount() - a0, 0u);
}

}  // namespace
}  // namespace psra::admm
