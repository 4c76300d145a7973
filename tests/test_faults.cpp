// End-to-end fault-injection tests (DESIGN.md "Fault model"): crash-restart
// recovery from checkpoints, survivor-set collectives under message loss,
// leader death + regrouping, and the async algorithms' drop/delay handling.
// The companion unit tests live next to each layer (test_simnet, test_comm,
// test_wlg, test_checkpoint); this file pins the cross-layer behavior.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "admm/ad_admm.hpp"
#include "admm/gadmm.hpp"
#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"

namespace psra::admm {
namespace {

data::SyntheticSpec FaultSpec() {
  data::SyntheticSpec spec;
  spec.name = "faults";
  spec.num_features = 100;
  spec.num_train = 200;
  spec.num_test = 60;
  spec.mean_row_nnz = 10.0;
  spec.label_noise = 0.02;
  spec.seed = 21;
  return spec;
}

const ConsensusProblem& Problem() {
  static const ConsensusProblem problem = BuildProblem(FaultSpec(), 8);
  return problem;
}

const ConsensusProblem& Problem4() {
  static const ConsensusProblem problem = BuildProblem(FaultSpec(), 4);
  return problem;
}

RunOptions Options(std::uint64_t iters) {
  RunOptions opt;
  opt.max_iterations = iters;
  opt.eval_every = iters;
  return opt;
}

PsraConfig BaseConfig(GroupingMode grouping) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = grouping;
  return cfg;
}

/// Relative L2 distance ||a - b|| / ||b||.
double RelDiff(const linalg::DenseVector& a, const linalg::DenseVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-12);
}

void ExpectSameBits(const linalg::DenseVector& a,
                    const linalg::DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0) << "index " << i;
  }
}

TEST(Faults, EmptyPlanReportsNoFaults) {
  const auto result =
      PsraHgAdmm(BaseConfig(GroupingMode::kDynamicGroups))
          .Run(Problem(), Options(6));
  EXPECT_EQ(result.faults, FaultStats{});
}

class CrashRecovery : public ::testing::TestWithParam<GroupingMode> {};

TEST_P(CrashRecovery, CheckpointRestartMatchesFaultFreeRun) {
  const std::uint64_t iters = 24;
  auto cfg = BaseConfig(GetParam());
  const RunResult clean = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  cfg.cluster.fault.crashes.push_back({/*rank=*/3, /*at_iteration=*/6,
                                       /*down_iterations=*/4});
  cfg.cluster.fault.checkpoint_every = 5;
  const RunResult faulty = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  EXPECT_EQ(faulty.faults.worker_crashes, 1u);
  EXPECT_EQ(faulty.faults.recoveries, 1u);
  EXPECT_EQ(faulty.faults.down_worker_iterations, 4u);

  // The crashed worker missed 4 of 24 rounds and restarted from the
  // iteration-5 checkpoint; consensus must still land where the fault-free
  // run does (same objective to ~1%, nearby model).
  EXPECT_LT(RelDiff(faulty.final_z, clean.final_z), 0.05);
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.01 * std::fabs(clean.final_objective));
  // Recovery cost was charged: respawn delay + checkpoint transfer.
  EXPECT_GT(faulty.SystemTime(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Groupings, CrashRecovery,
                         ::testing::Values(GroupingMode::kFlat,
                                           GroupingMode::kHierarchical,
                                           GroupingMode::kDynamicGroups),
                         [](const auto& info) {
                           return GroupingModeName(info.param);
                         });

TEST(Faults, PermanentCrashDegradesToSurvivors) {
  const std::uint64_t iters = 16;
  auto cfg = BaseConfig(GroupingMode::kFlat);
  cfg.cluster.fault.crashes.push_back({/*rank=*/5, /*at_iteration=*/4,
                                       /*down_iterations=*/0});  // forever
  const RunResult result = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  EXPECT_EQ(result.faults.worker_crashes, 1u);
  EXPECT_EQ(result.faults.recoveries, 0u);
  EXPECT_EQ(result.faults.down_worker_iterations, iters - 4 + 1);
  EXPECT_EQ(result.iterations_run, iters);
  EXPECT_TRUE(std::isfinite(result.final_objective));
}

TEST(Faults, DroppedMessagesRetryUntilDelivered) {
  const std::uint64_t iters = 12;
  auto cfg = BaseConfig(GroupingMode::kFlat);
  const RunResult clean = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  cfg.cluster.fault.message_drop_probability = 0.15;
  cfg.cluster.fault.max_retries = 8;  // exclusion is (0.15)^9: never here
  const RunResult faulty = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  // Every drop was resolved by a retry, so the arithmetic is untouched —
  // the model is bitwise the fault-free one; only virtual time grew.
  ExpectSameBits(faulty.final_z, clean.final_z);
  EXPECT_GT(faulty.faults.dropped_messages, 0u);
  EXPECT_GT(faulty.faults.retries, 0u);
  EXPECT_GT(faulty.total_comm_time, clean.total_comm_time);
}

TEST(Faults, GroupWhoseEveryMemberDropsSitsOutTheRound) {
  // Dynamic groups of 3 leaders with one retry: some group collective sees
  // all three leaders drop on both attempts (iteration 8 with these seeds).
  // The collective completes with no survivors, its nodes keep their state
  // for the round, and the run goes on.
  data::SyntheticSpec spec = FaultSpec();
  spec.num_train = 240;
  const ConsensusProblem problem = BuildProblem(spec, 12);
  PsraConfig cfg;
  cfg.cluster.num_nodes = 6;
  cfg.cluster.workers_per_node = 2;
  cfg.cluster.seed = 21;
  cfg.grouping = GroupingMode::kDynamicGroups;
  cfg.group_threshold = 3;
  cfg.cluster.fault.message_drop_probability = 0.15;
  cfg.cluster.fault.max_retries = 1;
  cfg.cluster.fault.seed = 21;
  const RunResult result = PsraHgAdmm(cfg).Run(problem, Options(15));
  EXPECT_EQ(result.iterations_run, 15u);
  EXPECT_GT(result.faults.dropped_messages, 0u);
  EXPECT_TRUE(std::isfinite(result.final_objective));
}

TEST(Faults, LeaderDeathTriggersRegroupAndReElection) {
  const std::uint64_t iters = 20;
  auto cfg = BaseConfig(GroupingMode::kDynamicGroups);
  const RunResult clean = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  cfg.cluster.fault.leader_deaths.push_back({/*node=*/1, /*at_iteration=*/4,
                                             /*down_iterations=*/3});
  cfg.cluster.fault.checkpoint_every = 3;
  const RunResult faulty = PsraHgAdmm(cfg).Run(Problem(), Options(iters));

  EXPECT_EQ(faulty.faults.leader_deaths, 1u);
  // Node 1 re-elected a survivor while its leader was down, then switched
  // back after the recovery.
  EXPECT_GE(faulty.faults.leader_reelections, 2u);
  EXPECT_EQ(faulty.faults.recoveries, 1u);
  EXPECT_EQ(faulty.faults.down_worker_iterations, 3u);
  EXPECT_LT(RelDiff(faulty.final_z, clean.final_z), 0.05);
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.01 * std::fabs(clean.final_objective));
}

TEST(Faults, FaultyRunsAreReproducible) {
  auto cfg = BaseConfig(GroupingMode::kDynamicGroups);
  cfg.cluster.fault.crashes.push_back({/*rank=*/7, /*at_iteration=*/3,
                                       /*down_iterations=*/2});
  cfg.cluster.fault.leader_deaths.push_back({/*node=*/0, /*at_iteration=*/5,
                                             /*down_iterations=*/2});
  cfg.cluster.fault.message_drop_probability = 0.1;
  // Enough retries that a degraded (possibly single-member) collective never
  // ends up excluding everyone in this 10-iteration window.
  cfg.cluster.fault.max_retries = 8;
  cfg.cluster.fault.checkpoint_every = 2;

  const RunResult a = PsraHgAdmm(cfg).Run(Problem(), Options(10));
  const RunResult b = PsraHgAdmm(cfg).Run(Problem(), Options(10));
  ExpectSameBits(a.final_z, b.final_z);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(std::memcmp(&a.makespan, &b.makespan, sizeof(double)), 0);
}

// ------------------------------------------------------ pinned integers ----
// Runs under fault plans, pinned by the integers every fault coin feeds:
// FaultStats (drops, retries, delays, deaths, re-elections), the traffic
// counters and the iteration count. A coin drawn on the wrong channel, a
// retry charged to the wrong group or an excluded node that still
// broadcasts moves at least one of them. The sparse cases' elements_sent
// was re-pinned when messages began to travel in the cheaper encoding (a
// dense message counts its values); nothing else moved.

struct RunPin {
  FaultStats faults;
  std::size_t elements_sent = 0;
  std::size_t messages_sent = 0;
  std::uint64_t iterations_run = 0;
};

void ExpectPinned(const RunResult& r, const RunPin& pin) {
  EXPECT_EQ(r.faults.worker_crashes, pin.faults.worker_crashes);
  EXPECT_EQ(r.faults.recoveries, pin.faults.recoveries);
  EXPECT_EQ(r.faults.leader_deaths, pin.faults.leader_deaths);
  EXPECT_EQ(r.faults.leader_reelections, pin.faults.leader_reelections);
  EXPECT_EQ(r.faults.dropped_messages, pin.faults.dropped_messages);
  EXPECT_EQ(r.faults.retries, pin.faults.retries);
  EXPECT_EQ(r.faults.delayed_messages, pin.faults.delayed_messages);
  EXPECT_EQ(r.faults.down_worker_iterations,
            pin.faults.down_worker_iterations);
  EXPECT_EQ(r.elements_sent, pin.elements_sent);
  EXPECT_EQ(r.messages_sent, pin.messages_sent);
  EXPECT_EQ(r.iterations_run, pin.iterations_run);
}

/// Drops that always resolve within the retry bound, plus delays.
simnet::FaultConfig DropDelayPlan() {
  simnet::FaultConfig f;
  f.message_drop_probability = 0.1;
  f.max_retries = 12;
  f.message_delay_probability = 0.2;
  f.message_delay_s = 1e-4;
  return f;
}

/// Crash-restart, a permanent crash, two leader deaths, and drops with a
/// retry bound low enough that some collectives exclude a member.
simnet::FaultConfig CrashDeathDropPlan() {
  simnet::FaultConfig f;
  f.crashes.push_back({/*rank=*/3, /*at_iteration=*/5, /*down_iterations=*/4});
  f.crashes.push_back({/*rank=*/6, /*at_iteration=*/9, /*down_iterations=*/0});
  f.leader_deaths.push_back({/*node=*/1, /*at_iteration=*/7,
                             /*down_iterations=*/3});
  f.leader_deaths.push_back({/*node=*/2, /*at_iteration=*/13,
                             /*down_iterations=*/2});
  f.message_drop_probability = 0.1;
  f.max_retries = 2;
  f.checkpoint_every = 4;
  return f;
}

struct PinCase {
  const char* name;
  GroupingMode grouping;
  bool sparse;
  simnet::FaultConfig (*plan)();
  RunPin pin;
};

TEST(FaultPins, FaultyRunsKeepTheirIntegers) {
  const PinCase cases[] = {
      {"flat dense drop/delay", GroupingMode::kFlat, false, DropDelayPlan,
       {{0, 0, 0, 0, 37, 25, 30, 0}, 28000, 2240, 20}},
      {"flat sparse drop/delay", GroupingMode::kFlat, true, DropDelayPlan,
       {{0, 0, 0, 0, 37, 25, 30, 0}, 24131, 2240, 20}},
      {"flat dense crash/death/drop", GroupingMode::kFlat, false,
       CrashDeathDropPlan, {{2, 1, 0, 1, 28, 15, 0, 16}, 23800, 1664, 20}},
      {"flat sparse crash/death/drop", GroupingMode::kFlat, true,
       CrashDeathDropPlan, {{2, 1, 0, 1, 28, 15, 0, 16}, 20483, 1664, 20}},
      {"hierarchical dense drop/delay", GroupingMode::kHierarchical, false,
       DropDelayPlan, {{0, 0, 0, 0, 7, 7, 18, 0}, 28000, 640, 20}},
      {"hierarchical sparse drop/delay", GroupingMode::kHierarchical, true,
       DropDelayPlan, {{0, 0, 0, 0, 7, 7, 18, 0}, 27400, 640, 20}},
      {"dynamic dense drop/delay", GroupingMode::kDynamicGroups, false,
       DropDelayPlan, {{0, 0, 0, 0, 13, 12, 17, 0}, 24000, 480, 20}},
      {"dynamic sparse drop/delay", GroupingMode::kDynamicGroups, true,
       DropDelayPlan, {{0, 0, 0, 0, 13, 12, 17, 0}, 23650, 480, 20}},
      {"hierarchical dense crash/death/drop", GroupingMode::kHierarchical,
       false, CrashDeathDropPlan, {{2, 3, 2, 5, 10, 8, 0, 21}, 23000, 550, 20}},
      {"hierarchical sparse crash/death/drop", GroupingMode::kHierarchical,
       true, CrashDeathDropPlan, {{2, 3, 2, 5, 10, 8, 0, 21}, 22170, 550, 20}},
      {"dynamic dense crash/death/drop", GroupingMode::kDynamicGroups, false,
       CrashDeathDropPlan, {{2, 3, 2, 5, 10, 9, 0, 21}, 19000, 419, 20}},
      {"dynamic sparse crash/death/drop", GroupingMode::kDynamicGroups, true,
       CrashDeathDropPlan, {{2, 3, 2, 5, 10, 9, 0, 21}, 18452, 419, 20}},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto cfg = BaseConfig(c.grouping);
    cfg.sparse_comm = c.sparse;
    cfg.cluster.fault = c.plan();
    ExpectPinned(PsraHgAdmm(cfg).Run(Problem(), Options(20)), c.pin);
  }
}

TEST(FaultPins, EmptiedSingletonGroupTakesNoChannel) {
  // Threshold 1: every report forms a one-node group on the spot, so a
  // leader dying right after its report empties a group that already
  // formed. That group runs no collective and must not take a fault
  // channel; otherwise every later group of the iteration draws its coins
  // on a shifted channel and the drop counts move.
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    auto cfg = BaseConfig(GroupingMode::kDynamicGroups);
    cfg.group_threshold = 1;
    cfg.sparse_comm = sparse;
    for (std::uint64_t it = 3; it <= 18; it += 3) {
      cfg.cluster.fault.leader_deaths.push_back(
          {static_cast<simnet::NodeId>(it % 4), it, /*down_iterations=*/1});
    }
    cfg.cluster.fault.message_drop_probability = 0.1;
    cfg.cluster.fault.max_retries = 12;
    cfg.cluster.fault.checkpoint_every = 3;
    const RunPin pin{{0, 6, 6, 12, 6, 6, 0, 6}, 14200u, 302, 20};
    ExpectPinned(PsraHgAdmm(cfg).Run(Problem(), Options(20)), pin);
  }
}

TEST(Faults, GadmmChainRecoversFromCrash) {
  const std::uint64_t iters = 24;
  GadmmConfig cfg;
  cfg.cluster.num_nodes = 2;
  cfg.cluster.workers_per_node = 2;
  const RunResult clean = Gadmm(cfg).Run(Problem4(), Options(iters));

  auto faulty_cfg = cfg;
  faulty_cfg.cluster.fault.crashes.push_back(
      {/*rank=*/1, /*at_iteration=*/6, /*down_iterations=*/3});
  faulty_cfg.cluster.fault.checkpoint_every = 4;
  const RunResult faulty = Gadmm(faulty_cfg).Run(Problem4(), Options(iters));

  EXPECT_EQ(faulty.faults.worker_crashes, 1u);
  EXPECT_EQ(faulty.faults.recoveries, 1u);
  EXPECT_EQ(faulty.faults.down_worker_iterations, 3u);
  EXPECT_TRUE(std::isfinite(faulty.final_objective));
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.05 * std::fabs(clean.final_objective));
}

TEST(Faults, AdAdmmRetransmitsDropsAndAbsorbsDelays) {
  const std::uint64_t iters = 20;
  AdAdmmConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  const RunResult clean = AdAdmm(cfg).Run(Problem(), Options(iters));

  auto faulty_cfg = cfg;
  faulty_cfg.cluster.fault.message_drop_probability = 0.2;
  faulty_cfg.cluster.fault.message_delay_probability = 0.3;
  faulty_cfg.cluster.fault.message_delay_s = 5e-4;
  const RunResult faulty = AdAdmm(faulty_cfg).Run(Problem(), Options(iters));

  EXPECT_GT(faulty.faults.dropped_messages, 0u);
  EXPECT_EQ(faulty.faults.retries, faulty.faults.dropped_messages);
  EXPECT_GT(faulty.faults.delayed_messages, 0u);
  EXPECT_GT(faulty.total_comm_time, clean.total_comm_time);
  EXPECT_EQ(faulty.iterations_run, clean.iterations_run);
  EXPECT_TRUE(std::isfinite(faulty.final_objective));
  // Late reports reshuffle the async barrier batches, but the bounded-delay
  // guarantee keeps the trajectory near the fault-free one.
  EXPECT_NEAR(faulty.final_objective, clean.final_objective,
              0.1 * std::fabs(clean.final_objective));
}

}  // namespace
}  // namespace psra::admm
