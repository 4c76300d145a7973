// Tests for the virtual-time cluster model: topology, cost model, event
// queue, straggler injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "simnet/cost_model.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/straggler.hpp"
#include "simnet/topology.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::simnet {
namespace {

// -------------------------------------------------------------- topology ----

TEST(Topology, RankNodeMapping) {
  const Topology t(4, 3);
  EXPECT_EQ(t.world_size(), 12u);
  EXPECT_EQ(t.NodeOf(0), 0u);
  EXPECT_EQ(t.NodeOf(3), 1u);
  EXPECT_EQ(t.NodeOf(11), 3u);
  EXPECT_EQ(t.LocalIndexOf(7), 1u);
  EXPECT_EQ(t.RankOf(2, 2), 8u);
}

TEST(Topology, LinkClassification) {
  const Topology t(2, 2);
  EXPECT_EQ(t.LinkBetween(0, 0), Link::kLocal);
  EXPECT_EQ(t.LinkBetween(0, 1), Link::kIntraNode);
  EXPECT_EQ(t.LinkBetween(1, 2), Link::kInterNode);
  EXPECT_TRUE(t.SameNode(2, 3));
  EXPECT_FALSE(t.SameNode(1, 2));
}

TEST(Topology, RanksOnNode) {
  const Topology t(3, 2);
  EXPECT_EQ(t.RanksOnNode(1), (std::vector<Rank>{2, 3}));
}

TEST(Topology, RejectsBadArguments) {
  EXPECT_THROW(Topology(0, 1), InvalidArgument);
  EXPECT_THROW(Topology(1, 0), InvalidArgument);
  const Topology t(2, 2);
  EXPECT_THROW(t.NodeOf(4), InvalidArgument);
  EXPECT_THROW(t.RankOf(2, 0), InvalidArgument);
}

TEST(Topology, RackPartitioningIsContiguous) {
  const Topology t(8, 2, 4);  // 2 nodes per rack
  EXPECT_EQ(t.num_racks(), 4u);
  EXPECT_EQ(t.nodes_per_rack(), 2u);
  EXPECT_EQ(t.RackOf(0), 0u);
  EXPECT_EQ(t.RackOf(1), 0u);
  EXPECT_EQ(t.RackOf(7), 3u);
  EXPECT_EQ(t.RackOfRank(15), 3u);  // rank 15 lives on node 7
  EXPECT_TRUE(t.SameRack(0, 3));    // nodes 0 and 1 share rack 0
  EXPECT_FALSE(t.SameRack(3, 4));   // node 1 vs node 2
  EXPECT_EQ(t.NodesInRack(2), (std::vector<NodeId>{4, 5}));
}

TEST(Topology, LinkClassificationWithRacks) {
  const Topology t(4, 2, 2);
  EXPECT_EQ(t.LinkBetween(0, 1), Link::kIntraNode);  // same node
  EXPECT_EQ(t.LinkBetween(0, 2), Link::kInterNode);  // nodes 0-1, rack 0
  EXPECT_EQ(t.LinkBetween(0, 4), Link::kInterRack);  // nodes 0-2 cross rack
  // One rack (the default) never produces cross-rack links.
  const Topology flat(4, 2);
  EXPECT_EQ(flat.num_racks(), 1u);
  EXPECT_EQ(flat.LinkBetween(0, 6), Link::kInterNode);
}

TEST(Topology, RejectsBadRackCounts) {
  EXPECT_THROW(Topology(4, 1, 0), InvalidArgument);
  EXPECT_THROW(Topology(4, 1, 3), InvalidArgument);  // must divide nodes
  EXPECT_THROW(Topology(4, 1, 8), InvalidArgument);
}

// ------------------------------------------------------------ cost model ----

TEST(CostModel, SparseElementCostMatchesPaperFormula) {
  CostModelConfig cfg;
  cfg.net_bandwidth_bytes_per_s = 1e9;
  cfg.value_bytes = 8;
  cfg.index_bytes = 8;
  const CostModel cm(cfg);
  // theta_s = (value + index) / B
  EXPECT_DOUBLE_EQ(cm.SparseElementCost(Link::kInterNode), 16.0 / 1e9);
  EXPECT_DOUBLE_EQ(cm.DenseElementCost(Link::kInterNode), 8.0 / 1e9);
}

TEST(CostModel, BusIsFasterThanNetwork) {
  const CostModel cm;
  EXPECT_LT(cm.SparseElementCost(Link::kIntraNode),
            cm.SparseElementCost(Link::kInterNode));
  EXPECT_LT(cm.LatencyOf(Link::kIntraNode), cm.LatencyOf(Link::kInterNode));
}

TEST(CostModel, CrossRackFabricIsSlowerThanRackNetwork) {
  const CostModel cm;
  EXPECT_LT(cm.SparseElementCost(Link::kInterNode),
            cm.SparseElementCost(Link::kInterRack));
  EXPECT_LT(cm.LatencyOf(Link::kInterNode), cm.LatencyOf(Link::kInterRack));

  CostModelConfig cfg;
  cfg.rack_bandwidth_bytes_per_s = 1e8;
  cfg.rack_latency_s = 3e-5;
  const CostModel priced(cfg);
  EXPECT_DOUBLE_EQ(priced.SparseElementCost(Link::kInterRack), 16.0 / 1e8);
  EXPECT_DOUBLE_EQ(priced.DenseElementCost(Link::kInterRack), 8.0 / 1e8);
  EXPECT_DOUBLE_EQ(priced.SparseTransferTime(Link::kInterRack, 10),
                   3e-5 + 10 * 16.0 / 1e8);
}

TEST(CostModel, LocalTransfersAreFree) {
  const CostModel cm;
  EXPECT_DOUBLE_EQ(cm.SparseTransferTime(Link::kLocal, 1000), 0.0);
  EXPECT_DOUBLE_EQ(cm.DenseTransferTime(Link::kLocal, 1000), 0.0);
}

TEST(CostModel, TransferTimeIsLatencyPlusElements) {
  CostModelConfig cfg;
  cfg.net_latency_s = 1e-5;
  cfg.net_bandwidth_bytes_per_s = 1e9;
  const CostModel cm(cfg);
  EXPECT_DOUBLE_EQ(cm.SparseTransferTime(Link::kInterNode, 100),
                   1e-5 + 100 * 16.0 / 1e9);
  EXPECT_DOUBLE_EQ(cm.DenseTransferTime(Link::kInterNode, 0), 1e-5);
}

TEST(CostModel, ComputeTimeScalesWithFlops) {
  CostModelConfig cfg;
  cfg.seconds_per_flop = 2e-9;
  const CostModel cm(cfg);
  EXPECT_DOUBLE_EQ(cm.ComputeTime(1e6), 2e-3);
  EXPECT_THROW(cm.ComputeTime(-1.0), InvalidArgument);
}

TEST(CostModel, RejectsInvalidConfig) {
  CostModelConfig cfg;
  cfg.net_bandwidth_bytes_per_s = 0;
  EXPECT_THROW(CostModel{cfg}, InvalidArgument);
}

// ------------------------------------------------------------ event queue ----

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.0, [&] { order.push_back(0); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) q.ScheduleAfter(1.0, reschedule);
  };
  q.ScheduleAt(0.0, reschedule);
  q.Run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(q.Now(), 4.0);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.ScheduleAt(2.0, [] {});
  q.Run();
  EXPECT_THROW(q.ScheduleAt(1.0, [] {}), InvalidArgument);
  EXPECT_THROW(q.ScheduleAfter(-1.0, [] {}), InvalidArgument);
}

TEST(EventQueue, StepAndMaxEvents) {
  EventQueue q;
  int n = 0;
  for (int i = 0; i < 5; ++i) q.ScheduleAt(i, [&] { ++n; });
  EXPECT_EQ(q.Run(2), 2u);
  EXPECT_EQ(n, 2);
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(q.Pending(), 2u);
}

// ------------------------------------------------ (time, seq) schedules ----
// These tests pin the (time, insertion seq) order on schedules the simple
// tests above never build: thousands of random times with exact duplicates,
// near and far events mixed, far-future events, rescheduling from inside
// Step(), and unit-spaced times inserted out of order.

/// Records its index into a shared order log (16 bytes: fits the inline
/// record storage; avoids std::function so the tests also run under
/// test_alloc's assumptions).
struct LogEvent {
  std::vector<int>* order;
  int i;
  void operator()() const { order->push_back(i); }
};

/// Execution order must equal a stable sort by time — stable sort *is* the
/// (time, insertion-seq) tie-break.
void ExpectReferenceOrder(const std::vector<double>& times,
                          const std::vector<int>& order) {
  std::vector<int> expect(times.size());
  std::iota(expect.begin(), expect.end(), 0);
  std::stable_sort(expect.begin(), expect.end(),
                   [&](int a, int b) { return times[a] < times[b]; });
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, RandomizedScheduleMatchesHeapOrder) {
  // Times on a coarse grid force exact duplicates (seq tie-break) among
  // thousands of distinct times.
  Rng rng(2024);
  EventQueue q;
  constexpr int kEvents = 5000;
  std::vector<double> times(kEvents);
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    times[i] = 1e-7 * static_cast<double>(rng.NextBelow(4000));
    q.ScheduleAt(times[i], LogEvent{&order, i});
  }
  EXPECT_EQ(q.Run(), static_cast<std::size_t>(kEvents));
  ExpectReferenceOrder(times, order);
}

TEST(EventQueue, RandomizedScheduleAcrossTheOverflowBoundary) {
  // Half the events land within 10 ms on a 1 us grid, half on a coarse 1 ms
  // grid out to 200 ms: near and far events interleave in one schedule, and
  // both grids produce exact duplicates.
  Rng rng(7);
  EventQueue q;
  constexpr int kEvents = 4000;
  std::vector<double> times(kEvents);
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    times[i] = (i % 2 == 0)
                   ? 1e-6 * static_cast<double>(rng.NextBelow(10000))
                   : 1e-3 * static_cast<double>(rng.NextBelow(200));
    q.ScheduleAt(times[i], LogEvent{&order, i});
  }
  EXPECT_EQ(q.Run(), static_cast<std::size_t>(kEvents));
  ExpectReferenceOrder(times, order);
}

TEST(EventQueue, SameQuantumOrdersByExactTime) {
  // Two events a microsecond apart; scheduling the later one first must
  // not matter.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.5e-6, LogEvent{&order, 1});
  q.ScheduleAt(0.5e-6, LogEvent{&order, 0});
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, TinyWheelWrapsAndMigratesOverflow) {
  // 300 unit-spaced times (1 ms apart) inserted in a stride-7 permutation
  // that wraps the 300 ms range seven times; order must hold.
  EventQueue q;
  std::vector<double> times;
  std::vector<int> order;
  for (int i = 0; i < 300; ++i) {
    times.push_back(1e-3 * static_cast<double>((i * 7) % 300));
    q.ScheduleAt(times.back(), LogEvent{&order, i});
  }
  EXPECT_EQ(q.Run(), 300u);
  ExpectReferenceOrder(times, order);
}

TEST(EventQueue, EmptyWheelJumpsToFarFutureEvent) {
  // A single event far in the future runs at its own time, with nothing
  // scheduled before it.
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(1000.0, [&ran] { ran = true; });
  EXPECT_EQ(q.Run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(q.Now(), 1000.0);
}

TEST(EventQueue, CallbackReschedulingBeyondTheHorizon) {
  // Each hop reschedules itself a full second later from inside Step(),
  // while its own record is being run, into an otherwise empty queue.
  EventQueue q;
  struct Hop {
    EventQueue* q;
    int* hops;
    void operator()() const {
      if (--*hops > 0) q->ScheduleAfter(1.0, *this);
    }
  };
  int hops = 10;
  q.ScheduleAt(0.0, Hop{&q, &hops});
  EXPECT_EQ(q.Run(), 10u);
  EXPECT_EQ(hops, 0);
  EXPECT_DOUBLE_EQ(q.Now(), 9.0);
}

TEST(EventQueue, TenThousandActorDrainStress) {
  // 10k concurrent self-rescheduling actors, about 80x the most events
  // AD-ADMM keeps pending. Verifies full drain, the exact event count, and
  // that virtual time never runs backwards.
  EventQueue q;
  constexpr int kActors = 10000;
  constexpr int kHops = 5;
  struct Actor {
    EventQueue* q;
    double* last_now;
    std::uint64_t state;
    int hops;
    void operator()() {
      EXPECT_GE(q->Now(), *last_now);
      *last_now = q->Now();
      if (--hops == 0) return;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const double delay = 1e-6 + static_cast<double>(state >> 44) * 1e-9;
      q->ScheduleAfter(delay, *this);
    }
  };
  double last_now = 0.0;
  for (int a = 0; a < kActors; ++a) {
    const double start = 1e-9 * static_cast<double>(a % 97);
    q.ScheduleAt(start, Actor{&q, &last_now, static_cast<std::uint64_t>(a),
                              kHops});
  }
  EXPECT_EQ(q.Pending(), static_cast<std::size_t>(kActors));
  EXPECT_EQ(q.Run(), static_cast<std::size_t>(kActors) * kHops);
  EXPECT_TRUE(q.Empty());
}

// -------------------------------------------------------------- straggler ----

TEST(Straggler, DisabledModelIsIdentity) {
  const Topology t(4, 2);
  const auto m = StragglerModel::None(t);
  EXPECT_FALSE(m.enabled());
  for (Rank r = 0; r < t.world_size(); ++r) {
    EXPECT_DOUBLE_EQ(m.ComputeMultiplier(r, 3), 1.0);
  }
  EXPECT_TRUE(m.StragglingNodes(1).empty());
}

TEST(Straggler, SameNodeWorkersShareFate) {
  const Topology t(8, 4);
  StragglerConfig cfg;
  cfg.node_probability = 0.5;
  const StragglerModel m(t, cfg);
  for (std::uint64_t it = 0; it < 10; ++it) {
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      const auto ranks = t.RanksOnNode(n);
      const double first = m.ComputeMultiplier(ranks[0], it);
      for (Rank r : ranks) {
        EXPECT_DOUBLE_EQ(m.ComputeMultiplier(r, it), first);
      }
    }
  }
}

TEST(Straggler, MultiplierWithinConfiguredRange) {
  const Topology t(16, 1);
  StragglerConfig cfg;
  cfg.node_probability = 1.0;
  cfg.slow_factor_min = 2.0;
  cfg.slow_factor_max = 3.0;
  const StragglerModel m(t, cfg);
  for (Rank r = 0; r < 16; ++r) {
    const double mult = m.ComputeMultiplier(r, 1);
    EXPECT_GE(mult, 2.0);
    EXPECT_LE(mult, 3.0);
  }
}

TEST(Straggler, FrequencyMatchesProbability) {
  const Topology t(32, 1);
  StragglerConfig cfg;
  cfg.node_probability = 0.25;
  const StragglerModel m(t, cfg);
  std::size_t total = 0;
  const std::uint64_t iters = 200;
  for (std::uint64_t it = 0; it < iters; ++it) {
    total += m.StragglingNodes(it).size();
  }
  const double rate = static_cast<double>(total) / (32.0 * iters);
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(Straggler, DeterministicAcrossInstances) {
  const Topology t(8, 2);
  StragglerConfig cfg;
  cfg.node_probability = 0.3;
  cfg.seed = 77;
  const StragglerModel a(t, cfg), b(t, cfg);
  for (std::uint64_t it = 0; it < 20; ++it) {
    EXPECT_EQ(a.StragglingNodes(it), b.StragglingNodes(it));
  }
}

TEST(Straggler, RejectsBadConfig) {
  const Topology t(2, 1);
  StragglerConfig cfg;
  cfg.node_probability = 1.5;
  EXPECT_THROW(StragglerModel(t, cfg), InvalidArgument);
  cfg.node_probability = 0.5;
  cfg.slow_factor_min = 0.5;
  EXPECT_THROW(StragglerModel(t, cfg), InvalidArgument);
  cfg.slow_factor_min = 3.0;
  cfg.slow_factor_max = 2.0;
  EXPECT_THROW(StragglerModel(t, cfg), InvalidArgument);
}

// ----------------------------------------------------------------- fault ----

TEST(FaultPlan, DefaultConstructedIsEmpty) {
  EXPECT_TRUE(FaultPlan().Empty());
  EXPECT_TRUE(FaultPlan(FaultConfig{}).Empty());
  // Non-scheduling knobs do not make a plan non-empty.
  FaultConfig cfg;
  cfg.seed = 777;
  cfg.max_retries = 9;
  cfg.checkpoint_every = 2;
  EXPECT_TRUE(FaultPlan(cfg).Empty());
  // Delay probability without a delay duration schedules nothing.
  cfg.message_delay_probability = 0.5;
  EXPECT_TRUE(FaultPlan(cfg).Empty());
  cfg.message_delay_s = 1e-3;
  EXPECT_FALSE(FaultPlan(cfg).Empty());
}

TEST(FaultPlan, CrashWindowQueries) {
  FaultConfig cfg;
  cfg.crashes.push_back({/*rank=*/2, /*at_iteration=*/5,
                         /*down_iterations=*/3});
  cfg.crashes.push_back({/*rank=*/4, /*at_iteration=*/2,
                         /*down_iterations=*/0});  // never recovers
  const FaultPlan plan(cfg);
  EXPECT_FALSE(plan.Empty());

  EXPECT_FALSE(plan.IsDown(2, 4));
  EXPECT_TRUE(plan.IsDown(2, 5));
  EXPECT_TRUE(plan.IsDown(2, 7));
  EXPECT_FALSE(plan.IsDown(2, 8));
  EXPECT_TRUE(plan.CrashesAt(2, 5));
  EXPECT_FALSE(plan.CrashesAt(2, 6));
  ASSERT_TRUE(plan.CrashAt(2, 5).has_value());
  EXPECT_EQ(plan.CrashAt(2, 5)->down_iterations, 3u);
  EXPECT_FALSE(plan.CrashAt(2, 4).has_value());
  EXPECT_TRUE(plan.RecoversAt(2, 8));
  EXPECT_FALSE(plan.RecoversAt(2, 7));

  EXPECT_TRUE(plan.IsDown(4, 2));
  EXPECT_TRUE(plan.IsDown(4, 1000));  // permanent
  for (std::uint64_t it = 1; it < 20; ++it) EXPECT_FALSE(plan.RecoversAt(4, it));
  EXPECT_FALSE(plan.IsDown(0, 5));  // other ranks untouched
}

TEST(FaultPlan, LeaderDeathLookup) {
  FaultConfig cfg;
  cfg.leader_deaths.push_back({/*node=*/1, /*at_iteration=*/7,
                               /*down_iterations=*/2});
  const FaultPlan plan(cfg);
  ASSERT_TRUE(plan.LeaderDeathAt(1, 7).has_value());
  EXPECT_EQ(plan.LeaderDeathAt(1, 7)->down_iterations, 2u);
  EXPECT_FALSE(plan.LeaderDeathAt(1, 6).has_value());
  EXPECT_FALSE(plan.LeaderDeathAt(0, 7).has_value());
}

TEST(FaultPlan, DropCoinsAreDeterministicAndPerAttempt) {
  FaultConfig cfg;
  cfg.message_drop_probability = 0.5;
  const FaultPlan a(cfg), b(cfg);

  std::size_t drops = 0, attempt_flips = 0;
  for (std::uint64_t it = 1; it <= 40; ++it) {
    for (Rank r = 0; r < 4; ++r) {
      const bool da = a.DropsMessage(it, 0, r, 0);
      EXPECT_EQ(da, b.DropsMessage(it, 0, r, 0));  // pure function of args
      if (da) ++drops;
      if (da != a.DropsMessage(it, 0, r, 1)) ++attempt_flips;
    }
  }
  // p=0.5 over 160 coins: both outcomes occur, and the attempt number
  // re-randomizes the coin (otherwise retries could never succeed).
  EXPECT_GT(drops, 40u);
  EXPECT_LT(drops, 120u);
  EXPECT_GT(attempt_flips, 0u);

  FaultConfig other = cfg;
  other.seed = cfg.seed + 1;
  const FaultPlan c(other);
  std::size_t diff = 0;
  for (std::uint64_t it = 1; it <= 40; ++it) {
    if (a.DropsMessage(it, 0, 0, 0) != c.DropsMessage(it, 0, 0, 0)) ++diff;
  }
  EXPECT_GT(diff, 0u);  // the seed matters
}

TEST(FaultPlan, MessageDelayIsAllOrNothing) {
  FaultConfig cfg;
  cfg.message_delay_probability = 0.4;
  cfg.message_delay_s = 2.5e-3;
  const FaultPlan plan(cfg);
  std::size_t delayed = 0, total = 0;
  for (std::uint64_t it = 1; it <= 50; ++it) {
    for (Rank s = 0; s < 3; ++s) {
      const VirtualTime d = plan.MessageDelay(it, 1, s, 0);
      EXPECT_TRUE(d == 0.0 || d == cfg.message_delay_s);
      if (d > 0.0) ++delayed;
      ++total;
    }
  }
  EXPECT_GT(delayed, 0u);
  EXPECT_LT(delayed, total);
}

TEST(FaultPlan, RejectsBadConfig) {
  FaultConfig cfg;
  cfg.message_drop_probability = 1.0;  // would retry forever
  EXPECT_THROW(FaultPlan{cfg}, InvalidArgument);
  cfg.message_drop_probability = 0.2;
  cfg.retry_timeout_s = 0.0;
  EXPECT_THROW(FaultPlan{cfg}, InvalidArgument);
  cfg.retry_timeout_s = 1e-3;
  cfg.checkpoint_every = 0;
  EXPECT_THROW(FaultPlan{cfg}, InvalidArgument);
  cfg.checkpoint_every = 10;
  cfg.crashes.push_back({/*rank=*/0, /*at_iteration=*/0,
                         /*down_iterations=*/1});  // iterations are 1-based
  EXPECT_THROW(FaultPlan{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace psra::simnet
