// Tests for leader election and the Group Generator (paper Section 4.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "support/status.hpp"
#include "wlg/group_generator.hpp"
#include "wlg/leader.hpp"

namespace psra::wlg {
namespace {

using simnet::NodeId;
using simnet::Rank;
using simnet::Topology;

/// Members of every group in `batch`, in formation order.
std::vector<std::vector<NodeId>> Members(const GroupBatch& batch) {
  std::vector<std::vector<NodeId>> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto members = batch.members(batch.group(i));
    out.emplace_back(members.begin(), members.end());
  }
  return out;
}

/// One grouping cycle over every leader's report time.
GroupBatch TimeCycle(GroupGenerator& gg,
                     const std::vector<simnet::VirtualTime>& times) {
  GroupWorkspace ws;
  RunGroupingCycle(gg, times, ws);
  return ws.groups;
}

/// One fault-aware grouping cycle over the given leader reports.
GroupBatch FaultyCycle(GroupGenerator& gg,
                       const std::vector<LeaderReport>& reports) {
  GroupWorkspace ws;
  RunGroupingCycle(gg, reports, ws);
  return ws.groups;
}

// ---------------------------------------------------------------- leader ----

TEST(Leader, LowestRankPolicy) {
  const Topology t(2, 4);
  const auto ranks = t.RanksOnNode(1);  // {4,5,6,7}
  EXPECT_EQ(ElectLeader(t, ranks), 4u);
}

TEST(Leader, RejectsMixedNodesAndEmpty) {
  const Topology t(2, 2);
  const std::vector<Rank> mixed{1, 2};
  EXPECT_THROW(ElectLeader(t, mixed), InvalidArgument);
  const std::vector<Rank> empty;
  EXPECT_THROW(ElectLeader(t, empty), InvalidArgument);
}

// ------------------------------------------------------- group generator ----

TEST(GroupGenerator, FormsGroupAtThreshold) {
  GroupGenerator gg(3, 6);
  GroupBatch batch;
  EXPECT_FALSE(gg.ReportInto(0, 1.0, batch));
  EXPECT_FALSE(gg.ReportInto(1, 2.0, batch));
  ASSERT_TRUE(gg.ReportInto(2, 3.0, batch));
  EXPECT_EQ(Members(batch), (std::vector<std::vector<NodeId>>{{0, 1, 2}}));
  EXPECT_DOUBLE_EQ(batch.group(0).formed_at, 3.0);
  EXPECT_EQ(gg.QueueDepth(), 0u);
}

TEST(GroupGenerator, PaperFigure3Scenario) {
  // 6 nodes, threshold 3: leaders 0,1,2 then 3,4,5 form two groups.
  GroupGenerator gg(3, 6);
  const auto formed = TimeCycle(gg, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(Members(formed),
            (std::vector<std::vector<NodeId>>{{0, 1, 2}, {3, 4, 5}}));
}

TEST(GroupGenerator, GroupsByArrivalOrderNotNodeId) {
  GroupGenerator gg(2, 4);
  // Node 3 is fastest, node 0 slowest.
  const auto formed = TimeCycle(gg, {40.0, 20.0, 30.0, 10.0});
  EXPECT_EQ(Members(formed),
            (std::vector<std::vector<NodeId>>{{3, 1}, {2, 0}}));
  EXPECT_DOUBLE_EQ(formed.group(0).formed_at, 20.0);
  EXPECT_DOUBLE_EQ(formed.group(1).formed_at, 40.0);
}

TEST(GroupGenerator, ResidualFormsSmallerFinalGroup) {
  GroupGenerator gg(3, 5);
  const auto formed = TimeCycle(gg, {1, 2, 3, 4, 5});
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed.group(0).size, 3u);
  EXPECT_EQ(formed.group(1).size, 2u);  // residual flushed at cycle end
}

TEST(GroupGenerator, TieBreaksByNodeId) {
  GroupGenerator gg(2, 4);
  const auto formed = TimeCycle(gg, {5.0, 5.0, 5.0, 5.0});
  EXPECT_EQ(Members(formed),
            (std::vector<std::vector<NodeId>>{{0, 1}, {2, 3}}));
}

TEST(GroupGenerator, CycleResetsAfterAllReport) {
  GroupGenerator gg(2, 2);
  ASSERT_EQ(TimeCycle(gg, {1.0, 2.0}).size(), 1u);
  // A fresh cycle must accept the same nodes again.
  const auto formed = TimeCycle(gg, {3.0, 4.0});
  ASSERT_EQ(formed.size(), 1u);
  EXPECT_DOUBLE_EQ(formed.group(0).formed_at, 4.0);
}

TEST(GroupGenerator, DoubleReportInOneCycleThrows) {
  GroupGenerator gg(3, 4);
  GroupBatch batch;
  gg.ReportInto(1, 1.0, batch);
  EXPECT_THROW(gg.ReportInto(1, 2.0, batch), InvalidArgument);
}

TEST(GroupGenerator, OutOfOrderTimeThrows) {
  GroupGenerator gg(3, 4);
  GroupBatch batch;
  gg.ReportInto(0, 5.0, batch);
  EXPECT_THROW(gg.ReportInto(1, 4.0, batch), InvalidArgument);
}

TEST(GroupGenerator, EndCycleOnEmptyQueueReturnsNothing) {
  GroupGenerator gg(2, 2);
  GroupBatch batch;
  EXPECT_FALSE(gg.EndCycleInto(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(GroupGenerator, ThresholdOneMakesSingletonGroups) {
  GroupGenerator gg(1, 3);
  const auto formed = TimeCycle(gg, {1.0, 2.0, 3.0});
  ASSERT_EQ(formed.size(), 3u);
  for (std::size_t i = 0; i < formed.size(); ++i) {
    EXPECT_EQ(formed.group(i).size, 1u);
  }
}

TEST(GroupGenerator, ThresholdEqualNodesActsAsFullBarrier) {
  GroupGenerator gg(4, 4);
  const auto formed = TimeCycle(gg, {4.0, 3.0, 2.0, 1.0});
  ASSERT_EQ(formed.size(), 1u);
  EXPECT_EQ(formed.group(0).size, 4u);
  EXPECT_DOUBLE_EQ(formed.group(0).formed_at, 4.0);
}

TEST(GroupGenerator, RejectsBadConstruction) {
  EXPECT_THROW(GroupGenerator(0, 4), InvalidArgument);
  EXPECT_THROW(GroupGenerator(5, 4), InvalidArgument);
}

TEST(GroupGenerator, EveryNodeAppearsExactlyOncePerCycle) {
  GroupGenerator gg(3, 8);
  const auto formed = TimeCycle(gg, {8, 1, 6, 2, 7, 3, 5, 4});
  std::multiset<NodeId> seen;
  for (const auto& members : Members(formed)) {
    seen.insert(members.begin(), members.end());
  }
  EXPECT_EQ(seen.size(), 8u);
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(seen.count(n), 1u);
}

// --------------------------------------------------- faults / regrouping ----

TEST(Leader, ReElectionExcludesTheDeadLeader) {
  const Topology t(2, 4);
  const auto ranks = t.RanksOnNode(1);  // {4,5,6,7}; original leader 4
  EXPECT_EQ(ElectLeader(t, ranks), 4u);
  // Re-election runs over the survivors, so the lowest live rank leads.
  const std::vector<Rank> alive{5, 6, 7};
  EXPECT_EQ(ElectLeader(t, alive), 5u);
}

TEST(GroupGenerator, WithdrawRemovesQueuedReporter) {
  GroupGenerator gg(2, 4);
  GroupBatch batch;
  EXPECT_FALSE(gg.ReportInto(0, 1.0, batch));
  EXPECT_EQ(gg.QueueDepth(), 1u);
  EXPECT_TRUE(gg.Withdraw(0));
  EXPECT_EQ(gg.QueueDepth(), 0u);
  EXPECT_FALSE(gg.Withdraw(0));  // already gone

  // The withdrawn slot is refilled by later reporters.
  EXPECT_FALSE(gg.ReportInto(1, 2.0, batch));
  ASSERT_TRUE(gg.ReportInto(2, 3.0, batch));
  EXPECT_EQ(Members(batch), (std::vector<std::vector<NodeId>>{{1, 2}}));
  EXPECT_DOUBLE_EQ(batch.group(0).formed_at, 3.0);
}

TEST(GroupGenerator, WithdrawAfterFormationReturnsFalse) {
  GroupGenerator gg(2, 4);
  GroupBatch batch;
  gg.ReportInto(0, 1.0, batch);
  ASSERT_TRUE(gg.ReportInto(1, 2.0, batch));
  EXPECT_FALSE(gg.Withdraw(0));  // its group already formed
}

TEST(GroupGenerator, FaultyCycleRegroupsAroundLeaderDeath) {
  // Node 0 reports first and dies immediately after: the GG withdraws it,
  // so nodes 1+2 pair up and node 3 forms the residual group.
  GroupGenerator gg(2, 4);
  std::vector<LeaderReport> reports{
      {.node = 0, .time = 1.0, .dies_at = 1.0},
      {.node = 1, .time = 2.0, .dies_at = std::nullopt},
      {.node = 2, .time = 3.0, .dies_at = std::nullopt},
      {.node = 3, .time = 4.0, .dies_at = std::nullopt},
  };
  const auto formed = FaultyCycle(gg, reports);
  EXPECT_EQ(Members(formed), (std::vector<std::vector<NodeId>>{{1, 2}, {3}}));
  EXPECT_DOUBLE_EQ(formed.group(0).formed_at, 3.0);
}

TEST(GroupGenerator, FaultyCycleKeepsGroupsFormedBeforeTheDeath) {
  // Node 0's group forms at t=2; its death at t=5 cannot unform it — the
  // caller handles the dead member downstream.
  GroupGenerator gg(2, 4);
  std::vector<LeaderReport> reports{
      {.node = 0, .time = 1.0, .dies_at = 5.0},
      {.node = 1, .time = 2.0, .dies_at = std::nullopt},
      {.node = 2, .time = 6.0, .dies_at = std::nullopt},
      {.node = 3, .time = 7.0, .dies_at = std::nullopt},
  };
  const auto formed = FaultyCycle(gg, reports);
  EXPECT_EQ(Members(formed),
            (std::vector<std::vector<NodeId>>{{0, 1}, {2, 3}}));
}

TEST(GroupGenerator, FaultyCycleWithSubsetOfLeaders) {
  // Dead nodes simply do not report; the survivors still group and the
  // residual flushes at end of cycle.
  GroupGenerator gg(2, 4);
  std::vector<LeaderReport> reports{
      {.node = 2, .time = 1.5, .dies_at = std::nullopt},
      {.node = 0, .time = 2.5, .dies_at = std::nullopt},
      {.node = 3, .time = 3.5, .dies_at = std::nullopt},
  };
  const auto formed = FaultyCycle(gg, reports);
  EXPECT_EQ(Members(formed), (std::vector<std::vector<NodeId>>{{2, 0}, {3}}));
}

// ------------------------------------------------------- group workspace ----

TEST(GroupWorkspace, FaultAwareCycleMatchesReportTimeCycle) {
  // The engine forms dynamic groups through the fault-aware overload on
  // every run. Fed every node and no deaths, it must form exactly the groups
  // of the report-time overload: same membership, same order, same
  // formed_at bits, ties included, for every threshold and whatever order
  // the reports arrive in.
  const std::vector<std::vector<simnet::VirtualTime>> cases{
      {5, 1, 7, 2, 8, 3, 6, 4},
      {3, 3, 1, 3, 2, 2, 3, 1},  // ties across and within groups
      {4, 4, 4, 4, 4, 4, 4, 4},  // one tie spanning every node
      {0.5, 0.25, 0.75, 0.125, 0.5, 0.25, 0.875, 0.125},
  };
  for (const auto& times : cases) {
    const auto n = static_cast<std::uint32_t>(times.size());
    for (std::uint32_t threshold = 1; threshold <= n; ++threshold) {
      GroupGenerator gg_times(threshold, n);
      const GroupBatch expected = TimeCycle(gg_times, times);

      std::vector<LeaderReport> reports;
      for (NodeId node = 0; node < n; ++node) {
        reports.push_back(
            {.node = node, .time = times[node], .dies_at = std::nullopt});
      }
      for (int order = 0; order < 2; ++order) {
        if (order == 1) std::reverse(reports.begin(), reports.end());
        // One generator across two cycles, as the engine keeps it.
        GroupGenerator gg_reports(threshold, n);
        for (int cycle = 0; cycle < 2; ++cycle) {
          const GroupBatch formed = FaultyCycle(gg_reports, reports);
          SCOPED_TRACE("threshold " + std::to_string(threshold) + " order " +
                       std::to_string(order) + " cycle " +
                       std::to_string(cycle));
          EXPECT_EQ(Members(formed), Members(expected));
          ASSERT_EQ(formed.size(), expected.size());
          for (std::size_t g = 0; g < formed.size(); ++g) {
            EXPECT_EQ(formed.group(g).formed_at, expected.group(g).formed_at);
          }
        }
      }
    }
  }
}

TEST(GroupWorkspace, ClearKeepsStorageAcrossCycles) {
  // Steady state: after the first cycle the batch never reallocates —
  // Clear() keeps capacity and group sizes repeat, so re-running the same
  // shape of cycle reuses the flat arrays (data() stays put).
  GroupGenerator gg(2, 6);
  const std::vector<simnet::VirtualTime> times{1, 2, 3, 4, 5, 6};
  GroupWorkspace ws;
  RunGroupingCycle(gg, times, ws);
  ASSERT_EQ(ws.groups.size(), 3u);
  const GroupView before = ws.groups.group(0);
  const simnet::NodeId* data_before = ws.groups.members(before).data();

  RunGroupingCycle(gg, times, ws);
  ASSERT_EQ(ws.groups.size(), 3u);
  EXPECT_EQ(ws.groups.members(ws.groups.group(0)).data(), data_before);
}

TEST(GroupWorkspace, ReportIntoFormsAtThreshold) {
  GroupGenerator gg(3, 6);
  GroupBatch batch;
  batch.Reserve(6);
  EXPECT_FALSE(gg.ReportInto(0, 1.0, batch));
  EXPECT_FALSE(gg.ReportInto(1, 2.0, batch));
  EXPECT_TRUE(gg.ReportInto(2, 3.0, batch));
  ASSERT_EQ(batch.size(), 1u);
  const auto members = batch.members(batch.group(0));
  EXPECT_EQ(std::vector<NodeId>(members.begin(), members.end()),
            (std::vector<NodeId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(batch.group(0).formed_at, 3.0);

  // Residual flush at end of cycle.
  EXPECT_FALSE(gg.ReportInto(3, 4.0, batch));
  EXPECT_TRUE(gg.EndCycleInto(batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.members(batch.group(1)).size(), 1u);
}

}  // namespace
}  // namespace psra::wlg
