#include "wlg/group_generator.hpp"

#include <algorithm>
#include <numeric>

#include "support/status.hpp"

namespace psra::wlg {

GroupGenerator::GroupGenerator(std::uint32_t threshold,
                               std::uint32_t num_leaders)
    : threshold_(threshold), num_leaders_(num_leaders) {
  PSRA_REQUIRE(threshold >= 1, "grouping threshold must be at least 1");
  PSRA_REQUIRE(num_leaders >= 1, "need at least one leader");
  PSRA_REQUIRE(threshold <= num_leaders,
               "threshold larger than the number of leaders");
  reported_.assign(num_leaders, false);
  queue_.reserve(num_leaders);
}

bool GroupGenerator::ReportInto(simnet::NodeId node, simnet::VirtualTime t,
                                GroupBatch& out) {
  PSRA_REQUIRE(node < num_leaders_, "node id out of range");
  PSRA_REQUIRE(!reported_[node], "leader reported twice in one cycle");
  PSRA_REQUIRE(t >= last_report_time_,
               "reports must arrive in non-decreasing time order");
  reported_[node] = true;
  ++reports_this_cycle_;
  last_report_time_ = t;
  queue_.push_back(node);

  if (queue_.size() < threshold_) return false;

  out.PushGroup(queue_, t);
  queue_.clear();  // keeps capacity: the queue never reallocates in steady state

  if (reports_this_cycle_ == num_leaders_) {
    // Cycle complete with an exact fill; start the next cycle.
    reports_this_cycle_ = 0;
    last_report_time_ = 0.0;
    std::fill(reported_.begin(), reported_.end(), false);
  }
  return true;
}

bool GroupGenerator::EndCycleInto(GroupBatch& out) {
  const bool formed = !queue_.empty();
  if (formed) {
    out.PushGroup(queue_, last_report_time_);
    queue_.clear();
  }
  reports_this_cycle_ = 0;
  last_report_time_ = 0.0;
  std::fill(reported_.begin(), reported_.end(), false);
  return formed;
}

bool GroupGenerator::Withdraw(simnet::NodeId node) {
  PSRA_REQUIRE(node < num_leaders_, "node id out of range");
  const auto it = std::find(queue_.begin(), queue_.end(), node);
  if (it == queue_.end()) return false;
  queue_.erase(it);
  return true;
}

void RunGroupingCycle(GroupGenerator& gg, std::span<const LeaderReport> reports,
                      GroupWorkspace& ws) {
  // Replay reports and mid-round deaths in virtual-time order. Each event is
  // (time, kind, node); reports sort before deaths at equal times so a
  // leader that dies exactly when it reports still gets queued (and then
  // withdrawn), matching the "report, then die" narrative of the model.
  ws.groups.Clear();
  ws.events.clear();
  for (const auto& r : reports) {
    ws.events.push_back({r.time, 0, r.node, r.time});
    if (r.dies_at) {
      ws.events.push_back({std::max(*r.dies_at, r.time), 1, r.node, r.time});
    }
  }
  // (time, kind, node) is a total order — node ids are distinct per kind — so
  // plain sort is deterministic and, unlike stable_sort, allocation-free.
  std::sort(ws.events.begin(), ws.events.end(),
            [](const GroupWorkspace::CycleEvent& a,
               const GroupWorkspace::CycleEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.node < b.node;
            });

  for (const GroupWorkspace::CycleEvent& e : ws.events) {
    if (e.kind == 0) {
      (void)gg.ReportInto(e.node, e.report_time, ws.groups);
    } else {
      (void)gg.Withdraw(e.node);
    }
  }
  (void)gg.EndCycleInto(ws.groups);
}

void RunGroupingCycle(GroupGenerator& gg,
                      std::span<const simnet::VirtualTime> report_times,
                      GroupWorkspace& ws) {
  PSRA_REQUIRE(report_times.size() == gg.num_leaders(),
               "one report time per leader required");
  ws.groups.Clear();
  ws.order.resize(report_times.size());
  std::iota(ws.order.begin(), ws.order.end(), 0);
  // (time, node) is a total order over distinct node ids, so plain sort is
  // deterministic and allocation-free (stable_sort buys nothing here).
  std::sort(ws.order.begin(), ws.order.end(),
            [&](simnet::NodeId a, simnet::NodeId b) {
              if (report_times[a] != report_times[b]) {
                return report_times[a] < report_times[b];
              }
              return a < b;
            });

  for (simnet::NodeId n : ws.order) {
    (void)gg.ReportInto(n, report_times[n], ws.groups);
  }
  (void)gg.EndCycleInto(ws.groups);
}

}  // namespace psra::wlg
