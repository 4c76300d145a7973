// Group Generator (GG) with buffer queue GQ — paper Section 4.3.2.
//
// Leaders report to the GG when their node finishes its local computation;
// the GG pushes each reporter into the queue GQ and, whenever GQ reaches the
// grouping threshold, pops those leaders as one communication group G_inter
// and notifies them to synchronize. A grouping cycle spans one ADMM
// iteration: once every leader has reported, any residual reporters (fewer
// than the threshold, e.g. when the node count is not divisible) form a
// final smaller group and the next cycle begins.
//
// Formation times are virtual: a group forms at the report time of its last
// member, so fast nodes group with fast nodes and never wait for the global
// straggler — the mechanism behind Figure 7.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "simnet/cost_model.hpp"
#include "simnet/topology.hpp"
#include "wlg/group_workspace.hpp"

namespace psra::wlg {

class GroupGenerator {
 public:
  /// `threshold` leaders form a group (>= 1); `num_leaders` total leaders in
  /// the cluster (for cycle tracking).
  GroupGenerator(std::uint32_t threshold, std::uint32_t num_leaders);

  std::uint32_t threshold() const { return threshold_; }
  std::uint32_t num_leaders() const { return num_leaders_; }

  /// Leader of `node` reports at virtual time `t`. Reports within one cycle
  /// must be delivered in non-decreasing time order (the cycle runners sort
  /// arrivals). When this report fills the queue the formed group is
  /// appended to `out` and true is returned; the buffer queue keeps its
  /// capacity, so reporting is allocation-free in steady state.
  bool ReportInto(simnet::NodeId node, simnet::VirtualTime t, GroupBatch& out);

  /// Appends the residual queue contents to `out` as a final (smaller)
  /// group, if the queue is not empty, and resets the cycle either way.
  /// Returns true when a group was appended.
  bool EndCycleInto(GroupBatch& out);

  /// Leader of `node` died after reporting but before its group formed: the
  /// GG drops it from the buffer queue, so later reporters take its place
  /// (the regrouping path of the fault model). Returns false when the node
  /// is not queued — its group already formed, and the death must be handled
  /// downstream by the collective layer.
  bool Withdraw(simnet::NodeId node);

  std::size_t QueueDepth() const { return queue_.size(); }

 private:
  std::uint32_t threshold_;
  std::uint32_t num_leaders_;
  std::uint32_t reports_this_cycle_ = 0;
  std::vector<simnet::NodeId> queue_;  // GQ
  simnet::VirtualTime last_report_time_ = 0.0;
  std::vector<bool> reported_;  // per-node guard within a cycle
};

/// Runs one full grouping cycle given every leader's report time
/// (deterministic: ties broken by node id). The formed groups land in
/// ws.groups (cleared first) and the sort scratch lives in `ws`, so a
/// workspace reused across iterations performs no heap allocations in steady
/// state.
void RunGroupingCycle(GroupGenerator& gg,
                      std::span<const simnet::VirtualTime> report_times,
                      GroupWorkspace& ws);

/// One leader's report in a faulty cycle. `dies_at`, when set, is the
/// virtual time the leader dies mid-round: if it dies while still queued the
/// GG withdraws it (regrouping); if its group already formed the formation
/// is returned as-is and the caller excludes the dead member downstream.
struct LeaderReport {
  simnet::NodeId node = 0;
  simnet::VirtualTime time = 0.0;
  std::optional<simnet::VirtualTime> dies_at;
};

/// Fault-aware grouping cycle over a SUBSET of leaders (dead nodes simply do
/// not report). Report and death events are replayed in virtual-time order
/// (ties: reports first, then by node id), so the regrouped memberships are
/// deterministic. With every leader reporting and none dying it forms
/// exactly the groups of the report-time overload above. The event scratch
/// and formed groups live in `ws`, as above.
void RunGroupingCycle(GroupGenerator& gg, std::span<const LeaderReport> reports,
                      GroupWorkspace& ws);

}  // namespace psra::wlg
