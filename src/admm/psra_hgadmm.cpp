#include "admm/psra_hgadmm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "admm/checkpoint.hpp"
#include "admm/instrument.hpp"
#include "comm/hierarchical.hpp"
#include "comm/intranode.hpp"
#include "simnet/fault.hpp"
#include "support/log.hpp"
#include "support/status.hpp"
#include "wlg/group_generator.hpp"
#include "wlg/leader.hpp"

namespace psra::admm {

std::string GroupingModeName(GroupingMode mode) {
  switch (mode) {
    case GroupingMode::kFlat: return "flat";
    case GroupingMode::kHierarchical: return "hierarchical";
    case GroupingMode::kDynamicGroups: return "dynamic";
  }
  return "?";
}

PsraHgAdmm::PsraHgAdmm(const PsraConfig& config) : cfg_(config) {
  PSRA_REQUIRE(config.cluster.num_nodes >= 1 &&
                   config.cluster.workers_per_node >= 1,
               "empty cluster");
}

std::string PsraHgAdmm::Name() const {
  const auto alg = MakeAllreduce(cfg_.allreduce)->Name();
  switch (cfg_.grouping) {
    case GroupingMode::kFlat: return "PSRA-ADMM(" + alg + ")";
    case GroupingMode::kHierarchical: return "HGADMM-nogroup(" + alg + ")";
    case GroupingMode::kDynamicGroups: return "PSRA-HGADMM(" + alg + ")";
  }
  return "?";
}

namespace {

/// Per-run workspace for the inter-node allreduce: the collective's scratch
/// and the result fields. One instance lives across all iterations of Run,
/// so the steady-state exchange is allocation-free.
struct InterWorkspace {
  comm::AllreduceScratch scratch;
  comm::CommStats stats;
  /// Dense group sum (the aggregate W); finish times live in stats.
  linalg::DenseVector sum;
  /// The sum's entry count: its nonzeros with sparse comm, else its size.
  std::size_t result_nnz = 0;
};

/// Every metric slot the PSRA engine updates, hoisted once per run so the
/// per-iteration updates are plain integer adds.
struct PsraMetrics {
  CollectiveMetrics coll;
  obs::Histogram* group_size = nullptr;
  obs::Histogram* gg_wait_s = nullptr;
  obs::Histogram* recovery_s = nullptr;
  std::uint64_t* gg_reports = nullptr;
  std::uint64_t* gg_notifies = nullptr;
  std::uint64_t* groups_formed = nullptr;
  std::uint64_t* rack_bcast_elements = nullptr;
  std::uint64_t* rack_bcast_messages = nullptr;
  std::uint64_t* rack_bcast_bytes = nullptr;

  /// Multi-rack runs only: the rack leaders' redistribution of the global
  /// sum (stage 3 of the recursive collective). Hoisted separately so
  /// single-rack runs keep their metric key set unchanged.
  void HoistRack(obs::MetricsRegistry& m) {
    rack_bcast_elements = &m.Counter("comm.rack.bcast.elements");
    rack_bcast_messages = &m.Counter("comm.rack.bcast.messages");
    rack_bcast_bytes = &m.Counter("comm.rack.bcast.bytes");
  }

  void Hoist(obs::MetricsRegistry& m, const std::string& alg_name, bool sparse,
             double dim) {
    coll.Hoist(m, alg_name, sparse, dim);
    static constexpr double kSizeBounds[] = {1, 2, 4, 8, 16, 32};
    static constexpr double kTimeBounds[] = {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    group_size = &m.Histo("wlg.group_size", kSizeBounds);
    gg_wait_s = &m.Histo("wlg.gg_wait_s", kTimeBounds);
    recovery_s = &m.Histo("fault.recovery_latency_s", kTimeBounds);
    gg_reports = &m.Counter("comm.gg.reports");
    gg_notifies = &m.Counter("comm.gg.notifies");
    groups_formed = &m.Counter("wlg.groups_formed");
  }
};

/// Adds one fault context's message-level counters to the run totals.
void AddMessageFaults(const comm::FaultContext& fc, FaultStats& faults) {
  faults.dropped_messages += fc.dropped_messages;
  faults.retries += fc.retries;
  faults.delayed_messages += fc.delayed_messages;
}

/// Runs one inter-node allreduce over `w_inputs`, one per group member,
/// priced by their nonzeros with sparse comm. Leaves the dense sum, its
/// entry count, per-member finish times and traffic in `ws`. It runs as one
/// collective over `group` under `fc` (a null or empty plan is exactly the
/// fault-free collective), or, with a non-null `ml`, as the recursive
/// node -> rack -> cluster collective, which takes no faults.
void RunInterAllreduce(const comm::AllreduceAlgorithm& alg, bool sparse_comm,
                       std::span<const linalg::DenseVector> w_inputs,
                       std::span<const simnet::VirtualTime> starts,
                       const comm::GroupComm* group, comm::FaultContext* fc,
                       comm::MultiLevelAllreduce* ml, InterWorkspace& ws) {
  if (sparse_comm) {
    ws.result_nnz =
        ml != nullptr
            ? ml->ReduceSparse(alg, w_inputs, starts, ws.scratch, ws.sum,
                               ws.stats)
            : alg.ReduceSparse(*group, w_inputs, starts, ws.scratch, ws.sum,
                               ws.stats, fc);
  } else {
    if (ml != nullptr) {
      ml->ReduceDense(alg, w_inputs, starts, ws.scratch, ws.sum, ws.stats);
    } else {
      alg.ReduceDense(*group, w_inputs, starts, ws.scratch, ws.sum, ws.stats,
                      fc);
    }
    ws.result_nnz = ws.sum.size();
  }
}

/// One formed group's collective context: the member nodes and leaders,
/// their start times, the communicator, the fault context, and the
/// allreduce workspace. Slots are recycled across regrouping cycles by
/// GroupSlotArena below, so a steady-state iteration leases fully warmed
/// buffers.
struct GroupSlot {
  InterWorkspace iw;
  comm::FaultContext fc;  // channel = the slot's place in formation order
  std::vector<simnet::NodeId> members;  // member nodes, group order
  std::vector<simnet::Rank> leaders;    // member leaders, group order
  // The member nodes' aggregates, swapped in for the collective and back out
  // after it.
  std::vector<linalg::DenseVector> inputs;
  std::vector<simnet::VirtualTime> starts;
  std::optional<comm::GroupComm> comm;  // rebound in place on reuse
  simnet::VirtualTime start = 0.0;      // earliest collective start
  std::uint64_t contributors = 0;       // workers behind the group sum
  double wall = 0.0;  // measured host seconds of the collective (traced)
};

/// Size-keyed free lists of GroupSlots. Dynamic grouping re-forms groups
/// every iteration but the multiset of group SIZES is fixed by the threshold
/// arithmetic, so leasing by size hands every group a slot whose buffers
/// (scratch, inputs, communicator storage) already have exactly the right
/// capacity — zero allocations once each size has been seen once.
class GroupSlotArena {
 public:
  explicit GroupSlotArena(std::size_t max_groups) {
    leased_.reserve(max_groups);
    leased_sizes_.reserve(max_groups);
  }

  GroupSlot& Lease(std::size_t group_size) {
    if (free_.size() <= group_size) free_.resize(group_size + 1);
    auto& bucket = free_[group_size];
    if (bucket.empty()) {
      slots_.push_back(std::make_unique<GroupSlot>());
      bucket.push_back(slots_.size() - 1);
    }
    const std::size_t idx = bucket.back();
    bucket.pop_back();
    leased_.push_back(idx);
    leased_sizes_.push_back(group_size);
    return *slots_[idx];
  }

  /// Returns every leased slot to its size bucket (end of iteration).
  void RecycleAll() {
    for (std::size_t k = 0; k < leased_.size(); ++k) {
      free_[leased_sizes_[k]].push_back(leased_[k]);
    }
    leased_.clear();
    leased_sizes_.clear();
  }

 private:
  std::vector<std::unique_ptr<GroupSlot>> slots_;
  std::vector<std::vector<std::size_t>> free_;  // indexed by group size
  std::vector<std::size_t> leased_;
  std::vector<std::size_t> leased_sizes_;
};

}  // namespace

RunResult PsraHgAdmm::Run(const ConsensusProblem& problem,
                          const RunOptions& options) const {
  const simnet::Topology topo(cfg_.cluster.num_nodes,
                              cfg_.cluster.workers_per_node,
                              cfg_.cluster.num_racks);
  PSRA_REQUIRE(problem.num_workers() == topo.world_size(),
               "problem must be partitioned into one shard per worker");
  const simnet::CostModel cost(cfg_.cluster.cost);
  const simnet::StragglerModel stragglers(topo, cfg_.cluster.straggler);
  const simnet::FaultPlan faults(cfg_.cluster.fault);
  const bool faulty = !faults.Empty();
  // With several racks the fixed hierarchical group runs its leader
  // collective recursively (per rack, then across rack leaders). Flat and
  // dynamic grouping still work across racks — their collectives simply pay
  // kInterRack link costs where members straddle racks.
  const bool multi_rack = topo.num_racks() > 1 &&
                          cfg_.grouping == GroupingMode::kHierarchical;
  PSRA_REQUIRE(!(multi_rack && faulty),
               "the recursive multi-rack collective does not support fault "
               "injection; use one rack (or flat/dynamic grouping)");

  const auto world = static_cast<std::size_t>(topo.world_size());
  const auto nodes = cfg_.cluster.num_nodes;
  const std::uint32_t threshold =
      cfg_.group_threshold != 0 ? cfg_.group_threshold
                                : std::max<std::uint32_t>(1, nodes / 2);

  WorkerSet ws(&problem, &options);
  // Warm start: seed (x, y, z, rho) from a restored checkpoint and resume
  // right after its iteration; 1 (a cold start) otherwise.
  const std::uint64_t first_iter = ApplyWarmStart(ws, options) + 1;
  engine::TimeLedger ledger(world);
  const auto alg = MakeAllreduce(cfg_.allreduce);

  RunResult result;
  result.algorithm = Name();

  // ---- Observability -----------------------------------------------------
  // Every instrumentation site below sits behind eo.on() / eo.tracing() (a
  // single pointer test with no sink installed), and only OBSERVES ledger
  // clocks and collective stats — an instrumented run is bitwise-identical
  // to an uninstrumented one (pinned by test_obs).
  EngineObs eo(options.obs, world);
  PsraMetrics pm;
  obs::TrackId gg_track = 0;
  if (eo.on()) {
    pm.Hoist(eo.metrics(), alg->Name(), cfg_.sparse_comm,
             static_cast<double>(problem.dim()));
    if (multi_rack) pm.HoistRack(eo.metrics());
    if (cfg_.grouping == GroupingMode::kDynamicGroups) {
      gg_track = eo.AddAuxTrack("group generator");
    }
  }
  // Convergence timeline (DESIGN.md §13): the shared row core — ts.bytes
  // sums the traffic of every channel (inter-group allreduce, intra-node
  // reduce/bcast, rack bcast) — plus the group churn and collective rounds.
  RunEpilogue epi(eo, problem, options, result, ResidualSeries::kPrimalDual,
                  {pm.coll.bytes, pm.coll.reduce_bytes, pm.coll.bcast_bytes,
                   pm.rack_bcast_bytes});
  CounterDelta active_groups(eo, "ts.active_groups", {pm.coll.invocations});
  CounterDelta regroups(eo, "ts.regroup_events", {pm.groups_formed});
  CounterDelta rounds(eo, "ts.rounds", {pm.coll.rounds});

  // Per-node structures: member ranks and the leader elected at start.
  std::vector<std::vector<simnet::Rank>> node_ranks(nodes);
  std::vector<simnet::Rank> leaders(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) {
    node_ranks[n] = topo.RanksOnNode(n);
    leaders[n] = wlg::ElectLeader(topo, node_ranks[n]);
  }
  // Per-node views the iteration reads: live ranks, current leader and the
  // intra-node communicator over the live ranks. They equal the static
  // structures above unless a worker is down; the fault bookkeeping narrows
  // them (and re-elects leaders) at the start of a faulty iteration.
  std::vector<std::vector<simnet::Rank>> node_alive(node_ranks);
  std::vector<simnet::Rank> cur_leaders(leaders);
  std::vector<comm::GroupComm> intra;
  intra.reserve(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) {
    intra.emplace_back(&topo, &cost, node_ranks[n]);
  }
  // Inter-node transfers optionally run in mixed precision: fp32 values on
  // the wire (4 bytes) instead of fp64.
  simnet::CostModelConfig inter_cost_cfg = cfg_.cluster.cost;
  if (cfg_.mixed_precision) inter_cost_cfg.value_bytes = 4;
  const simnet::CostModel cost_inter(inter_cost_cfg);
  // Recursive node -> rack -> cluster collective over the leaders (the
  // hierarchical group has fixed membership, so this is built once).
  std::optional<comm::MultiLevelAllreduce> mlar;
  if (multi_rack) mlar.emplace(&topo, &cost_inter, leaders);

  wlg::GroupGenerator gg(threshold, nodes);
  // Payload of a grouping request / notify message to or from the GG.
  constexpr double kRequestBytes = 64;
  const simnet::VirtualTime request_cost =
      cost.LatencyOf(simnet::Link::kInterNode) +
      kRequestBytes / cost.BandwidthOf(simnet::Link::kInterNode) +
      cfg_.gg_service_time_s;

  std::vector<double> flops(world, 0.0);
  linalg::DenseVector z_prev_mean(static_cast<std::size_t>(problem.dim()),
                                  0.0);
  // Warm start: the dual-residual reference is the restored consensus mean —
  // exactly what the uninterrupted run holds entering this iteration — so a
  // split run's residuals (and timeline rows) match the full run's.
  if (first_iter > 1) ws.MeanZInto(z_prev_mean);

  // ---- Hoisted per-run workspaces --------------------------------------
  // Everything a steady-state iteration needs is sized here (or on first
  // use) and recycled, so the flat dense hot path performs no heap
  // allocations after warm-up.
  InterWorkspace iw;
  std::vector<simnet::Rank> everyone(world);
  for (std::size_t i = 0; i < world; ++i) {
    everyone[i] = static_cast<simnet::Rank>(i);
  }
  std::optional<comm::GroupComm> flat_global;
  if (cfg_.grouping == GroupingMode::kFlat) {
    flat_global.emplace(&topo, &cost_inter, everyone);
  }
  std::vector<linalg::DenseVector> inputs;  // member w snapshots
  std::vector<simnet::VirtualTime> starts;
  // Hierarchical/dynamic scratch: per-node reduce results (plus survivor
  // start times for a node with a worker down), the pooled group lifecycle
  // (cycle batch + size-keyed collective slots) and the cross-group
  // consensus-update work list.
  const auto wpn = static_cast<std::size_t>(cfg_.cluster.workers_per_node);
  std::vector<comm::ReduceResult> red(nodes);
  std::vector<std::vector<simnet::VirtualTime>> node_starts(nodes);
  comm::BroadcastResult bc;
  std::vector<simnet::VirtualTime> leader_ready(nodes);
  std::vector<simnet::VirtualTime> report(nodes);
  std::vector<simnet::NodeId> active_nodes;
  std::vector<wlg::LeaderReport> leader_reports;
  active_nodes.reserve(nodes);
  leader_reports.reserve(nodes);
  wlg::GroupWorkspace gws;
  gws.groups.Reserve(nodes);
  std::vector<simnet::VirtualTime> all_starts(world);
  GroupSlotArena garena(nodes);
  std::vector<GroupSlot*> gslots;
  gslots.reserve(nodes);
  // Consensus groups: each group's updating workers, flattened in group order.
  std::vector<simnet::Rank> zy_ranks_flat;
  std::vector<std::size_t> zy_begin;
  std::vector<WorkerSet::ConsensusGroup> zy_groups;
  zy_ranks_flat.reserve(world);
  zy_begin.reserve(nodes + 1);
  zy_groups.reserve(nodes);
  std::vector<double> xw_wall;  // per-worker x-update host seconds (traced)
  std::vector<double> red_wall;  // per-node intra-reduce host seconds
  std::vector<double> zy_wall;   // per-worker consensus-update host seconds
  if (options.obs != nullptr && options.obs->tracing) {
    xw_wall.assign(world, 0.0);
    red_wall.assign(nodes, 0.0);
    zy_wall.assign(world, 0.0);
  }

  // Communication censoring (COLA-ADMM style): senders ship deltas against
  // their last transmission and skip negligible ones; every participant
  // folds the aggregated deltas into a shared running sum.
  const bool censoring = cfg_.censor_threshold > 0.0;
  PSRA_REQUIRE(!censoring || cfg_.grouping != GroupingMode::kDynamicGroups,
               "censoring requires fixed membership (kFlat/kHierarchical)");
  const std::size_t num_senders =
      cfg_.grouping == GroupingMode::kFlat ? world : nodes;
  const auto d_sz = static_cast<std::size_t>(problem.dim());
  std::vector<linalg::DenseVector> last_sent;
  linalg::DenseVector W_running;
  // Delta scratch, one per concurrent sender: the hierarchical node phase
  // censors every node on the pool; the flat path's serial loop uses [0].
  std::vector<linalg::DenseVector> censor_scratch;
  std::vector<char> node_censored(nodes, 0);
  if (censoring) {
    last_sent.assign(num_senders, linalg::DenseVector(d_sz, 0.0));
    W_running.assign(d_sz, 0.0);
    censor_scratch.resize(nodes);
  }
  // Replaces the sender's raw aggregate with its delta (or zero when
  // censored) and reports whether it was censored.
  auto apply_censoring = [&](std::size_t sender, std::uint64_t iter,
                             linalg::DenseVector& value,
                             linalg::DenseVector& scratch) {
    linalg::Subtract(value, last_sent[sender], scratch);
    const double tau = cfg_.censor_threshold *
                       std::pow(cfg_.censor_decay, static_cast<double>(iter));
    if (linalg::Norm2(scratch) < tau) {
      linalg::SetZero(scratch);
      value = scratch;
      return true;
    }
    last_sent[sender] = value;
    value = scratch;
    return false;
  };

  PSRA_REQUIRE(!(censoring && faulty),
               "communication censoring is incompatible with fault injection "
               "(its running sum needs every sender in every round)");

  // ---- Fault-injection state -------------------------------------------
  // Bookkeeping only runs on faulty runs; with an empty plan every view
  // keeps the static topology and the iteration body computes exactly the
  // fault-free result (pinned by test_determinism).
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  comm::FaultContext fctx;  // the flat collective's; group slots own theirs
  fctx.plan = faulty ? &faults : nullptr;
  RunCheckpoint ckpt;
  std::vector<char> down_now;        // 1 = worker currently down
  std::vector<std::uint64_t> up_at;  // recovery iteration (kNever = none)
  std::vector<simnet::Rank> alive(everyone);  // view: the live workers
  // Node sits out the rest of this round: its leader died mid-round, or its
  // group's collective excluded it after exhausting retries.
  std::vector<char> node_out(nodes, 0);
  std::optional<comm::GroupComm> flat_sub;  // survivor group, flat mode
  std::vector<simnet::Rank> zy_ranks;
  if (faulty) {
    down_now.assign(world, 0);
    up_at.assign(world, kNever);
    // Iteration-0 checkpoint: a worker crashing before the first periodic
    // capture restarts from the common initial state.
    CaptureRunCheckpoint(ws, 0, everyone, ckpt,
                         eo.on() ? &eo.metrics() : nullptr);
  }
  // A recovering worker refetches its checkpointed vectors (x, y, z) over
  // the network on top of the fixed respawn delay.
  const simnet::VirtualTime recovery_transfer =
      cost.DenseTransferTime(simnet::Link::kInterNode, 3 * d_sz);
  // The elected leader of node `n` dies mid-round: it drops out of the rest
  // of this iteration and stays down like a crashed worker afterwards.
  auto kill_leader_mid_round = [&](simnet::NodeId n,
                                   const simnet::LeaderDeathSpec& death,
                                   std::uint64_t it) {
    const auto li = static_cast<std::size_t>(cur_leaders[n]);
    down_now[li] = 1;
    up_at[li] =
        death.down_iterations == 0 ? kNever : it + 1 + death.down_iterations;
    node_out[n] = 1;
    ++result.faults.leader_deaths;
    PSRA_SLOG(kWarn, "fault").At(ledger[li].clock)
        << "leader " << li << " of node " << n << " died mid-round, iter "
        << it;
  };

  // Baseline the delta-series counters on whatever setup traffic is already
  // booked, so every ts.* delta is pure per-iteration traffic — which is
  // what makes a warm-started run's rows match the uninterrupted run's.
  epi.BaselineBytes();
  active_groups.Baseline();
  regroups.Baseline();
  rounds.Baseline();

  for (std::uint64_t iter = first_iter; iter <= options.max_iterations;
       ++iter) {
    result.iterations_run = iter;
    eo.MarkAll(ledger);

    // ---- Fault bookkeeping: recoveries, fresh crashes, per-node views ----
    bool any_down = false;
    if (faulty) {
      fctx.iteration = iter;
      for (std::size_t i = 0; i < world; ++i) {
        const auto r = static_cast<simnet::Rank>(i);
        if (down_now[i] != 0 && up_at[i] == iter) {
          // Crash-restart: restore the last checkpoint, pay the respawn
          // delay plus the virtual transfer of the checkpointed vectors.
          // Dead time itself is skipped, not booked — it is neither
          // computation nor communication.
          const WorkerCheckpoint& wc = ckpt.workers[i];
          ws.RestoreWorker(i, wc.x, wc.y, wc.z);
          ledger.SkipUntil(i, ledger.MaxClock());
          ledger.ChargeCompute(i, cfg_.cluster.fault.restart_delay_s);
          ledger.ChargeComm(i, recovery_transfer);
          down_now[i] = 0;
          up_at[i] = kNever;
          ++result.faults.recoveries;
          PSRA_SLOG(kInfo, "fault").At(ledger[i].clock)
              << "worker " << i << " recovered from checkpoint at iter "
              << iter;
          if (eo.on()) {
            pm.recovery_s->Observe(ledger[i].clock - eo.mark(i));
            eo.Span("fault_recover", ledger, i, iter);
          }
        }
        if (const auto crash = faults.CrashAt(r, iter);
            crash && down_now[i] == 0) {
          down_now[i] = 1;
          up_at[i] = crash->down_iterations == 0
                         ? kNever
                         : iter + crash->down_iterations;
          ++result.faults.worker_crashes;
          PSRA_SLOG(kWarn, "fault").At(ledger[i].clock)
              << "worker " << i << " crashed at iter " << iter
              << (crash->down_iterations == 0
                      ? " (permanent)"
                      : " (crash-restart)");
        }
        if (down_now[i] != 0) {
          any_down = true;
          ++result.faults.down_worker_iterations;
        }
      }
      alive.clear();
      for (std::size_t i = 0; i < world; ++i) {
        if (down_now[i] == 0) alive.push_back(static_cast<simnet::Rank>(i));
      }
      PSRA_REQUIRE(!alive.empty(), "fault plan left no live worker");
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        node_alive[n].clear();
        for (const simnet::Rank r : node_ranks[n]) {
          if (down_now[static_cast<std::size_t>(r)] == 0) {
            node_alive[n].push_back(r);
          }
        }
        node_out[n] = 0;
        if (node_alive[n].empty()) continue;
        simnet::Rank lead = leaders[n];
        if (down_now[static_cast<std::size_t>(lead)] != 0) {
          lead = wlg::ElectLeader(topo, node_alive[n]);
        }
        if (lead != cur_leaders[n]) {
          ++result.faults.leader_reelections;
          PSRA_SLOG(kInfo, "wlg")
              .At(ledger[static_cast<std::size_t>(lead)].clock)
              << "node " << n << " re-elected leader " << lead << " (was "
              << cur_leaders[n] << ") at iter " << iter;
          cur_leaders[n] = lead;
        }
        if (intra[n].members() != node_alive[n]) intra[n].Rebind(node_alive[n]);
      }
    }

    // ---- x / w updates (parallel local computation, paper Alg. 1) --------
    // Only live workers compute. On traced runs each worker's host seconds
    // are measured inside the pooled loop (per-thread stopwatches), so the
    // trace attributes wall time to the worker that spent it rather than an
    // even split.
    std::vector<double>* const wall = eo.tracing() ? &xw_wall : nullptr;
    ws.XWStepAll(alive, flops, wall);
    for (const simnet::Rank r : alive) {
      const auto i = static_cast<std::size_t>(r);
      const double mult =
          ComputeMultiplier(cfg_.cluster, stragglers, r, iter);
      ledger.ChargeCompute(i, cost.ComputeTime(flops[i]) * mult);
    }
    if (wall != nullptr) {
      eo.SpanAllWall("x_update", ledger, iter, xw_wall);
    } else {
      eo.SpanAll("x_update", ledger, iter);
    }

    if (cfg_.grouping == GroupingMode::kFlat) {
      // ---- PSRA-ADMM: one global allreduce over all workers --------------
      // The collective only reads its inputs, so the workers' materialized
      // w vectors go in directly; a private snapshot is taken only when
      // mixed precision or censoring must rewrite the payload first. On
      // faulty runs with a worker down, the collective degrades to the
      // survivor set.
      const bool degraded = any_down;
      const bool mutate_inputs = cfg_.mixed_precision || censoring;
      const comm::GroupComm* group = &*flat_global;
      std::span<const linalg::DenseVector> w_inputs;
      if (degraded) {
        if (!flat_sub.has_value() || flat_sub->members() != alive) {
          flat_sub.emplace(&topo, &cost_inter, alive);
        }
        group = &*flat_sub;
        inputs.resize(alive.size());
        starts.resize(alive.size());
        for (std::size_t m = 0; m < alive.size(); ++m) {
          const auto i = static_cast<std::size_t>(alive[m]);
          inputs[m] = ws.w(i);
          if (cfg_.mixed_precision) linalg::RoundToFloat(inputs[m]);
          starts[m] = ledger[i].clock;
        }
        w_inputs = inputs;
      } else {
        starts.resize(world);
        if (mutate_inputs) {
          inputs.resize(world);
          for (std::size_t i = 0; i < world; ++i) {
            inputs[i] = ws.w(i);
            if (cfg_.mixed_precision) linalg::RoundToFloat(inputs[i]);
            if (censoring &&
                apply_censoring(i, iter, inputs[i], censor_scratch[0])) {
              ++result.censored_sends;
            }
          }
          w_inputs = inputs;
        } else {
          w_inputs = ws.w_all();
        }
        for (std::size_t i = 0; i < world; ++i) starts[i] = ledger[i].clock;
      }
      RunInterAllreduce(*alg, cfg_.sparse_comm, w_inputs, starts, group, &fctx,
                        nullptr, iw);
      if (eo.on()) pm.coll.BookAllreduce(iw.stats, iw.result_nnz);
      result.elements_sent += iw.stats.elements_sent;
      result.messages_sent += iw.stats.messages_sent;
      if (censoring) {
        linalg::Axpy(1.0, iw.sum, W_running);
        iw.sum = W_running;
      }
      // The collective's members are exactly the live workers, in order.
      for (std::size_t m = 0; m < alive.size(); ++m) {
        ledger.WaitUntil(static_cast<std::size_t>(alive[m]),
                         iw.stats.finish_times[m]);
      }
      if (eo.tracing()) {
        // w_allreduce on each participant's track, with the collective's
        // scatter-reduce / allgather stages nested inside where they fall
        // within the participant's own [start, finish] window.
        const simnet::VirtualTime sr = iw.stats.scatter_reduce_done;
        for (const simnet::Rank r : alive) {
          const auto i = static_cast<std::size_t>(r);
          const simnet::VirtualTime b = eo.mark(i);
          const simnet::VirtualTime e = ledger[i].clock;
          if (sr > b && sr < e) {
            eo.SpanAt("scatter_reduce", i, b, sr, iter);
            eo.SpanAt("allgather", i, sr, e, iter);
          }
          eo.Span("w_allreduce", ledger, i, iter);
        }
      }
      // Consensus update over this round's participants. Members the
      // collective excluded after exhausting retries keep their state
      // frozen for the round, like a worker that timed out.
      std::span<const simnet::Rank> participants(alive);
      if (!fctx.excluded.empty()) {
        zy_ranks.clear();
        std::size_t e = 0;
        for (std::size_t m = 0; m < participants.size(); ++m) {
          if (e < fctx.excluded.size() &&
              fctx.excluded[e] == static_cast<comm::GroupRank>(m)) {
            ++e;
            continue;
          }
          zy_ranks.push_back(participants[m]);
        }
        participants = zy_ranks;
      }
      ws.ZYStepAll(participants, iw.sum,
                   static_cast<std::uint64_t>(participants.size()), flops,
                   wall != nullptr ? &zy_wall : nullptr);
      for (const simnet::Rank r : participants) {
        ledger.ChargeCompute(static_cast<std::size_t>(r),
                             cost.ComputeTime(flops[r]));
      }
      if (eo.tracing()) {
        for (const simnet::Rank r : participants) {
          const auto i = static_cast<std::size_t>(r);
          eo.SpanWall("z_y_update", ledger, i, iter, zy_wall[i]);
        }
      }
    } else {
      // ---- Hierarchical/dynamic: PSRA-HGADMM (paper Alg. 1-3) -------------
      // Each phase (intra-node reduce, inter-group allreduce, consensus
      // update) is ONE ParallelFor over nodes or formed groups, whose bodies
      // only read the ledger and write node- or slot-local state. Ledger
      // charges, metrics and spans then replay serially in node or formation
      // order; nodes and groups are disjoint, so every observable stream is
      // the one a one-at-a-time loop would produce. Faulty runs take the same
      // flow over the live views (node_alive, cur_leaders, intra).
      for (std::size_t i = 0; i < world; ++i) all_starts[i] = ledger[i].clock;
      const bool walled = wall != nullptr;  // measured wall attribution on
      auto reduce_node = [&](std::size_t n) {
        const auto& members = node_alive[n];
        if (members.empty()) return;  // every worker on the node is down
        const double t0 = walled ? engine::ThreadPool::ThreadSeconds() : 0.0;
        // Node n owns the contiguous rank range [n*wpn, (n+1)*wpn), so a
        // whole node reads its workers' start times in place; a node with a
        // worker down gathers its survivors' instead. The members' w sum
        // comes from their shared bases and overlays, in member order.
        std::span<const simnet::VirtualTime> st =
            std::span<const simnet::VirtualTime>(all_starts).subspan(n * wpn,
                                                                     wpn);
        if (members.size() != wpn) {
          node_starts[n].resize(members.size());
          for (std::size_t m = 0; m < members.size(); ++m) {
            node_starts[n][m] = all_starts[members[m]];
          }
          st = node_starts[n];
        }
        red[n].member_nnz.resize(members.size());
        ws.NodeSumW(n, members, red[n].value, red[n].member_nnz);
        comm::PriceReduceToLeader(intra[n],
                                  intra[n].LocalRank(cur_leaders[n]), st, d_sz,
                                  red[n], cfg_.sparse_comm);
        // The node's collective input, prepared here once: censor, then
        // round to fp32 (mixed precision). The group collective reads it in
        // place.
        linalg::DenseVector& agg = red[n].value;
        if (censoring) {
          node_censored[n] = apply_censoring(n, iter, agg, censor_scratch[n]);
        }
        if (cfg_.mixed_precision) linalg::RoundToFloat(agg);
        if (walled) red_wall[n] = engine::ThreadPool::ThreadSeconds() - t0;
      };
      if (options.pool != nullptr) {
        options.pool->ParallelFor(static_cast<std::size_t>(nodes),
                                  reduce_node);
      } else {
        engine::SerialFor(static_cast<std::size_t>(nodes), reduce_node);
      }
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        const auto& members = node_alive[n];
        if (members.empty()) continue;
        const simnet::Rank lead = cur_leaders[n];
        result.elements_sent += red[n].elements_sent;
        result.messages_sent += red[n].messages_sent;
        for (std::size_t m = 0; m < members.size(); ++m) {
          ledger.WaitUntil(members[m], red[n].finish_times[m]);
        }
        ledger.WaitUntil(lead, red[n].leader_ready);
        if (eo.on()) {
          pm.coll.BookReduce(red[n]);
          if (eo.tracing()) {
            // The node's measured reduce wall is shared evenly among its
            // members (the pool thread did the whole node's reduce at once).
            const double share =
                red_wall[n] / static_cast<double>(members.size());
            for (std::size_t m = 0; m < members.size(); ++m) {
              eo.SpanWall("intra_reduce", ledger,
                          static_cast<std::size_t>(members[m]), iter, share);
            }
          }
        }
        if (censoring) result.censored_sends += node_censored[n];
        leader_ready[n] = ledger[lead].clock;
      }

      // ---- Group formation into the pooled cycle batch ---------------------
      // Only nodes with a live worker take part. A leader dying mid-round
      // drops its node from the round: the hierarchical group is formed
      // without it, and the GG withdraws it if it is still queued.
      if (cfg_.grouping == GroupingMode::kHierarchical) {
        simnet::VirtualTime all_ready = 0.0;
        active_nodes.clear();
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          if (node_alive[n].empty()) continue;
          if (const auto death = faults.LeaderDeathAt(n, iter)) {
            kill_leader_mid_round(n, *death, iter);
            continue;
          }
          active_nodes.push_back(n);
          all_ready = std::max(all_ready, leader_ready[n]);
        }
        gws.groups.Clear();
        gws.groups.PushGroup(active_nodes, all_ready);
      } else {
        // Leaders report to the GG (one small message each, paper Alg. 3).
        leader_reports.clear();
        for (simnet::NodeId n = 0; n < nodes; ++n) {
          if (node_alive[n].empty()) continue;
          const simnet::Rank lead = cur_leaders[n];
          ledger.ChargeComm(lead, request_cost);
          ++result.messages_sent;
          report[n] = ledger[lead].clock;
          wlg::LeaderReport lr;
          lr.node = n;
          lr.time = report[n];
          if (const auto death = faults.LeaderDeathAt(n, iter)) {
            lr.dies_at = report[n];  // dies right after reporting
            kill_leader_mid_round(n, *death, iter);
          }
          leader_reports.push_back(lr);
          if (eo.on()) {
            ++*pm.gg_reports;
            eo.Span("gg_report", ledger, static_cast<std::size_t>(lead),
                    iter);
          }
        }
        wlg::RunGroupingCycle(gg, leader_reports, gws);
        for (std::size_t gi = 0; gi < gws.groups.size(); ++gi) {
          const wlg::GroupView& view = gws.groups.group(gi);
          const auto gmembers = gws.groups.members(view);
          // GG notifies the group members (one message back per leader).
          result.messages_sent += gmembers.size();
          if (eo.on()) {
            *pm.gg_notifies += gmembers.size();
            if (eo.tracing()) {
              simnet::VirtualTime first = view.formed_at;
              for (const simnet::NodeId n : gmembers) {
                first = std::min(first, report[n]);
              }
              eo.AuxSpan(gg_track, "group_form", first, view.formed_at, iter);
            }
          }
          PSRA_SLOG(kDebug, "wlg").At(view.formed_at)
              << "group of " << gmembers.size() << " nodes formed, iter "
              << iter;
        }
      }

      // ---- Inter-node allreduce, one ParallelFor across all groups ---------
      // Every formed group leases a size-keyed slot (warm buffers, a
      // rebindable communicator, its own fault context) and the collectives
      // run concurrently. A slot's fault channel is its position among this
      // iteration's collectives in formation order, so fault coins do not
      // depend on which thread runs which group.
      garena.RecycleAll();
      gslots.clear();
      const bool dyn = cfg_.grouping == GroupingMode::kDynamicGroups;
      std::uint64_t channel = 0;
      for (std::size_t gi = 0; gi < gws.groups.size(); ++gi) {
        const wlg::GroupView& view = gws.groups.group(gi);
        const auto formed = gws.groups.members(view);
        // Leaders that died after their group formed sit the round out.
        const auto live = static_cast<std::size_t>(
            std::count_if(formed.begin(), formed.end(),
                          [&](simnet::NodeId n) { return node_out[n] == 0; }));
        if (live == 0) continue;  // no collective, so no channel either
        GroupSlot& slot = garena.Lease(live);
        slot.members.clear();
        for (const simnet::NodeId n : formed) {
          if (node_out[n] == 0) slot.members.push_back(n);
        }
        // Dynamic groups start after the GG's notify message; the fixed
        // hierarchical group starts as soon as every leader is ready.
        slot.start = dyn ? view.formed_at + request_cost : view.formed_at;
        slot.fc.plan = fctx.plan;
        slot.fc.iteration = iter;
        slot.fc.channel = channel++;
        slot.fc.dropped_messages = 0;
        slot.fc.retries = 0;
        slot.fc.delayed_messages = 0;
        gslots.push_back(&slot);
      }
      // The collective reads the node aggregates in place: each member's is
      // swapped into the slot's input vector for the call and back after
      // it, so every buffer keeps its owner (and its capacity).
      auto swap_inputs = [&](GroupSlot& slot) {
        for (std::size_t j = 0; j < slot.members.size(); ++j) {
          std::swap(slot.inputs[j], red[slot.members[j]].value);
        }
      };
      auto run_group = [&](std::size_t gi) {
        GroupSlot& slot = *gslots[gi];
        const double t0 = walled ? engine::ThreadPool::ThreadSeconds() : 0.0;
        const std::size_t gsize = slot.members.size();
        slot.leaders.resize(gsize);
        slot.inputs.resize(gsize);
        slot.starts.resize(gsize);
        slot.contributors = 0;
        for (std::size_t j = 0; j < gsize; ++j) {
          const simnet::NodeId n = slot.members[j];
          slot.leaders[j] = cur_leaders[n];
          slot.starts[j] = std::max(slot.start, ledger[slot.leaders[j]].clock);
          slot.contributors += node_alive[n].size();
        }
        // With several racks the one hierarchical group spanning every node
        // runs the collective recursively (per rack, then across rack
        // leaders). mlar is shared state, but multi_rack implies exactly one
        // group per cycle (and no fault plan).
        if (!multi_rack && slot.comm.has_value()) {
          slot.comm->Rebind(slot.leaders);
        } else if (!multi_rack) {
          slot.comm.emplace(&topo, &cost_inter, slot.leaders);
        }
        swap_inputs(slot);
        RunInterAllreduce(*alg, cfg_.sparse_comm, slot.inputs, slot.starts,
                          slot.comm ? &*slot.comm : nullptr, &slot.fc,
                          mlar ? &*mlar : nullptr, slot.iw);
        swap_inputs(slot);
        if (walled) slot.wall = engine::ThreadPool::ThreadSeconds() - t0;
      };
      if (options.pool != nullptr) {
        options.pool->ParallelFor(gslots.size(), run_group);
      } else {
        engine::SerialFor(gslots.size(), run_group);
      }

      // Serial replay: metrics, leader waits, and the intra-node broadcast,
      // group by group in formation order.
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        GroupSlot& slot = *gslots[gi];
        const std::size_t gsize = slot.members.size();
        if (eo.on()) {
          ++*pm.groups_formed;
          pm.group_size->Observe(static_cast<double>(gsize));
          for (std::size_t j = 0; j < gsize; ++j) {
            const auto li = static_cast<std::size_t>(slot.leaders[j]);
            pm.gg_wait_s->Observe(
                std::max(0.0, slot.starts[j] - ledger[li].clock));
            if (eo.tracing() && slot.starts[j] > eo.mark(li)) {
              eo.SpanAt("gg_wait", li, eo.mark(li), slot.starts[j], iter);
              eo.SetMark(li, slot.starts[j]);
            }
          }
          pm.coll.BookAllreduce(slot.iw.stats, slot.iw.result_nnz);
        }
        result.elements_sent += slot.iw.stats.elements_sent;
        result.messages_sent += slot.iw.stats.messages_sent;
        AddMessageFaults(slot.fc, result.faults);
        if (multi_rack) {
          // Stage-3 redistribution (rack leader -> its node leaders). It is
          // identical for every collective algorithm, so it is booked under
          // comm.rack.bcast.* rather than the algorithm's comm.allreduce.*
          // traffic — the PSR-vs-Ring comparison stays apples-to-apples.
          const std::size_t relems = mlar->redistribution_elements();
          const std::size_t rmsgs = mlar->redistribution_messages();
          result.elements_sent += relems;
          result.messages_sent += rmsgs;
          if (eo.on()) {
            *pm.rack_bcast_elements += relems;
            *pm.rack_bcast_messages += rmsgs;
            *pm.rack_bcast_bytes += mlar->redistribution_bytes();
          }
        }
        if (censoring) {  // fixed membership: fold deltas into the run sum
          linalg::Axpy(1.0, slot.iw.sum, W_running);
          slot.iw.sum = W_running;
        }
        // Nodes the collective timed out of this round contributed nothing
        // to the sum: no broadcast, and their state stays frozen.
        for (const comm::GroupRank g : slot.fc.excluded) {
          const simnet::NodeId n = slot.members[g];
          node_out[n] = 1;
          slot.contributors -= node_alive[n].size();
        }
        for (std::size_t j = 0; j < gsize; ++j) {
          const simnet::NodeId n = slot.members[j];
          const simnet::Rank lead = slot.leaders[j];
          ledger.WaitUntil(lead, slot.iw.stats.finish_times[j]);
          if (eo.tracing()) {
            const auto li = static_cast<std::size_t>(lead);
            const simnet::VirtualTime b = eo.mark(li);
            const simnet::VirtualTime e = ledger[li].clock;
            const simnet::VirtualTime sr = slot.iw.stats.scatter_reduce_done;
            if (sr > b && sr < e) {
              eo.SpanAt("scatter_reduce", li, b, sr, iter);
              eo.SpanAt("allgather", li, sr, e, iter);
            }
            // The group's measured collective wall, shared evenly among its
            // member leaders (one pool thread ran the whole collective).
            eo.SpanWall("w_allreduce", ledger, li, iter,
                        slot.wall / static_cast<double>(gsize));
          }
          if (node_out[n] != 0) continue;

          // Leader broadcasts W to its node (paper Alg. 1 step 11).
          const auto& nmembers = node_alive[n];
          comm::BroadcastFromLeader(
              intra[n], intra[n].LocalRank(lead), d_sz, ledger[lead].clock, bc,
              cfg_.sparse_comm ? std::optional(slot.iw.result_nnz)
                               : std::nullopt);
          result.elements_sent += bc.elements_sent;
          result.messages_sent += bc.messages_sent;
          for (std::size_t m = 0; m < nmembers.size(); ++m) {
            ledger.WaitUntil(nmembers[m], bc.finish_times[m]);
          }
          if (eo.on()) {
            pm.coll.BookBroadcast(bc);
            if (eo.tracing()) {
              for (std::size_t m = 0; m < nmembers.size(); ++m) {
                eo.Span("w_broadcast", ledger,
                        static_cast<std::size_t>(nmembers[m]), iter);
              }
            }
          }
        }
      }

      // ---- Consensus update across all groups -------------------------------
      // Every group's updating workers (the live ranks of its nodes still in
      // the round) adopt the group's z in one WorkerSet call: z and y run
      // once per (old base, group) pair, then each worker's overlay and
      // residual norms in a single ParallelFor over the cluster. Ledger
      // charges and spans replay serially per worker afterwards.
      zy_ranks_flat.clear();
      zy_begin.clear();
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        zy_begin.push_back(zy_ranks_flat.size());
        for (const simnet::NodeId n : gslots[gi]->members) {
          if (node_out[n] != 0) continue;
          zy_ranks_flat.insert(zy_ranks_flat.end(), node_alive[n].begin(),
                               node_alive[n].end());
        }
      }
      zy_begin.push_back(zy_ranks_flat.size());
      zy_groups.clear();
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        const std::span<const simnet::Rank> ranks =
            std::span<const simnet::Rank>(zy_ranks_flat)
                .subspan(zy_begin[gi], zy_begin[gi + 1] - zy_begin[gi]);
        zy_groups.push_back(
            {ranks, gslots[gi]->iw.sum, gslots[gi]->contributors});
      }
      ws.ZYStepGroups(zy_groups, flops, walled ? &zy_wall : nullptr);
      for (std::size_t gi = 0; gi < gslots.size(); ++gi) {
        for (const simnet::NodeId n : gslots[gi]->members) {
          if (node_out[n] != 0) continue;
          for (const simnet::Rank r : node_alive[n]) {
            ledger.ChargeCompute(static_cast<std::size_t>(r),
                                 cost.ComputeTime(flops[r]));
          }
          if (eo.tracing()) {
            for (const simnet::Rank r : node_alive[n]) {
              const auto i = static_cast<std::size_t>(r);
              eo.SpanWall("z_y_update", ledger, i, iter, zy_wall[i]);
            }
          }
        }
      }
    }

    // ---- Residuals, adaptive penalty, stopping ---------------------------
    // Residual norms piggyback on the existing aggregation traffic (two
    // scalars), so no extra virtual time is charged. The call also advances
    // z_prev_mean to THIS iteration's consensus mean.
    const WorkerSet::Residuals residuals = ws.ComputeResiduals(&z_prev_mean);
    const double rho_now = ws.MaybeAdaptRho(options.adaptive_rho, residuals);

    // ---- Timeline row, progress, trace record ----------------------------
    // The row and the record evaluate the refreshed mean allocation-free.
    epi.Row(iter, z_prev_mean, rho_now, residuals.primal, residuals.dual);
    active_groups.Append();
    regroups.Append();
    rounds.Append();
    epi.Record(ledger);

    // ---- Periodic checkpoint (fault runs only) ---------------------------
    // Captures the live workers' state; a down worker's slot keeps its last
    // pre-crash snapshot, which is what its recovery restores.
    if (faulty && iter % cfg_.cluster.fault.checkpoint_every == 0) {
      CaptureRunCheckpoint(ws, iter, alive, ckpt,
                           eo.on() ? &eo.metrics() : nullptr);
    }

    // ---- Requested checkpoint (split-run / warm-restart harnesses) -------
    if (options.checkpoint_out != nullptr && iter == options.checkpoint_at) {
      CaptureRunCheckpoint(ws, iter, everyone, *options.checkpoint_out,
                           eo.on() ? &eo.metrics() : nullptr);
    }

    if (iter > 1 && WorkerSet::ShouldStop(options.stopping, residuals,
                                          problem.num_workers(),
                                          problem.dim())) {
      result.stopped_early = true;
      break;
    }
  }

  AddMessageFaults(fctx, result.faults);
  // z_prev_mean holds the mean z every exit leaves: refreshed by the last
  // iteration run, or the start state when none ran.
  epi.Finish(z_prev_mean, ledger);
  return result;
}

}  // namespace psra::admm
