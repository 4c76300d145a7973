#include "admm/admmlib.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "admm/checkpoint.hpp"
#include "admm/instrument.hpp"
#include "comm/intranode.hpp"
#include "simnet/fault.hpp"
#include "support/status.hpp"
#include "wlg/leader.hpp"

namespace psra::admm {

AdmmLib::AdmmLib(const AdmmLibConfig& config) : cfg_(config) {
  PSRA_REQUIRE(config.min_barrier_fraction > 0.0 &&
                   config.min_barrier_fraction <= 1.0,
               "min_barrier_fraction must be in (0, 1]");
  PSRA_REQUIRE(config.max_delay >= 1, "max_delay must be at least 1");
}

namespace {

/// Hoisted metric slots (stable MetricsRegistry references) for the ADMMLib
/// engine: the collective slots it shares with PSRA plus the ssp.* family —
/// one round per fired barrier, stale contributions counted per
/// non-participant. Null slots mean "not recording".
struct LibMetrics {
  CollectiveMetrics coll;
  std::uint64_t* ssp_rounds = nullptr;
  std::uint64_t* ssp_stale = nullptr;
  obs::Histogram* participants = nullptr;

  void Hoist(obs::MetricsRegistry& m, const std::string& alg_name, bool sparse,
             double d) {
    coll.Hoist(m, alg_name, sparse, d);
    ssp_rounds = &m.Counter("ssp.rounds");
    ssp_stale = &m.Counter("ssp.stale_contributions");
    static constexpr double kPartBounds[] = {1, 2, 4, 8, 16, 32};
    participants = &m.Histo("ssp.participants", kPartBounds);
  }
};

}  // namespace

RunResult AdmmLib::Run(const ConsensusProblem& problem,
                       const RunOptions& options) const {
  const simnet::Topology topo(cfg_.cluster.num_nodes,
                              cfg_.cluster.workers_per_node,
                              cfg_.cluster.num_racks);
  PSRA_REQUIRE(problem.num_workers() == topo.world_size(),
               "problem must be partitioned into one shard per worker");
  PSRA_REQUIRE(!options.stopping.enabled,
               "ADMMLib has no residual-based stopping test");
  PSRA_REQUIRE(!options.adaptive_rho.enabled,
               "ADMMLib has no adaptive penalty");
  PSRA_REQUIRE(simnet::FaultPlan(cfg_.cluster.fault).Empty(),
               "ADMMLib models no faults; run it with an empty fault plan");
  const simnet::CostModel cost(cfg_.cluster.cost);
  const simnet::StragglerModel stragglers(topo, cfg_.cluster.straggler);
  const auto world = static_cast<std::size_t>(topo.world_size());
  const std::uint32_t nodes = cfg_.cluster.num_nodes;
  const auto barrier_nodes = static_cast<std::uint32_t>(std::max<double>(
      1.0, std::ceil(cfg_.min_barrier_fraction * static_cast<double>(nodes))));

  WorkerSet ws(&problem, &options);
  // Warm start: seed (x, y, z, rho) from a restored checkpoint and resume
  // right after its iteration (the pre-loop node sums below then start from
  // the warm state).
  const std::uint64_t first_iter = ApplyWarmStart(ws, options) + 1;
  engine::TimeLedger ledger(world);
  const auto ring = comm::MakeAllreduce(cfg_.allreduce);
  // The ring collective's buffers, recycled across iterations.
  comm::AllreduceScratch ring_scratch;
  comm::CommStats ring_stats;
  linalg::DenseVector ring_sum;
  const auto d = static_cast<std::size_t>(problem.dim());

  RunResult result;
  result.algorithm = Name();

  // ---- Observability -----------------------------------------------------
  // Every instrumentation site only OBSERVES ledger clocks and collective
  // stats behind eo.on()/eo.tracing() — an instrumented run is
  // bitwise-identical to an uninstrumented one (pinned by test_obs).
  EngineObs eo(options.obs, world);
  LibMetrics lm;
  if (eo.on()) {
    lm.Hoist(eo.metrics(), ring->Name(), cfg_.sparse_comm,
             static_cast<double>(problem.dim()));
  }
  RunEpilogue epi(eo, problem, options, result, ResidualSeries::kPrimalDual,
                  {lm.coll.bytes, lm.coll.reduce_bytes, lm.coll.bcast_bytes});
  obs::TimeSeries* const staleness = eo.Series("ts.ssp_staleness");
  CounterDelta rounds(eo, "ts.rounds", {lm.coll.rounds});
  // Residual state (observe-only: ComputeResiduals and MeanZInto recycle
  // scratch and caches and never touch algorithm state). On a warm start the
  // dual-residual reference is the restored consensus mean — what the
  // uninterrupted run would hold — so a split run's timeline rows match the
  // full run's exactly.
  linalg::DenseVector z_prev_mean(d, 0.0);
  if (first_iter > 1) ws.MeanZInto(z_prev_mean);

  // Node-level helpers.
  std::vector<std::vector<simnet::Rank>> node_ranks(nodes);
  std::vector<simnet::Rank> leaders(nodes);
  std::vector<comm::GroupComm> intra;
  intra.reserve(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) {
    node_ranks[n] = topo.RanksOnNode(n);
    leaders[n] = wlg::ElectLeader(topo, node_ranks[n]);
    intra.emplace_back(&topo, &cost, node_ranks[n]);
  }

  // Runs the local computation of one node (x/w updates for its workers and
  // the intra-node reduce) into red[n], whose value is the node-level sum;
  // local_iter[n] keys the jitter/straggler draw. The node's workers update
  // x together, so they keep sharing one base, and each node's result is
  // recycled across rounds.
  const auto wpn = static_cast<std::size_t>(cfg_.cluster.workers_per_node);
  std::vector<std::uint64_t> local_iter(nodes, 0);
  std::vector<comm::ReduceResult> red(nodes);
  std::vector<simnet::VirtualTime> member_starts(wpn);
  std::vector<double> flops(world, 0.0);
  auto compute_node = [&](simnet::NodeId n) {
    ++local_iter[n];
    const auto& members = node_ranks[n];
    for (const simnet::Rank r : members) {
      eo.Mark(ledger, static_cast<std::size_t>(r));
    }
    ws.XWStepAll(members, flops);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const simnet::Rank r = members[m];
      const double mult =
          ComputeMultiplier(cfg_.cluster, stragglers, r, local_iter[n]);
      ledger.ChargeCompute(r, cost.ComputeTime(flops[r]) * mult);
      eo.Span("x_update", ledger, static_cast<std::size_t>(r), local_iter[n]);
      member_starts[m] = ledger[r].clock;
    }
    red[n].member_nnz.resize(members.size());
    ws.NodeSumW(n, members, red[n].value, red[n].member_nnz);
    comm::PriceReduceToLeader(intra[n], intra[n].LocalRank(leaders[n]),
                              member_starts, d, red[n], cfg_.sparse_comm);
    result.elements_sent += red[n].elements_sent;
    result.messages_sent += red[n].messages_sent;
    for (std::size_t m = 0; m < members.size(); ++m) {
      ledger.WaitUntil(members[m], red[n].finish_times[m]);
    }
    ledger.WaitUntil(leaders[n], red[n].leader_ready);
    if (eo.on()) {
      lm.coll.BookReduce(red[n]);
      if (eo.tracing()) {
        for (std::size_t m = 0; m < members.size(); ++m) {
          const auto i = static_cast<std::size_t>(members[m]);
          if (ledger[i].clock > eo.mark(i)) {
            eo.Span("intra_reduce", ledger, i, local_iter[n]);
          }
        }
      }
    }
  };

  // SSP state. red[n].value is node n's freshest sum.
  std::vector<linalg::DenseVector> cache_w(nodes, linalg::DenseVector(d, 0.0));
  std::vector<simnet::VirtualTime> ready(nodes);
  std::vector<std::uint64_t> last_contrib(nodes, 0);

  for (simnet::NodeId n = 0; n < nodes; ++n) {
    compute_node(n);
    ready[n] = ledger[leaders[n]].clock;
  }

  // Baseline the delta series on the pre-loop node pass's traffic, so every
  // ts.* delta is pure per-round — a warm-started run (whose pre-loop pass
  // re-runs the restored round's x-updates) then produces the same rows as
  // the uninterrupted run.
  epi.BaselineBytes();
  rounds.Baseline();

  // Ring-Allreduce over ALL leaders: the ring topology is fixed in
  // ADMMLib's hierarchical architecture, so every node's communication
  // thread joins each round, contributing its freshest *cached* w (stale
  // for non-participants). This is what keeps ADMMLib's communication
  // cost roughly independent of stragglers but high: 2(N-1) pipelined
  // rounds over every leader, every iteration.
  const comm::GroupComm inter(&topo, &cost, leaders);
  std::vector<simnet::VirtualTime> sorted(nodes);
  std::vector<simnet::VirtualTime> starts(nodes);
  std::vector<simnet::NodeId> participants;
  participants.reserve(nodes);
  comm::BroadcastResult bc;
  linalg::DenseVector W(d, 0.0);
  for (std::uint64_t k = first_iter; k <= options.max_iterations; ++k) {
    result.iterations_run = k;
    // Fire time: the barrier-th smallest ready time, pushed later by any
    // node whose contribution would otherwise exceed Max_delay.
    sorted.assign(ready.begin(), ready.end());
    std::nth_element(sorted.begin(),
                     sorted.begin() + (barrier_nodes - 1), sorted.end());
    simnet::VirtualTime fire = sorted[barrier_nodes - 1];
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      if (k - last_contrib[n] > cfg_.max_delay) {
        fire = std::max(fire, ready[n]);
      }
    }

    participants.clear();
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      if (ready[n] <= fire) participants.push_back(n);
    }
    PSRA_CHECK(!participants.empty(), "SSP round fired with no participants");

    for (simnet::NodeId n : participants) {
      cache_w[n] = red[n].value;
      last_contrib[n] = k;
    }

    starts.assign(nodes, fire);

    std::size_t result_nnz = d;
    if (cfg_.sparse_comm) {
      result_nnz = ring->ReduceSparse(inter, cache_w, starts, ring_scratch,
                                      ring_sum, ring_stats);
    } else {
      ring->ReduceDense(inter, cache_w, starts, ring_scratch, ring_sum,
                        ring_stats);
    }
    result.elements_sent += ring_stats.elements_sent;
    result.messages_sent += ring_stats.messages_sent;
    const std::vector<simnet::VirtualTime>& finish = ring_stats.finish_times;
    if (eo.on()) {
      ++*lm.ssp_rounds;
      *lm.ssp_stale += nodes - participants.size();
      lm.participants->Observe(static_cast<double>(participants.size()));
      lm.coll.BookAllreduce(ring_stats, result_nnz);
    }

    // Global aggregate (the ring's output): fresh + stale terms.
    linalg::SetZero(W);
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      linalg::Axpy(1.0, cache_w[n], W);
    }

    // A node still computing when the ring ran had its communication thread
    // serve the ring concurrently; book the overlapped portion as comm time
    // (the post-compute remainder is booked by the WaitUntil below).
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      const simnet::VirtualTime overlapped =
          std::max(0.0, std::min(ready[n], finish[n]) - fire);
      if (overlapped > 0) ledger.ChargeCommConcurrent(leaders[n], overlapped);
    }

    // Every node receives the new aggregate and immediately starts its next
    // local iteration — SSP workers never idle. A node that was still
    // computing when the round fired (a non-participant) picks the new W up
    // as soon as both its compute and the ring are done; the w it just
    // finished is simply superseded by the fresher one it will produce
    // against the new z (standard SSP freshest-state semantics).
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      const auto li = static_cast<std::size_t>(leaders[n]);
      // A participant leader idles from its ready time until the barrier
      // fires; split that out of the collective span as ssp_wait.
      if (eo.tracing() && fire > eo.mark(li)) {
        eo.SpanAt("ssp_wait", li, eo.mark(li), fire, k);
        eo.SetMark(li, fire);
      }
      ledger.WaitUntil(leaders[n], std::max(ready[n], finish[n]));
      if (eo.tracing() && ledger[li].clock > eo.mark(li)) {
        eo.Span("w_allreduce", ledger, li, k);
      }
      comm::BroadcastFromLeader(
          intra[n], intra[n].LocalRank(leaders[n]), d,
          ledger[leaders[n]].clock, bc,
          cfg_.sparse_comm ? std::optional(result_nnz) : std::nullopt);
      result.elements_sent += bc.elements_sent;
      result.messages_sent += bc.messages_sent;
      if (eo.on()) lm.coll.BookBroadcast(bc);
      ws.ZYStepAll(node_ranks[n], W, topo.world_size(), flops);
      for (std::size_t m = 0; m < node_ranks[n].size(); ++m) {
        const simnet::Rank r = node_ranks[n][m];
        const auto i = static_cast<std::size_t>(r);
        ledger.WaitUntil(r, bc.finish_times[m]);
        if (eo.tracing() && ledger[i].clock > eo.mark(i)) {
          eo.Span("w_broadcast", ledger, i, k);
        }
        ledger.ChargeCompute(r, cost.ComputeTime(flops[r]));
        eo.Span("z_y_update", ledger, i, k);
      }
      // Requested checkpoint: snapshot this node's workers now — after
      // their z/y update, but BEFORE compute_node advances their x into
      // round k+1. A warm start re-runs that x-update from the restored
      // state (its pre-loop compute_node), so capturing any later would
      // make the resumed run apply TRON twice.
      if (options.checkpoint_out != nullptr && k == options.checkpoint_at) {
        CaptureRunCheckpoint(ws, k, node_ranks[n], *options.checkpoint_out);
      }
      compute_node(n);
      ready[n] = ledger[leaders[n]].clock;
    }

    // ---- Residuals, timeline row, progress, trace record -----------------
    // Sampled after the round's consensus + local updates; the call
    // advances z_prev_mean to this round's consensus mean, the model the
    // row and the record evaluate.
    const WorkerSet::Residuals res = ws.ComputeResiduals(&z_prev_mean);
    epi.Row(k, z_prev_mean, ws.rho(), res.primal, res.dual);
    if (staleness != nullptr) {
      staleness->Append(static_cast<double>(nodes - participants.size()));
    }
    rounds.Append();
    epi.Record(ledger);

    // The per-node captures above took the algorithm state; the metrics
    // snapshot waits until the whole round is booked.
    if (options.checkpoint_out != nullptr && k == options.checkpoint_at &&
        eo.on()) {
      options.checkpoint_out->metrics = eo.metrics();
    }
  }

  // z_prev_mean holds the last round's consensus mean (the start state when
  // no round ran); the x-updates after a node's z/y step leave z alone.
  epi.Finish(z_prev_mean, ledger);
  return result;
}

}  // namespace psra::admm
