#include "admm/admmlib.hpp"

#include <algorithm>
#include <cmath>

#include "admm/checkpoint.hpp"
#include "admm/instrument.hpp"
#include "comm/intranode.hpp"
#include "linalg/sparse_vector.hpp"
#include "solver/metrics.hpp"
#include "support/status.hpp"

namespace psra::admm {

AdmmLib::AdmmLib(const AdmmLibConfig& config) : cfg_(config) {
  PSRA_REQUIRE(config.min_barrier_fraction > 0.0 &&
                   config.min_barrier_fraction <= 1.0,
               "min_barrier_fraction must be in (0, 1]");
  PSRA_REQUIRE(config.max_delay >= 1, "max_delay must be at least 1");
}

namespace {

/// Hoisted metric slots (stable MetricsRegistry references) for the ADMMLib
/// engine, mirroring psra_hgadmm's PsraMetrics. Null slots mean "not
/// recording". The ssp.* family is ADMMLib-specific: one round per fired
/// barrier, stale contributions counted per non-participant.
struct LibMetrics {
  std::uint64_t* ar_invocations = nullptr;
  std::uint64_t* ar_elements = nullptr;
  std::uint64_t* ar_messages = nullptr;
  std::uint64_t* ar_bytes = nullptr;
  std::uint64_t* ar_rounds = nullptr;
  obs::Histogram* fill = nullptr;
  std::uint64_t* intra_reduce_elements = nullptr;
  std::uint64_t* intra_reduce_messages = nullptr;
  std::uint64_t* intra_reduce_bytes = nullptr;
  std::uint64_t* intra_bcast_elements = nullptr;
  std::uint64_t* intra_bcast_messages = nullptr;
  std::uint64_t* intra_bcast_bytes = nullptr;
  std::uint64_t* ssp_rounds = nullptr;
  std::uint64_t* ssp_stale = nullptr;
  obs::Histogram* participants = nullptr;
  double dim = 1.0;

  void Hoist(obs::MetricsRegistry& m, const std::string& alg_name, bool sparse,
             double d) {
    const std::string p = "comm.allreduce." + alg_name + ".";
    ar_invocations = &m.Counter(p + "invocations");
    ar_elements = &m.Counter(p + "elements");
    ar_messages = &m.Counter(p + "messages");
    ar_bytes = &m.Counter(p + "bytes");
    ar_rounds = &m.Counter(p + "rounds");
    if (sparse) {
      static constexpr double kFillBounds[] = {0.01, 0.05, 0.1, 0.25,
                                               0.5,  0.75, 0.9, 1.0};
      fill = &m.Histo("comm.allreduce.fill_ratio", kFillBounds);
      dim = d;
    }
    intra_reduce_elements = &m.Counter("comm.intra.reduce.elements");
    intra_reduce_messages = &m.Counter("comm.intra.reduce.messages");
    intra_reduce_bytes = &m.Counter("comm.intra.reduce.bytes");
    intra_bcast_elements = &m.Counter("comm.intra.bcast.elements");
    intra_bcast_messages = &m.Counter("comm.intra.bcast.messages");
    intra_bcast_bytes = &m.Counter("comm.intra.bcast.bytes");
    ssp_rounds = &m.Counter("ssp.rounds");
    ssp_stale = &m.Counter("ssp.stale_contributions");
    static constexpr double kPartBounds[] = {1, 2, 4, 8, 16, 32};
    participants = &m.Histo("ssp.participants", kPartBounds);
  }
};

/// Hoisted convergence-timeline series (DESIGN.md §13) plus the cumulative
/// counter values at the previous row (per-iteration byte/round deltas).
struct LibSeries {
  obs::TimeSeries* primal = nullptr;
  obs::TimeSeries* dual = nullptr;
  obs::TimeSeries* objective = nullptr;
  obs::TimeSeries* rho = nullptr;
  obs::TimeSeries* staleness = nullptr;
  obs::TimeSeries* bytes = nullptr;
  obs::TimeSeries* rounds = nullptr;
  std::uint64_t prev_bytes = 0;
  std::uint64_t prev_rounds = 0;

  void Hoist(EngineObs& eo) {
    primal = eo.Series("ts.primal_residual");
    dual = eo.Series("ts.dual_residual");
    objective = eo.Series("ts.objective");
    rho = eo.Series("ts.rho");
    staleness = eo.Series("ts.ssp_staleness");
    bytes = eo.Series("ts.bytes");
    rounds = eo.Series("ts.rounds");
  }

  std::uint64_t BytesNow(const LibMetrics& lm) const {
    return *lm.ar_bytes + *lm.intra_reduce_bytes + *lm.intra_bcast_bytes;
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
  std::vector<linalg::SparseVector> sparse_w;
  linalg::SparseVector sparse_sum;
  linalg::DenseVector dense_sum;
  const auto d = static_cast<std::size_t>(problem.dim());

  RunResult result;
  result.algorithm = Name();

  // ---- Observability -----------------------------------------------------
  // Every instrumentation site only OBSERVES ledger clocks and collective
  // stats behind eo.on()/eo.tracing() — an instrumented run is
  // bitwise-identical to an uninstrumented one (pinned by test_obs).
  EngineObs eo(options.obs, world);
  LibMetrics lm;
  LibSeries conv;
  if (eo.on()) {
    lm.Hoist(eo.metrics(), ring->Name(), cfg_.sparse_comm,
             static_cast<double>(problem.dim()));
    conv.Hoist(eo);
  }
  // Residual/objective telemetry state (observe-only: ComputeResiduals and
  // MeanZInto recycle scratch and never touch algorithm state). On a warm
  // start the dual-residual reference is the restored consensus mean — what
  // the uninterrupted run would hold — so a split run's timeline rows match
  // the full run's exactly.
  linalg::DenseVector z_prev_mean;
  if (eo.on() || options.progress != nullptr) {
    z_prev_mean.assign(d, 0.0);
    if (first_iter > 1) ws.MeanZInto(z_prev_mean);
  }

  // Node-level helpers.
  std::vector<std::vector<simnet::Rank>> node_ranks(nodes);
  std::vector<simnet::Rank> leaders(nodes);
  std::vector<comm::GroupComm> intra;
  intra.reserve(nodes);
  for (simnet::NodeId n = 0; n < nodes; ++n) {
    node_ranks[n] = topo.RanksOnNode(n);
    leaders[n] = wlg::ElectLeader(topo, node_ranks[n], cfg_.leader_policy,
                                  cfg_.cluster.seed);
    intra.emplace_back(&topo, &cost, node_ranks[n]);
  }

  // Runs the local computation of one node (x/w updates for its workers and
  // the intra-node reduce) and returns the node-level sum; `iteration` keys
  // the jitter/straggler draw.
  std::vector<std::uint64_t> local_iter(nodes, 0);
  auto compute_node = [&](simnet::NodeId n) -> linalg::DenseVector {
    ++local_iter[n];
    const auto& members = node_ranks[n];
    std::vector<linalg::DenseVector> inputs(members.size());
    std::vector<simnet::VirtualTime> starts(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const simnet::Rank r = members[m];
      eo.Mark(ledger, static_cast<std::size_t>(r));
      const double flops = ws.XWStep(r);
      const double mult = ComputeMultiplier(cfg_.cluster, topo, stragglers, r,
                                            local_iter[n]);
      ledger.ChargeCompute(r, cost.ComputeTime(flops) * mult);
      eo.Span("x_update", ledger, static_cast<std::size_t>(r), local_iter[n]);
      inputs[m] = ws.w(r);
      starts[m] = ledger[r].clock;
    }
    auto red = comm::ReduceToLeader(intra[n], intra[n].LocalRank(leaders[n]),
                                    inputs, starts);
    result.elements_sent += red.elements_sent;
    result.messages_sent += red.messages_sent;
    for (std::size_t m = 0; m < members.size(); ++m) {
      ledger.WaitUntil(members[m], red.finish_times[m]);
    }
    ledger.WaitUntil(leaders[n], red.leader_ready);
    if (eo.on()) {
      *lm.intra_reduce_elements += red.elements_sent;
      *lm.intra_reduce_messages += red.messages_sent;
      *lm.intra_reduce_bytes +=
          red.elements_sent * cfg_.cluster.cost.value_bytes;
      if (eo.tracing()) {
        for (std::size_t m = 0; m < members.size(); ++m) {
          const auto i = static_cast<std::size_t>(members[m]);
          if (ledger[i].clock > eo.mark(i)) {
            eo.Span("intra_reduce", ledger, i, local_iter[n]);
          }
        }
      }
    }
    return std::move(red.value);
  };

  // SSP state.
  std::vector<linalg::DenseVector> node_w(nodes);   // freshest node sum
  std::vector<linalg::DenseVector> cache_w(nodes, linalg::DenseVector(d, 0.0));
  std::vector<simnet::VirtualTime> ready(nodes);
  std::vector<std::uint64_t> last_contrib(nodes, 0);

  for (simnet::NodeId n = 0; n < nodes; ++n) {
    node_w[n] = compute_node(n);
    ready[n] = ledger[leaders[n]].clock;
  }

  // Baseline the delta series on the pre-loop node pass's traffic, so every
  // ts.* delta is pure per-round — a warm-started run (whose pre-loop pass
  // re-runs the restored round's x-updates) then produces the same rows as
  // the uninterrupted run.
  if (eo.on()) {
    conv.prev_bytes = conv.BytesNow(lm);
    conv.prev_rounds = *lm.ar_rounds;
  }

  linalg::DenseVector W(d, 0.0);
  for (std::uint64_t k = first_iter; k <= options.max_iterations; ++k) {
    result.iterations_run = k;
    // Fire time: the barrier-th smallest ready time, pushed later by any
    // node whose contribution would otherwise exceed Max_delay.
    std::vector<simnet::VirtualTime> sorted(ready.begin(), ready.end());
    std::nth_element(sorted.begin(),
                     sorted.begin() + (barrier_nodes - 1), sorted.end());
    simnet::VirtualTime fire = sorted[barrier_nodes - 1];
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      if (k - last_contrib[n] > cfg_.max_delay) {
        fire = std::max(fire, ready[n]);
      }
    }

    std::vector<simnet::NodeId> participants;
    for (simnet::NodeId n = 0; n < nodes; ++n) {
      if (ready[n] <= fire) participants.push_back(n);
    }
    PSRA_CHECK(!participants.empty(), "SSP round fired with no participants");

    for (simnet::NodeId n : participants) {
      cache_w[n] = node_w[n];
      last_contrib[n] = k;
    }

    // Ring-Allreduce over ALL leaders: the ring topology is fixed in
    // ADMMLib's hierarchical architecture, so every node's communication
    // thread joins each round, contributing its freshest *cached* w (stale
    // for non-participants). This is what keeps ADMMLib's communication
    // cost roughly independent of stragglers but high: 2(N-1) pipelined
    // rounds over every leader, every iteration.
    std::vector<simnet::Rank> all_leaders(leaders.begin(), leaders.end());
    const std::vector<simnet::VirtualTime> starts(nodes, fire);
    const comm::GroupComm inter(&topo, &cost, all_leaders);

    std::size_t result_nnz = d;
    if (cfg_.sparse_comm) {
      sparse_w.resize(nodes);
      for (simnet::NodeId n = 0; n < nodes; ++n) {
        sparse_w[n].AssignFromDense(cache_w[n]);
      }
      ring->ReduceSparse(inter, sparse_w, starts, ring_scratch, sparse_sum,
                         ring_stats);
      result_nnz = sparse_sum.nnz();
    } else {
      ring->ReduceDense(inter, cache_w, starts, ring_scratch, dense_sum,
                        ring_stats);
    }
    result.elements_sent += ring_stats.elements_sent;
    result.messages_sent += ring_stats.messages_sent;
    const std::vector<simnet::VirtualTime>& finish = ring_stats.finish_times;
    if (eo.on()) {
      ++*lm.ssp_rounds;
      *lm.ssp_stale += nodes - participants.size();
      lm.participants->Observe(static_cast<double>(participants.size()));
      ++*lm.ar_invocations;
      *lm.ar_elements += ring_stats.elements_sent;
      *lm.ar_messages += ring_stats.messages_sent;
      *lm.ar_bytes += ring_stats.bytes_sent;
      *lm.ar_rounds += ring_stats.rounds;
      if (lm.fill != nullptr) {
        lm.fill->Observe(static_cast<double>(result_nnz) / lm.dim);
      }
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
      const std::size_t elems = cfg_.sparse_comm ? result_nnz : d;
      auto bc = comm::BroadcastFromLeader(intra[n],
                                          intra[n].LocalRank(leaders[n]),
                                          elems, ledger[leaders[n]].clock);
      result.elements_sent += bc.elements_sent;
      result.messages_sent += bc.messages_sent;
      if (eo.on()) {
        *lm.intra_bcast_elements += bc.elements_sent;
        *lm.intra_bcast_messages += bc.messages_sent;
        *lm.intra_bcast_bytes +=
            bc.elements_sent *
            (cfg_.sparse_comm ? cfg_.cluster.cost.value_bytes +
                                    cfg_.cluster.cost.index_bytes
                              : cfg_.cluster.cost.value_bytes);
      }
      for (std::size_t m = 0; m < node_ranks[n].size(); ++m) {
        const simnet::Rank r = node_ranks[n][m];
        const auto i = static_cast<std::size_t>(r);
        ledger.WaitUntil(r, bc.finish_times[m]);
        if (eo.tracing() && ledger[i].clock > eo.mark(i)) {
          eo.Span("w_broadcast", ledger, i, k);
        }
        const double zf = ws.ZYStep(r, W, topo.world_size());
        ledger.ChargeCompute(r, cost.ComputeTime(zf));
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
      node_w[n] = compute_node(n);
      ready[n] = ledger[leaders[n]].clock;
    }

    // ---- Convergence timeline (one row per SSP round) --------------------
    // Sampled after the round's consensus + local updates, from virtual-time
    // state and hoisted counters only (bitwise-identical across pool sizes).
    if (eo.on() || options.progress != nullptr) {
      const WorkerSet::Residuals res = ws.ComputeResiduals(z_prev_mean);
      ws.MeanZInto(z_prev_mean);
      if (eo.on()) {
        eo.BeginTimelineRow(k);
        conv.primal->Append(res.primal);
        conv.dual->Append(res.dual);
        // z_prev_mean was just refreshed to this round's consensus mean.
        conv.objective->Append(solver::GlobalObjective(
            problem.train, z_prev_mean, problem.lambda));
        conv.rho->Append(ws.rho());
        conv.staleness->Append(
            static_cast<double>(nodes - participants.size()));
        const std::uint64_t byt = conv.BytesNow(lm);
        const std::uint64_t rnd = *lm.ar_rounds;
        conv.bytes->Append(static_cast<double>(byt - conv.prev_bytes));
        conv.rounds->Append(static_cast<double>(rnd - conv.prev_rounds));
        conv.prev_bytes = byt;
        conv.prev_rounds = rnd;
      }
      if (options.progress != nullptr) {
        options.progress->Report(
            {k, options.max_iterations, res.primal, res.dual, ws.rho()});
      }
    }

    if (options.record_trace &&
        (k % options.eval_every == 0 || k == options.max_iterations)) {
      result.trace.push_back(ws.Evaluate(k, ledger));
    }

    // The per-node captures above took the algorithm state; the metrics
    // snapshot waits until the whole round is booked.
    if (options.checkpoint_out != nullptr && k == options.checkpoint_at &&
        eo.on()) {
      options.checkpoint_out->metrics = eo.metrics();
    }
  }

  result.final_z = ws.MeanZ();
  result.final_objective =
      solver::GlobalObjective(problem.train, result.final_z, problem.lambda);
  result.final_accuracy = solver::Accuracy(problem.test, result.final_z);
  result.total_cal_time = ledger.MeanCalTime();
  result.total_comm_time = ledger.MeanCommTime();
  result.makespan = ledger.MaxClock();
  if (eo.on()) {
    auto& m = eo.metrics();
    m.Counter("engine.iterations") += result.iterations_run;
    m.Gauge("run.makespan_s") = result.makespan;
    m.Gauge("run.cal_time_s") = result.total_cal_time;
    m.Gauge("run.comm_time_s") = result.total_comm_time;
    m.Gauge("run.iterations") = static_cast<double>(result.iterations_run);
    eo.PublishTimelineSummary();
    result.metrics = m;
  }
  return result;
}

}  // namespace psra::admm
