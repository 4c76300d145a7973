#include "admm/ad_admm.hpp"

#include "admm/instrument.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "simnet/event_queue.hpp"
#include "solver/prox.hpp"
#include "support/log.hpp"
#include "support/status.hpp"

namespace psra::admm {

AdAdmm::AdAdmm(const AdAdmmConfig& config) : cfg_(config) {
  PSRA_REQUIRE(config.min_barrier_fraction > 0.0 &&
                   config.min_barrier_fraction <= 1.0,
               "min_barrier_fraction must be in (0, 1]");
  PSRA_REQUIRE(config.max_delay >= 1, "max_delay must be at least 1");
}

RunResult AdAdmm::Run(const ConsensusProblem& problem,
                      const RunOptions& options) const {
  const simnet::Topology topo(cfg_.cluster.num_nodes,
                              cfg_.cluster.workers_per_node,
                              cfg_.cluster.num_racks);
  PSRA_REQUIRE(problem.num_workers() == topo.world_size(),
               "problem must be partitioned into one shard per worker");
  // The async master's in-flight update state is not part of a
  // RunCheckpoint, so a restored snapshot cannot resume this engine.
  PSRA_REQUIRE(options.warm_start == nullptr,
               "AD-ADMM does not support warm starts (async master state is "
               "not checkpointed)");
  PSRA_REQUIRE(options.checkpoint_out == nullptr,
               "AD-ADMM cannot capture a run checkpoint (async master state "
               "is not checkpointed)");
  PSRA_REQUIRE(!options.stopping.enabled,
               "AD-ADMM has no residual-based stopping test");
  PSRA_REQUIRE(!options.adaptive_rho.enabled,
               "AD-ADMM has no adaptive penalty");
  const simnet::CostModel cost(cfg_.cluster.cost);
  const simnet::StragglerModel stragglers(topo, cfg_.cluster.straggler);
  // The asynchronous exchange exercises the message-level fault knobs: a
  // dropped report is retransmitted after an ack timeout; a delayed one
  // arrives late at the master and lands in a later barrier batch.
  const simnet::FaultPlan faults(cfg_.cluster.fault);
  const bool faulty = !faults.Empty();
  const auto world = static_cast<std::size_t>(topo.world_size());
  const auto min_barrier = static_cast<std::size_t>(std::max<double>(
      1.0,
      std::ceil(cfg_.min_barrier_fraction * static_cast<double>(world))));
  const auto d = static_cast<std::size_t>(problem.dim());
  // The master lives on node 0; worker-master link depends on the worker's
  // node (bus for co-located workers, network otherwise).
  const simnet::Rank master_home = 0;

  WorkerSet ws(&problem, &options);
  engine::TimeLedger ledger(world);

  RunResult result;
  result.algorithm = Name();

  // ---- Observability (no-op without RunOptions::obs; see DESIGN.md §9) ---
  EngineObs eo(options.obs, world);
  obs::TrackId master_track = 0;
  std::uint64_t* c_report_elements = nullptr;
  std::uint64_t* c_report_messages = nullptr;
  std::uint64_t* c_report_bytes = nullptr;
  std::uint64_t* c_reply_elements = nullptr;
  std::uint64_t* c_reply_messages = nullptr;
  std::uint64_t* c_z_updates = nullptr;
  const std::uint64_t report_elem_bytes =
      comm::ElemPricing{cfg_.cluster.cost.value_bytes,
                        cfg_.cluster.cost.index_bytes}
          .PerElement(!cfg_.classic_exchange);
  if (eo.on()) {
    auto& m = eo.metrics();
    master_track = eo.AddAuxTrack("master");
    c_report_elements = &m.Counter("comm.master.report.elements");
    c_report_messages = &m.Counter("comm.master.report.messages");
    c_report_bytes = &m.Counter("comm.master.report.bytes");
    c_reply_elements = &m.Counter("comm.master.reply.elements");
    c_reply_messages = &m.Counter("comm.master.reply.messages");
    c_z_updates = &m.Counter("master.z_updates");
  }
  // Convergence timeline: the async master has no synchronous residual
  // pair, so the row carries the consensus objective plus the barrier shape
  // (how many reports each z-update consumed).
  RunEpilogue epi(eo, problem, options, result, ResidualSeries::kNone,
                  {c_report_bytes});
  obs::TimeSeries* const ts_participants = eo.Series("ts.participants");

  // --- Master state -------------------------------------------------------
  std::vector<linalg::DenseVector> w_latest(world,
                                            linalg::DenseVector(d, 0.0));
  std::vector<std::uint64_t> contributed_update(world, 0);
  std::vector<std::size_t> waiting;          // workers blocked on the next z
  std::size_t fresh_count = 0;
  std::uint64_t K = 0;                       // completed z updates
  linalg::DenseVector z_global(d, 0.0);
  simnet::VirtualTime master_busy = 0.0;
  std::vector<std::uint64_t> worker_iter(world, 0);

  simnet::EventQueue queue;

  // Classic exchange: dense x_i + y_i up (2d values), dense z down (d).
  // Sparse ablation: w_i / z as (index,value) pairs.
  auto report_elems = [&](std::size_t j) {
    return cfg_.classic_exchange ? 2 * d : ws.WNonzeros(j);
  };
  auto reply_elems = [&](const linalg::DenseVector& z) {
    return cfg_.classic_exchange ? d
                                 : linalg::CountNonzeros(z);
  };
  auto transfer = [&](simnet::Rank worker, std::size_t elems) {
    const simnet::Link link = topo.LinkBetween(worker, master_home);
    return cfg_.classic_exchange ? cost.DenseTransferTime(link, elems)
                                 : cost.SparseTransferTime(link, elems);
  };

  // Forward declaration of the compute step so callbacks can recurse.
  std::function<void(std::size_t)> start_compute;

  auto fire_condition = [&]() {
    if (fresh_count < min_barrier) return false;
    for (std::size_t j = 0; j < world; ++j) {
      // A worker whose last contribution is about to fall out of the delay
      // bound blocks the update until it reports.
      if (K + 1 > cfg_.max_delay &&
          contributed_update[j] < K + 1 - cfg_.max_delay) {
        return false;
      }
    }
    return true;
  };

  auto do_update = [&](simnet::VirtualTime now) {
    ++K;
    result.iterations_run = K;
    if (c_z_updates != nullptr) ++*c_z_updates;
    linalg::DenseVector W(d, 0.0);
    for (std::size_t j = 0; j < world; ++j) {
      linalg::Axpy(1.0, w_latest[j], W);
    }
    solver::ZUpdateConfig zcfg;
    zcfg.regularizer = solver::Regularizer::kL1;
    zcfg.lambda = problem.lambda;
    zcfg.rho = problem.rho;
    zcfg.num_workers = world;
    solver::ZUpdate(zcfg, W, z_global);

    // Timeline row for z-update K, sampled before the reply loop below
    // re-enters start_compute (whose next-round report traffic must land in
    // the NEXT row's bytes delta, not this one's).
    epi.Row(K, z_global, problem.rho);
    if (ts_participants != nullptr) {
      ts_participants->Append(static_cast<double>(waiting.size()));
    }

    // Reply serialized to every waiting worker (ascending rank for
    // determinism). A reply carries z (sparse after soft-thresholding).
    std::sort(waiting.begin(), waiting.end());
    const std::size_t z_elems = reply_elems(z_global);
    master_busy = std::max(master_busy, now);
    const bool done = K >= options.max_iterations;
    for (std::size_t j : waiting) {
      const simnet::VirtualTime t = transfer(static_cast<simnet::Rank>(j),
                                             z_elems);
      const simnet::VirtualTime send_begin = master_busy;
      master_busy += t;
      result.elements_sent += z_elems;
      ++result.messages_sent;
      ledger.WaitUntil(j, master_busy);
      if (eo.on()) {
        *c_reply_elements += z_elems;
        ++*c_reply_messages;
        eo.AuxSpan(master_track, "reply_send", send_begin, master_busy, K);
        eo.Span("z_wait", ledger, j, K);
      }
      // Worker adopts the new z and performs its local y-update.
      ledger.ChargeCompute(j, cost.ComputeTime(ws.AdoptZ(j, z_global)));
      eo.Span("y_update", ledger, j, K);
      if (!done) start_compute(j);
    }
    waiting.clear();
    fresh_count = 0;
    // The record samples the ledger after the replies went out.
    epi.Record(ledger);
  };

  // Report arrival at the master. Lives outside the scheduled callback so
  // the event record only captures (&deliver, j, elems) — small enough for
  // the EventQueue's inline storage, keeping the event path allocation-free.
  auto deliver = [&](std::size_t j, std::size_t elems) {
    // Master receive is serialized (the bottleneck).
    const simnet::VirtualTime recv_cost =
        transfer(static_cast<simnet::Rank>(j), elems);
    const simnet::VirtualTime recv_begin = std::max(master_busy, queue.Now());
    master_busy = recv_begin + recv_cost;
    if (eo.tracing()) {
      eo.AuxSpan(master_track, "recv_report", recv_begin, master_busy,
                 worker_iter[j]);
    }
    ws.CopyW(j, w_latest[j]);
    contributed_update[j] = K + 1;
    waiting.push_back(j);
    ++fresh_count;
    if (K < options.max_iterations && fire_condition()) {
      do_update(master_busy);
    }
  };

  // Books one report transmission of worker j (`span` names its trace span).
  auto count_report = [&](std::size_t j, std::size_t elems, const char* span) {
    result.elements_sent += elems;
    ++result.messages_sent;
    if (eo.on()) {
      *c_report_elements += elems;
      ++*c_report_messages;
      *c_report_bytes += elems * report_elem_bytes;
      eo.Span(span, ledger, j, worker_iter[j]);
    }
  };

  // Worker j computes x/w and schedules its report's arrival at the master.
  start_compute = [&](std::size_t j) {
    ++worker_iter[j];
    eo.Mark(ledger, j);
    const double flops = ws.XWStep(j);
    const double mult = ComputeMultiplier(
        cfg_.cluster, stragglers, static_cast<simnet::Rank>(j), worker_iter[j]);
    ledger.ChargeCompute(j, cost.ComputeTime(flops) * mult);
    eo.Span("x_update", ledger, j, worker_iter[j]);

    const std::size_t elems = report_elems(j);
    const simnet::VirtualTime send_cost =
        transfer(static_cast<simnet::Rank>(j), elems);
    if (faulty) {
      // Lost reports: the worker retransmits after an ack timeout, at most
      // max_retries times; the attempt after the last retry always goes
      // through (the master polls workers stalled past that point).
      std::uint32_t attempt = 0;
      while (attempt < cfg_.cluster.fault.max_retries &&
             faults.DropsMessage(worker_iter[j], /*channel=*/0,
                                 static_cast<simnet::Rank>(j), attempt)) {
        ledger.ChargeComm(j, send_cost);  // the transfer that was lost
        ledger.ChargeComm(j, cfg_.cluster.fault.retry_timeout_s);
        count_report(j, elems, "fault_retry");
        ++result.faults.dropped_messages;
        ++result.faults.retries;
        ++attempt;
        PSRA_SLOG(kDebug, "fault").At(ledger[j].clock)
            << "worker " << j << " report dropped, retry " << attempt << "/"
            << cfg_.cluster.fault.max_retries;
      }
    }
    ledger.ChargeComm(j, send_cost);
    count_report(j, elems, "report_send");

    simnet::VirtualTime arrival = ledger[j].clock;
    if (faulty) {
      const simnet::VirtualTime delay =
          faults.MessageDelay(worker_iter[j], /*channel=*/0,
                              static_cast<simnet::Rank>(j), master_home);
      if (delay > 0.0) {
        arrival += delay;  // in flight: the sender's clock is unaffected
        ++result.faults.delayed_messages;
      }
    }
    queue.ScheduleAt(arrival,
                     [&deliver, j, elems] { deliver(j, elems); });
  };

  for (std::size_t j = 0; j < world; ++j) start_compute(j);
  queue.Run();

  // If the event queue drained before K reached max_iterations (all workers
  // waiting but the barrier cannot fire), force the remaining updates from
  // what is available — this only happens with extreme configs; normal runs
  // never enter this loop.
  while (K < options.max_iterations && !waiting.empty()) {
    do_update(master_busy);
    queue.Run();
  }

  epi.Finish(z_global, ledger);
  return result;
}

}  // namespace psra::admm
