#include "admm/gadmm.hpp"

#include "admm/instrument.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <cmath>

#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::admm {

Gadmm::Gadmm(const GadmmConfig& config) : cfg_(config) {
  PSRA_REQUIRE(config.quantization_bits <= 16,
               "quantization_bits must be in [0, 16]");
}

std::string Gadmm::Name() const {
  if (cfg_.quantization_bits == 0) return "GADMM";
  return "Q-GADMM(" + std::to_string(cfg_.quantization_bits) + "b)";
}

namespace {

/// Stochastic uniform quantization of (value - reference) with 2^bits
/// levels, reconstructed against the reference — both ends derive the same
/// result, so only the quantized payload crosses the wire.
void QuantizeDelta(std::span<const double> value, std::span<double> out,
                   std::span<const double> reference, std::uint32_t bits,
                   Rng& rng) {
  const double levels = std::pow(2.0, bits) - 1.0;
  double radius = 0.0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    radius = std::max(radius, std::fabs(value[i] - reference[i]));
  }
  if (radius == 0.0) {
    std::copy(value.begin(), value.end(), out.begin());
    return;
  }
  const double step = 2.0 * radius / levels;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const double delta = value[i] - reference[i];
    const double scaled = (delta + radius) / step;
    double lower = std::floor(scaled);
    // Stochastic rounding: unbiased quantization, as in Q-GADMM.
    if (rng.NextDouble() < scaled - lower) lower += 1.0;
    out[i] = reference[i] + lower * step - radius;
  }
}

}  // namespace

RunResult Gadmm::Run(const ConsensusProblem& problem,
                     const RunOptions& options) const {
  const simnet::Topology topo(cfg_.cluster.num_nodes,
                              cfg_.cluster.workers_per_node,
                              cfg_.cluster.num_racks);
  PSRA_REQUIRE(problem.num_workers() == topo.world_size(),
               "problem must be partitioned into one shard per worker");
  // GADMM's chain duals (lambda) are not part of a RunCheckpoint, so a
  // restored snapshot cannot reconstruct its full state.
  PSRA_REQUIRE(options.warm_start == nullptr,
               "GADMM does not support warm starts (chain duals are not "
               "checkpointed)");
  PSRA_REQUIRE(options.checkpoint_out == nullptr,
               "GADMM cannot capture a run checkpoint (chain duals are not "
               "checkpointed)");
  PSRA_REQUIRE(!options.stopping.enabled,
               "GADMM has no residual-based stopping test");
  PSRA_REQUIRE(!options.adaptive_rho.enabled, "GADMM has no adaptive penalty");
  const simnet::CostModel cost(cfg_.cluster.cost);
  const simnet::StragglerModel stragglers(topo, cfg_.cluster.straggler);
  const simnet::FaultPlan faults(cfg_.cluster.fault);
  // The chain has no leaders or collectives, so only the crash schedule
  // applies here; drop/delay/leader-death knobs concern the WLG algorithms.
  const bool faulty = !faults.Empty() && !faults.crashes().empty();
  const auto world = static_cast<std::size_t>(topo.world_size());
  const auto d = static_cast<std::size_t>(problem.dim());
  const double rho = problem.rho;

  engine::TimeLedger ledger(world);
  RunResult result;
  result.algorithm = Name();
  Rng rng(cfg_.cluster.seed ^ 0x6ADuLL);

  // ---- Observability (no-op without RunOptions::obs; see DESIGN.md §9) ---
  EngineObs eo(options.obs, world);
  std::uint64_t* c_push_elements = nullptr;
  std::uint64_t* c_push_messages = nullptr;
  std::uint64_t* c_push_bytes = nullptr;
  obs::Histogram* h_recovery = nullptr;
  // Wire width of one chain transfer (quantized payloads carry `bits` per
  // value plus a 16-byte scale/radius header).
  const auto push_bytes = static_cast<std::uint64_t>(
      cfg_.quantization_bits == 0
          ? static_cast<double>(d) * cfg_.cluster.cost.value_bytes
          : static_cast<double>(d) * cfg_.quantization_bits / 8.0 + 16.0);
  if (eo.on()) {
    auto& m = eo.metrics();
    c_push_elements = &m.Counter("comm.chain.push.elements");
    c_push_messages = &m.Counter("comm.chain.push.messages");
    c_push_bytes = &m.Counter("comm.chain.push.bytes");
    static constexpr double kTimeBounds[] = {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    h_recovery = &m.Histo("fault.recovery_latency_s", kTimeBounds);
  }
  // Convergence timeline (DESIGN.md §13). GADMM has no consensus z: the
  // row and the record evaluate the mean model, and the "primal residual" is
  // the chain-link disagreement sqrt(sum_n ||x_n - x_{n+1}||^2), which goes
  // to zero at consensus.
  RunEpilogue epi(eo, problem, options, result, ResidualSeries::kPrimal,
                  {c_push_bytes});
  CounterDelta messages(eo, "ts.messages", {c_push_messages});

  // Chain state. neighbor_copy[n][side]: worker n's latest copy of
  // x_{n-1} (side 0) / x_{n+1} (side 1). last_sent[n][side]: the model n's
  // neighbor on that side last received from n (quantization reference).
  std::vector<LocalSolver> local;
  local.reserve(world);
  for (std::size_t n = 0; n < world; ++n) {
    local.emplace_back(&problem.shards[n], options.local_solver, rho);
  }
  std::vector<linalg::DenseVector> x(world, linalg::DenseVector(d, 0.0));
  std::vector<linalg::DenseVector> lambda(world > 1 ? world - 1 : 0,
                                          linalg::DenseVector(d, 0.0));
  std::vector<std::array<linalg::DenseVector, 2>> neighbor_copy(
      world, {linalg::DenseVector(d, 0.0), linalg::DenseVector(d, 0.0)});
  std::vector<std::array<linalg::DenseVector, 2>> last_sent(
      world, {linalg::DenseVector(d, 0.0), linalg::DenseVector(d, 0.0)});

  // ---- Fault-injection state (crash-restart over the chain) --------------
  // With an empty crash schedule none of this is touched and the iteration
  // body is byte-for-byte the fault-free path.
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::vector<char> down_now;
  std::vector<std::uint64_t> up_at;
  // A worker's recoverable chain state: x, its dual (owned link), neighbor
  // copies. Captured every checkpoint_every iterations for live workers.
  std::vector<linalg::DenseVector> ckpt_x;
  std::vector<linalg::DenseVector> ckpt_lambda;
  std::vector<std::array<linalg::DenseVector, 2>> ckpt_copy;
  if (faulty) {
    down_now.assign(world, 0);
    up_at.assign(world, kNever);
    ckpt_x = x;
    ckpt_lambda = lambda;
    ckpt_copy = neighbor_copy;
  }
  const simnet::VirtualTime recovery_transfer =
      cost.DenseTransferTime(simnet::Link::kInterNode, 4 * d);

  // Wire cost of one model transfer: quantized payloads carry `bits` per
  // value plus a scale/radius header; unquantized ones are dense doubles.
  auto transfer_time = [&](std::size_t from, std::size_t to) {
    const simnet::Link link = topo.LinkBetween(
        static_cast<simnet::Rank>(from), static_cast<simnet::Rank>(to));
    if (link == simnet::Link::kLocal) return 0.0;
    if (cfg_.quantization_bits == 0) {
      return cost.DenseTransferTime(link, d);
    }
    const double bytes =
        static_cast<double>(d) * cfg_.quantization_bits / 8.0 + 16.0;
    return cost.LatencyOf(link) + bytes / cost.BandwidthOf(link);
  };

  // Eq. 4 solve of the chain x_n subproblem against current neighbor copies:
  // an interior worker's two proximal terms are one of weight 2 rho around
  // their midpoint.
  linalg::DenseVector v(d), center(d);
  auto update_x = [&](std::size_t n, std::uint64_t iter) {
    solver::FlopCounter flops;
    const bool has_left = n > 0, has_right = n + 1 < world;
    double weight = rho;
    if (has_left && has_right) {
      for (std::size_t i = 0; i < d; ++i) {
        center[i] = 0.5 * (neighbor_copy[n][0][i] + neighbor_copy[n][1][i]);
        v[i] = lambda[n][i] - lambda[n - 1][i];
      }
      weight = 2.0 * rho;
    } else if (has_right) {  // head of the chain
      center = neighbor_copy[n][1];
      v = lambda[n];
    } else if (has_left) {  // tail of the chain
      center = neighbor_copy[n][0];
      for (std::size_t i = 0; i < d; ++i) v[i] = -lambda[n - 1][i];
    } else {  // single worker: plain regularized fit around 0
      linalg::SetZero(center);
      linalg::SetZero(v);
    }
    local[n].Solve(x[n], v, center, weight, options.tron, &flops);
    const double mult = ComputeMultiplier(cfg_.cluster, stragglers,
                                          static_cast<simnet::Rank>(n), iter);
    ledger.ChargeCompute(n, cost.ComputeTime(flops.flops) * mult);
  };

  // Worker n pays for and counts one model transfer to `to`.
  auto send = [&](std::size_t n, std::size_t to) {
    ledger.ChargeComm(n, transfer_time(n, to));
    result.elements_sent += d;
    ++result.messages_sent;
    if (c_push_messages != nullptr) {
      *c_push_elements += d;
      ++*c_push_messages;
      *c_push_bytes += push_bytes;
    }
  };

  // Worker n pushes its model to neighbor `to`; the receiver's copy and the
  // quantization reference are updated with the (possibly quantized) value.
  linalg::DenseVector wire(d);
  auto push_model = [&](std::size_t n, std::size_t to) {
    if (faulty && down_now[n] != 0) return;  // dead senders send nothing
    const std::size_t side_sender = to > n ? 1 : 0;  // n's side facing `to`
    const std::size_t side_receiver = to > n ? 0 : 1;
    if (faulty && down_now[to] != 0) {
      // The sender does not know its neighbor is dead: the transfer is paid
      // for and counted, but never delivered.
      send(n, to);
      return;
    }
    if (cfg_.quantization_bits == 0) {
      wire = x[n];
    } else {
      QuantizeDelta(x[n], wire,
                    cfg_.quantize_error_feedback ? last_sent[n][side_sender]
                                                 : linalg::DenseVector(d, 0.0),
                    cfg_.quantization_bits, rng);
      last_sent[n][side_sender] = wire;
    }
    send(n, to);
    neighbor_copy[to][side_receiver] = wire;
    // Receiver cannot proceed before the arrival.
    ledger.WaitUntil(to, ledger[n].clock);
  };

  linalg::DenseVector mean_x(d, 0.0);  // the model the epilogue evaluates
  auto chain_disagreement = [&] {
    double acc = 0.0;
    for (std::size_t n = 0; n + 1 < world; ++n) {
      for (std::size_t i = 0; i < d; ++i) {
        const double diff = x[n][i] - x[n + 1][i];
        acc += diff * diff;
      }
    }
    return std::sqrt(acc);
  };

  for (std::uint64_t iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations_run = iter;
    eo.MarkAll(ledger);

    // ---- Fault bookkeeping: recoveries first, then fresh crashes ---------
    if (faulty) {
      for (std::size_t n = 0; n < world; ++n) {
        if (down_now[n] != 0 && up_at[n] == iter) {
          x[n] = ckpt_x[n];
          if (n + 1 < world) lambda[n] = ckpt_lambda[n];
          neighbor_copy[n] = ckpt_copy[n];
          ledger.SkipUntil(n, ledger.MaxClock());
          ledger.ChargeCompute(n, cfg_.cluster.fault.restart_delay_s);
          ledger.ChargeComm(n, recovery_transfer);
          down_now[n] = 0;
          up_at[n] = kNever;
          ++result.faults.recoveries;
          PSRA_SLOG(kInfo, "fault").At(ledger[n].clock)
              << "chain worker " << n << " recovered at iter " << iter;
          if (eo.on()) {
            h_recovery->Observe(ledger[n].clock - eo.mark(n));
            eo.Span("fault_recover", ledger, n, iter);
          }
        }
        if (const auto crash = faults.CrashAt(static_cast<simnet::Rank>(n),
                                              iter);
            crash && down_now[n] == 0) {
          down_now[n] = 1;
          up_at[n] = crash->down_iterations == 0
                         ? kNever
                         : iter + crash->down_iterations;
          ++result.faults.worker_crashes;
        }
        if (down_now[n] != 0) ++result.faults.down_worker_iterations;
      }
    }
    const auto is_down = [&](std::size_t n) {
      return faulty && down_now[n] != 0;
    };

    // Head group (even chain positions): update then push to neighbors.
    for (std::size_t n = 0; n < world; n += 2) {
      if (!is_down(n)) update_x(n, iter);
    }
    eo.SpanAll("x_update", ledger, iter);
    for (std::size_t n = 0; n < world; n += 2) {
      if (n > 0) push_model(n, n - 1);
      if (n + 1 < world) push_model(n, n + 1);
    }
    eo.SpanAll("push_model", ledger, iter);
    // Tail group (odd positions): update with fresh head models, push back.
    for (std::size_t n = 1; n < world; n += 2) {
      if (!is_down(n)) update_x(n, iter);
    }
    eo.SpanAll("x_update", ledger, iter);
    for (std::size_t n = 1; n < world; n += 2) {
      push_model(n, n - 1);
      if (n + 1 < world) push_model(n, n + 1);
    }
    eo.SpanAll("push_model", ledger, iter);

    // Dual ascent on every link (local at both endpoints; we keep one copy).
    for (std::size_t n = 0; n + 1 < world; ++n) {
      if (is_down(n)) continue;  // the link owner is dead: dual frozen
      // Endpoint n uses its own x and its copy of x_{n+1} (just received).
      for (std::size_t i = 0; i < d; ++i) {
        lambda[n][i] += rho * (x[n][i] - neighbor_copy[n][1][i]);
      }
      ledger.ChargeCompute(n, cost.ComputeTime(3.0 * static_cast<double>(d)));
    }
    eo.SpanAll("dual_update", ledger, iter);

    // ---- Periodic checkpoint of the live workers' chain state ------------
    if (faulty && iter % cfg_.cluster.fault.checkpoint_every == 0) {
      for (std::size_t n = 0; n < world; ++n) {
        if (down_now[n] != 0) continue;
        ckpt_x[n] = x[n];
        if (n + 1 < world) ckpt_lambda[n] = lambda[n];
        ckpt_copy[n] = neighbor_copy[n];
      }
    }

    // ---- Timeline row, progress, trace record ----------------------------
    linalg::SetZero(mean_x);
    for (const auto& xi : x) linalg::Axpy(1.0, xi, mean_x);
    linalg::Scale(1.0 / static_cast<double>(world), mean_x);
    epi.Row(iter, mean_x, rho, chain_disagreement());
    messages.Append();
    epi.Record(ledger);
  }

  epi.Finish(mean_x, ledger);
  return result;
}

}  // namespace psra::admm
