#include "admm/common.hpp"

#include <algorithm>
#include <cmath>

#include "admm/instrument.hpp"
#include "solver/metrics.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::admm {

double ComputeMultiplier(const ClusterConfig& cluster,
                         const simnet::StragglerModel& stragglers,
                         simnet::Rank worker, std::uint64_t iteration) {
  double mult = stragglers.ComputeMultiplier(worker, iteration);
  if (cluster.compute_jitter > 0.0) {
    Rng base(cluster.seed ^ 0xC0FFEEULL);
    Rng iter_rng = base.Fork(iteration);
    Rng wr = iter_rng.Fork(worker);
    mult *= wr.NextDouble(1.0, 1.0 + cluster.compute_jitter);
  }
  return mult;
}

WorkerSet::WorkerSet(const ConsensusProblem* problem,
                     const RunOptions* options)
    : problem_(problem), options_(options), rho_(problem->rho) {
  PSRA_REQUIRE(problem_ != nullptr && options_ != nullptr,
               "null problem/options");
  PSRA_REQUIRE(rho_ > 0.0, "rho must be positive");
  const auto n = static_cast<std::size_t>(problem_->num_workers());
  const auto d = static_cast<std::size_t>(problem_->dim());
  local_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    local_.emplace_back(&problem_->shards[i], options_->local_solver,
                        problem_->rho);
  }
  x_.assign(n, linalg::DenseVector(d, 0.0));
  y_.assign(n, linalg::DenseVector(d, 0.0));
  w_.assign(n, linalg::DenseVector(d, 0.0));
  z_.assign(n, linalg::DenseVector(d, 0.0));
  norm_primal_.assign(n, 0.0);
  norm_x_.assign(n, 0.0);
  norm_y_.assign(n, 0.0);
  norms_fresh_.assign(n, 0);
  stale_.reserve(n);
}

double WorkerSet::XWStep(std::size_t i) {
  PSRA_REQUIRE(i < local_.size(), "worker index out of range");
  solver::FlopCounter flops;
  norms_fresh_[i] = 0;
  local_[i].Solve(x_[i], y_[i], z_[i], rho_, options_->tron, &flops);
  solver::WLocal(rho_, x_[i], y_[i], w_[i], &flops);
  return flops.flops;
}

void WorkerSet::XWStepAll(std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  PSRA_REQUIRE(flops_out.size() == size(), "flops_out size mismatch");
  PSRA_REQUIRE(wall_out == nullptr || wall_out->size() == size(),
               "wall_out size mismatch");
  auto body = [&](std::size_t i) {
    flops_out[i] = TimedStep(wall_out, i, [&] { return XWStep(i); });
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(static_cast<std::size_t>(size()), body);
  } else {
    engine::SerialFor(static_cast<std::size_t>(size()), body);
  }
}

void WorkerSet::XWStepAll(std::span<const simnet::Rank> ranks,
                          std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  PSRA_REQUIRE(flops_out.size() == size(), "flops_out size mismatch");
  PSRA_REQUIRE(wall_out == nullptr || wall_out->size() == size(),
               "wall_out size mismatch");
  auto body = [&](std::size_t k) {
    const auto i = static_cast<std::size_t>(ranks[k]);
    flops_out[i] = TimedStep(wall_out, i, [&] { return XWStep(i); });
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(ranks.size(), body);
  } else {
    engine::SerialFor(ranks.size(), body);
  }
}

void WorkerSet::RestoreWorker(std::size_t i, const linalg::DenseVector& x,
                              const linalg::DenseVector& y,
                              const linalg::DenseVector& z) {
  PSRA_REQUIRE(i < x_.size(), "worker index out of range");
  const auto d = static_cast<std::size_t>(dim());
  PSRA_REQUIRE(x.size() == d && y.size() == d && z.size() == d,
               "checkpoint dimension mismatch");
  x_[i] = x;
  y_[i] = y;
  z_[i] = z;
  norms_fresh_[i] = 0;
  solver::WLocal(rho_, x_[i], y_[i], w_[i], /*flops=*/nullptr);
}

double WorkerSet::ZYStep(std::size_t i, std::span<const double> W,
                         std::uint64_t num_contributors) {
  PSRA_REQUIRE(i < z_.size(), "worker index out of range");
  solver::FlopCounter flops;
  solver::ZUpdateConfig zcfg;
  zcfg.regularizer = solver::Regularizer::kL1;
  zcfg.lambda = problem_->lambda;
  zcfg.rho = rho_;
  zcfg.num_workers = num_contributors;
  norms_fresh_[i] = 0;
  solver::ZYUpdate(zcfg, W, x_[i], z_[i], y_[i], &flops);
  return flops.flops;
}

void WorkerSet::ZYStepAll(std::span<const simnet::Rank> ranks,
                          std::span<const double> W,
                          std::uint64_t num_contributors,
                          std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  PSRA_REQUIRE(flops_out.size() == size(), "flops_out size mismatch");
  PSRA_REQUIRE(wall_out == nullptr || wall_out->size() == size(),
               "wall_out size mismatch");
  if (ranks.empty()) return;
  // Every rank in this call receives the same aggregated W, so they all
  // compute the same z. Host-side shortcut: compute it once, copy it to the
  // other workers (bitwise-identical by construction), and charge the copies
  // the virtual flops of the computation they replace — the simulated
  // cluster still does the work on every worker.
  const auto first = static_cast<std::size_t>(ranks.front());
  flops_out[first] = TimedStep(
      wall_out, first, [&] { return ZYStep(first, W, num_contributors); });
  auto body = [&](std::size_t k) {
    const auto i = static_cast<std::size_t>(ranks[k + 1]);
    flops_out[i] = TimedStep(wall_out, i, [&] { return ZYStepFrom(i, first); });
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(ranks.size() - 1, body);
  } else {
    engine::SerialFor(ranks.size() - 1, body);
  }
}

double WorkerSet::ZYStepFrom(std::size_t i, std::size_t src) {
  PSRA_REQUIRE(i < z_.size() && src < z_.size(), "worker index out of range");
  // ZUpdate's and YUpdate's charges; the norms ride along uncharged, as the
  // residuals always have.
  const auto d = static_cast<double>(z_[src].size());
  linalg::CopyZUpdateY(rho_, x_[i], z_[src], z_[i], y_[i], norm_primal_[i],
                       norm_x_[i], norm_y_[i]);
  norms_fresh_[i] = 1;
  return 3.0 * d + 3.0 * d;
}

void WorkerSet::SetRho(double rho) {
  PSRA_REQUIRE(rho > 0.0, "rho must be positive");
  rho_ = rho;
}

WorkerSet::Residuals WorkerSet::ComputeResiduals(
    std::span<const double> z_prev_mean) const {
  PSRA_REQUIRE(z_prev_mean.size() == dim(), "z_prev dimension mismatch");
  const std::size_t n = x_.size();

  // Re-stream only the workers whose cached norms are stale. Per-worker
  // norms are independent, so they can run on the pool (when there is more
  // than one); the squares are then folded serially in ascending worker
  // order, which keeps the sums bitwise-identical to a fully serial pass.
  stale_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (norms_fresh_[i] == 0) stale_.push_back(i);
  }
  auto body = [&](std::size_t k) {
    const std::size_t i = stale_[k];
    linalg::DistanceAndNorms(x_[i], z_[i], y_[i], norm_primal_[i], norm_x_[i],
                             norm_y_[i]);
    norms_fresh_[i] = 1;
  };
  if (options_->pool != nullptr && stale_.size() > 1) {
    options_->pool->ParallelFor(stale_.size(), body);
  } else {
    engine::SerialFor(stale_.size(), body);
  }

  Residuals res;
  double primal_sq = 0.0, x_sq = 0.0, y_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    primal_sq += norm_primal_[i] * norm_primal_[i];
    x_sq += norm_x_[i] * norm_x_[i];
    y_sq += norm_y_[i] * norm_y_[i];
  }
  MeanZInto(mean_scratch_);
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  res.primal = std::sqrt(primal_sq);
  res.dual = rho_ * sqrt_n * linalg::DistanceL2(mean_scratch_, z_prev_mean);
  res.x_norm = std::sqrt(x_sq);
  res.y_norm = std::sqrt(y_sq);
  res.z_norm = sqrt_n * linalg::Norm2(mean_scratch_);
  return res;
}

WorkerSet::Residuals WorkerSet::ComputeResiduals(
    linalg::DenseVector* z_mean) const {
  PSRA_REQUIRE(z_mean != nullptr, "null consensus mean");
  const Residuals res = ComputeResiduals(std::span<const double>(*z_mean));
  z_mean->swap(mean_scratch_);  // this iteration's mean, no copy
  return res;
}

bool WorkerSet::ShouldStop(const StoppingConfig& cfg, const Residuals& res,
                           std::uint64_t num_workers, std::uint64_t dim) {
  if (!cfg.enabled) return false;
  const double scale =
      std::sqrt(static_cast<double>(num_workers) * static_cast<double>(dim));
  const double eps_primal =
      scale * cfg.eps_abs +
      cfg.eps_rel * std::max(res.x_norm, res.z_norm);
  const double eps_dual = scale * cfg.eps_abs + cfg.eps_rel * res.y_norm;
  return res.primal <= eps_primal && res.dual <= eps_dual;
}

double WorkerSet::MaybeAdaptRho(const AdaptiveRhoConfig& cfg,
                                const Residuals& res) {
  if (!cfg.enabled) return rho_;
  double rho = rho_;
  if (res.primal > cfg.mu * res.dual) {
    rho *= cfg.tau;
  } else if (res.dual > cfg.mu * res.primal) {
    rho /= cfg.tau;
  }
  rho = std::clamp(rho, cfg.rho_min, cfg.rho_max);
  if (rho != rho_) SetRho(rho);
  return rho_;
}

void WorkerSet::MeanZInto(linalg::DenseVector& out) const {
  const auto d = static_cast<std::size_t>(dim());
  const double inv_n = 1.0 / static_cast<double>(z_.size());
  out.resize(d);
  // Chunk over coordinates, never over workers: coordinate j always
  // accumulates z_0[j], z_1[j], ... in that order, so any chunking (and thus
  // any pool size) yields the bitwise-identical mean. Within a chunk the
  // workers form the outer loop — each z is streamed sequentially and the
  // inner loop vectorizes — while the per-coordinate summation order stays
  // exactly z_0 + z_1 + ... as before.
  auto chunk = [&](std::size_t begin, std::size_t end) {
    const auto& z0 = z_.front();
    for (std::size_t j = begin; j < end; ++j) out[j] = z0[j];
    for (std::size_t k = 1; k < z_.size(); ++k) {
      const auto& zk = z_[k];
      for (std::size_t j = begin; j < end; ++j) out[j] += zk[j];
    }
    for (std::size_t j = begin; j < end; ++j) out[j] *= inv_n;
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(d, /*grain=*/2048, chunk);
  } else {
    chunk(0, d);
  }
}

RunEpilogue::RunEpilogue(
    EngineObs& eo, const ConsensusProblem& problem, const RunOptions& options,
    RunResult& result, ResidualSeries residuals,
    std::initializer_list<const std::uint64_t*> byte_counters)
    : eo_(eo),
      problem_(problem),
      options_(options),
      result_(result),
      bytes_(eo, "ts.bytes", byte_counters) {
  if (!eo_.on()) return;
  objective_ = eo_.Series("ts.objective");
  rho_ = eo_.Series("ts.rho");
  if (residuals != ResidualSeries::kNone) {
    primal_ = eo_.Series("ts.primal_residual");
  }
  if (residuals == ResidualSeries::kPrimalDual) {
    dual_ = eo_.Series("ts.dual_residual");
  }
}

void RunEpilogue::Row(std::uint64_t iteration, const linalg::DenseVector& model,
                      double rho, double primal, double dual) {
  row_.iteration = iteration;
  row_.rho = rho;
  row_.primal_residual = primal;
  row_.dual_residual = dual;
  model_ = &model;
  row_has_objective_ = eo_.on();
  // Samples come from virtual-time state and hoisted counters only, so the
  // timeline is bitwise-identical across pool sizes; appends are plain
  // stores into pooled chunks (0 allocs/iter, pinned by test_alloc).
  if (eo_.on()) {
    row_.objective =
        solver::GlobalObjective(problem_.train, model, problem_.lambda);
    // Every hoisted series receives exactly one sample per row: the core
    // here, the engine's own series right after Row returns.
    eo_.timeline().BeginIteration(iteration);
    objective_->Append(row_.objective);
    rho_->Append(rho);
    bytes_.Append();
    if (primal_ != nullptr) primal_->Append(primal);
    if (dual_ != nullptr) dual_->Append(dual);
  }
  if (options_.progress != nullptr) {
    options_.progress->Report(
        {iteration, options_.max_iterations, primal, dual, rho});
  }
}

void RunEpilogue::Record(const engine::TimeLedger& ledger) {
  const std::uint64_t it = row_.iteration;
  if (!options_.record_trace ||
      (it % options_.eval_every != 0 && it != options_.max_iterations)) {
    return;
  }
  IterationRecord rec = row_;
  if (!row_has_objective_) {
    rec.objective =
        solver::GlobalObjective(problem_.train, *model_, problem_.lambda);
  }
  rec.accuracy = solver::Accuracy(problem_.test, *model_);
  rec.cal_time = ledger.MeanCalTime();
  rec.comm_time = ledger.MeanCommTime();
  rec.makespan = ledger.MaxClock();
  result_.trace.push_back(rec);
}

void RunEpilogue::Finish(const linalg::DenseVector& final_model,
                         const engine::TimeLedger& ledger) {
  RunResult& r = result_;
  r.final_z = final_model;
  r.final_objective =
      solver::GlobalObjective(problem_.train, r.final_z, problem_.lambda);
  r.final_accuracy = solver::Accuracy(problem_.test, r.final_z);
  r.total_cal_time = ledger.MeanCalTime();
  r.total_comm_time = ledger.MeanCommTime();
  r.makespan = ledger.MaxClock();
  if (!eo_.on()) return;
  auto& m = eo_.metrics();
  m.Counter("engine.iterations") += r.iterations_run;
  m.Counter("engine.censored_sends") += r.censored_sends;
  m.Counter("fault.worker_crashes") += r.faults.worker_crashes;
  m.Counter("fault.recoveries") += r.faults.recoveries;
  m.Counter("fault.leader_deaths") += r.faults.leader_deaths;
  m.Counter("fault.leader_reelections") += r.faults.leader_reelections;
  m.Counter("fault.dropped_messages") += r.faults.dropped_messages;
  m.Counter("fault.retries") += r.faults.retries;
  m.Counter("fault.delayed_messages") += r.faults.delayed_messages;
  m.Counter("fault.down_worker_iterations") += r.faults.down_worker_iterations;
  m.Gauge("run.makespan_s") = r.makespan;
  m.Gauge("run.cal_time_s") = r.total_cal_time;
  m.Gauge("run.comm_time_s") = r.total_comm_time;
  m.Gauge("run.iterations") = static_cast<double>(r.iterations_run);
  // Early-stop outcome (Boyd §3.3): lets any metrics.json distinguish a
  // converged run from a max-iteration exit, and records how many
  // iterations the tolerance took when it was reached.
  m.Gauge("stopping.converged") = r.stopped_early ? 1.0 : 0.0;
  m.Gauge("stopping.iterations_to_tolerance") =
      r.stopped_early ? static_cast<double>(r.iterations_run) : 0.0;
  // The per-series summary gauges (ts.*.samples/first/last/...) ride every
  // metrics.json.
  eo_.timeline().PublishSummary(m);
  r.metrics = m;
}

}  // namespace psra::admm
