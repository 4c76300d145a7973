#include "admm/common.hpp"

#include <algorithm>
#include <cmath>

#include "solver/metrics.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::admm {

double ComputeMultiplier(const ClusterConfig& cluster,
                         const simnet::Topology& topo,
                         const simnet::StragglerModel& stragglers,
                         simnet::Rank worker, std::uint64_t iteration) {
  double mult = stragglers.ComputeMultiplier(worker, iteration);
  if (cluster.compute_jitter > 0.0) {
    Rng base(cluster.seed ^ 0xC0FFEEULL);
    Rng iter_rng = base.Fork(iteration);
    Rng wr = iter_rng.Fork(worker);
    mult *= wr.NextDouble(1.0, 1.0 + cluster.compute_jitter);
  }
  (void)topo;
  return mult;
}

bool UseGramSolver(const LocalSolverOptions& solver, std::uint64_t rows,
                   std::uint64_t cols) {
  switch (solver.mode) {
    case LocalSolverOptions::Mode::kCg:
      return false;
    case LocalSolverOptions::Mode::kGram:
      return true;
    case LocalSolverOptions::Mode::kAuto:
      return cols > 0 && cols <= solver.max_gram_dim &&
             static_cast<double>(rows) >=
                 solver.tall_ratio * static_cast<double>(cols);
  }
  return false;
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
    local_.emplace_back(&problem_->shards[i], problem_->rho);
    // Tall-vs-wide selection is per worker: shard shapes differ, and the
    // Gram buffer is preallocated here so XWStep stays allocation-free.
    local_.back().SetUseGramHessian(
        UseGramSolver(options_->local_solver, problem_->shards[i].num_samples(),
                      problem_->shards[i].num_features()));
  }
  x_.assign(n, linalg::DenseVector(d, 0.0));
  y_.assign(n, linalg::DenseVector(d, 0.0));
  w_.assign(n, linalg::DenseVector(d, 0.0));
  z_.assign(n, linalg::DenseVector(d, 0.0));
  tron_ws_.resize(n);
}

double WorkerSet::XWStep(std::size_t i) {
  PSRA_REQUIRE(i < local_.size(), "worker index out of range");
  solver::FlopCounter flops;
  local_[i].SetRho(rho_);
  local_[i].SetIterationTerms(y_[i], z_[i]);
  solver::TronMinimize(local_[i], x_[i], options_->tron, &flops, tron_ws_[i]);
  solver::WLocal(rho_, x_[i], y_[i], w_[i], &flops);
  return flops.flops;
}

void WorkerSet::XWStepAll(std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  PSRA_REQUIRE(flops_out.size() == size(), "flops_out size mismatch");
  PSRA_REQUIRE(wall_out == nullptr || wall_out->size() == size(),
               "wall_out size mismatch");
  auto body = [&](std::size_t i) {
    if (wall_out != nullptr) {
      const double t0 = engine::ThreadPool::ThreadSeconds();
      flops_out[i] = XWStep(i);
      (*wall_out)[i] = engine::ThreadPool::ThreadSeconds() - t0;
    } else {
      flops_out[i] = XWStep(i);
    }
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
    if (wall_out != nullptr) {
      const double t0 = engine::ThreadPool::ThreadSeconds();
      flops_out[i] = XWStep(i);
      (*wall_out)[i] = engine::ThreadPool::ThreadSeconds() - t0;
    } else {
      flops_out[i] = XWStep(i);
    }
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
  if (wall_out != nullptr) {
    const double t0 = engine::ThreadPool::ThreadSeconds();
    flops_out[first] = ZYStep(first, W, num_contributors);
    (*wall_out)[first] = engine::ThreadPool::ThreadSeconds() - t0;
  } else {
    flops_out[first] = ZYStep(first, W, num_contributors);
  }
  auto body = [&](std::size_t k) {
    const auto i = static_cast<std::size_t>(ranks[k + 1]);
    if (wall_out != nullptr) {
      const double t0 = engine::ThreadPool::ThreadSeconds();
      flops_out[i] = ZYStepFrom(i, first);
      (*wall_out)[i] = engine::ThreadPool::ThreadSeconds() - t0;
    } else {
      flops_out[i] = ZYStepFrom(i, first);
    }
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(ranks.size() - 1, body);
  } else {
    engine::SerialFor(ranks.size() - 1, body);
  }
}

double WorkerSet::ZYStepFrom(std::size_t i, std::size_t src) {
  PSRA_REQUIRE(i < z_.size() && src < z_.size(), "worker index out of range");
  solver::FlopCounter flops;
  flops.Add(3.0 * static_cast<double>(z_[src].size()));  // ZUpdate's charge
  z_[i] = z_[src];
  solver::YUpdate(rho_, x_[i], z_[i], y_[i], &flops);
  return flops.flops;
}

void WorkerSet::SetRho(double rho) {
  PSRA_REQUIRE(rho > 0.0, "rho must be positive");
  rho_ = rho;
}

WorkerSet::Residuals WorkerSet::ComputeResiduals(
    std::span<const double> z_prev_mean) const {
  PSRA_REQUIRE(z_prev_mean.size() == dim(), "z_prev dimension mismatch");
  const std::size_t n = x_.size();

  // Per-worker norms are independent, so they can run on the pool; the
  // squares are then folded serially in ascending worker order, which keeps
  // the sums bitwise-identical to a fully serial pass.
  norm_primal_.resize(n);
  norm_x_.resize(n);
  norm_y_.resize(n);
  auto body = [&](std::size_t i) {
    linalg::DistanceAndNorms(x_[i], z_[i], y_[i], norm_primal_[i], norm_x_[i],
                             norm_y_[i]);
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(n, body);
  } else {
    engine::SerialFor(n, body);
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

linalg::DenseVector WorkerSet::MeanZ() const {
  linalg::DenseVector out;
  MeanZInto(out);
  return out;
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

IterationRecord WorkerSet::Evaluate(std::uint64_t iteration,
                                    const engine::TimeLedger& ledger) const {
  IterationRecord rec;
  rec.iteration = iteration;
  const linalg::DenseVector zbar = MeanZ();
  rec.objective =
      solver::GlobalObjective(problem_->train, zbar, problem_->lambda);
  rec.accuracy = solver::Accuracy(problem_->test, zbar);
  rec.relative_error = 0.0;  // filled by RunResult::ApplyReference
  rec.cal_time = ledger.MeanCalTime();
  rec.comm_time = ledger.MeanCommTime();
  rec.makespan = ledger.MaxClock();
  return rec;
}

}  // namespace psra::admm
