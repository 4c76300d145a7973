// Shared machinery for the ADMM algorithm family: cluster/run configuration
// and the per-worker state (x_i, y_i, w_i, z_i) with the update steps all
// algorithms share (paper eq. 4, 6, 8, 10).
#pragma once

#include <cstdint>
#include <vector>

#include "admm/local_solver.hpp"
#include "admm/problem.hpp"
#include "admm/trace.hpp"
#include "engine/ledger.hpp"
#include "engine/thread_pool.hpp"
#include "simnet/cost_model.hpp"
#include "simnet/fault.hpp"
#include "simnet/straggler.hpp"
#include "simnet/topology.hpp"
#include "solver/prox.hpp"
#include "solver/tron.hpp"

namespace psra::obs {
struct ObsContext;
}

namespace psra::admm {

struct RunCheckpoint;

/// The simulated cluster an algorithm runs on.
struct ClusterConfig {
  std::uint32_t num_nodes = 1;
  std::uint32_t workers_per_node = 1;
  /// Racks partition the nodes contiguously (must divide num_nodes). With
  /// more than one rack, inter-node links within a rack stay on the rack
  /// network while cross-rack messages pay the slower kInterRack fabric, and
  /// the hierarchical PSRA engine runs its leader collective recursively
  /// (per rack, then across racks). One rack (the default) reproduces the
  /// original two-level cluster exactly.
  std::uint32_t num_racks = 1;
  simnet::CostModelConfig cost;
  /// Injected stragglers (paper Section 5.5); probability 0 disables.
  simnet::StragglerConfig straggler;
  /// Injected faults: worker crashes, leader deaths, message drops/delays.
  /// The default is an EMPTY plan, under which every algorithm is
  /// bitwise-identical to a build without the fault subsystem (pinned by
  /// test_determinism).
  simnet::FaultConfig fault;
  /// Natural per-iteration compute-time jitter: each worker's compute charge
  /// is multiplied by U[1, 1+jitter]. Real clusters always jitter (OS noise,
  /// cache effects); this is what makes SSP staleness and dynamic grouping
  /// observable in the simulator. 0 disables.
  double compute_jitter = 0.05;
  std::uint64_t seed = 123;

  std::uint32_t world_size() const { return num_nodes * workers_per_node; }
};

/// Residual-balancing adaptive penalty (Boyd et al. §3.4.1; the paper's
/// Section 3 cites AADMM for the same problem — ADMM is sensitive to rho).
/// After each iteration: if ||r|| > mu ||s||, rho *= tau; if ||s|| > mu
/// ||r||, rho /= tau; clamped to [rho_min, rho_max]. The update is driven by
/// globally aggregated residual norms, so every worker applies the same rho.
struct AdaptiveRhoConfig {
  bool enabled = false;
  double mu = 10.0;
  double tau = 2.0;
  double rho_min = 1e-4;
  double rho_max = 1e4;
};

/// Residual-based termination (Boyd et al. §3.3):
///   ||r|| <= sqrt(N d) eps_abs + eps_rel * max(||x||, sqrt(N)||z||)
///   ||s|| <= sqrt(N d) eps_abs + eps_rel * ||y||
/// where r/s are the primal/dual residuals of the consensus problem.
struct StoppingConfig {
  bool enabled = false;
  double eps_abs = 1e-4;
  double eps_rel = 1e-3;
};

/// One engine iteration's headline state, pushed to a ProgressSink when the
/// caller asked for live progress. Fields an engine does not track (e.g.
/// AD-ADMM's residual norms) stay zero.
struct ProgressUpdate {
  std::uint64_t iteration = 0;
  std::uint64_t max_iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double rho = 0.0;
};

/// Receiver for per-iteration progress (see admm/progress.hpp for the
/// rate-limited stderr printer). Engines call Report once per iteration
/// behind a null check, so an unset sink costs one predictable branch.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void Report(const ProgressUpdate& update) = 0;
};

struct RunOptions {
  std::uint64_t max_iterations = 100;
  solver::TronOptions tron;
  /// Local solver selection for the x-update (see LocalSolverOptions).
  LocalSolverOptions local_solver;
  /// Optional host thread pool for the per-worker x-updates (wall-clock
  /// speed only; virtual time is unaffected).
  engine::ThreadPool* pool = nullptr;
  /// Record an IterationRecord every `eval_every` iterations (plus the last).
  std::uint64_t eval_every = 1;
  bool record_trace = true;
  /// Residual-driven rho and stopping: PSRA-HGADMM implements both; the
  /// other engines reject an enabled config instead of ignoring it.
  AdaptiveRhoConfig adaptive_rho;
  StoppingConfig stopping;
  /// Optional observability sink (spans + metrics). Null — the default —
  /// compiles every instrumentation site down to a pointer test, keeping the
  /// hot path allocation-free and the results bitwise-identical to an
  /// uninstrumented run (pinned by test_obs).
  obs::ObsContext* obs = nullptr;
  /// Optional live-progress receiver (iteration, residuals, rho), reported
  /// once per iteration. Null — the default — costs one branch per
  /// iteration; progress never feeds back into the run.
  ProgressSink* progress = nullptr;
  /// Optional restored checkpoint: the engine seeds every worker's (x, y, z)
  /// and rho from it and resumes at iteration warm_start->iteration + 1,
  /// running through max_iterations as usual. Virtual clocks restart at
  /// zero — the checkpoint carries algorithm state, not timing — so a
  /// resumed run reproduces the remaining iterations' algebra exactly
  /// (bitwise, for fixed-membership grouping with adaptive rho off).
  /// Engines without per-worker consensus state reject a warm start.
  const RunCheckpoint* warm_start = nullptr;
  /// When non-null, the engine snapshots every worker's state (and rho)
  /// into this checkpoint right after iteration `checkpoint_at` completes.
  /// Together with `warm_start` this is the split-run facility: run to K,
  /// capture, and a fresh Run resumes from K + 1 with identical algebra.
  /// Engines that do not support warm starts reject it.
  RunCheckpoint* checkpoint_out = nullptr;
  std::uint64_t checkpoint_at = 0;
};

/// Runs `step` (which returns flops) and, when `wall` is non-null, stores
/// the host seconds it took on the calling thread into (*wall)[i]: the
/// per-worker wall attribution the tracer reads. Untraced runs pass null
/// and skip the clock reads.
template <typename Step>
double TimedStep(std::vector<double>* wall, std::size_t i, Step&& step) {
  if (wall == nullptr) return step();
  const double t0 = engine::ThreadPool::ThreadSeconds();
  const double flops = step();
  (*wall)[i] = engine::ThreadPool::ThreadSeconds() - t0;
  return flops;
}

/// Deterministic compute-time multiplier combining natural jitter and the
/// straggler model for (worker, iteration).
double ComputeMultiplier(const ClusterConfig& cluster,
                         const simnet::StragglerModel& stragglers,
                         simnet::Rank worker, std::uint64_t iteration);

/// Per-worker ADMM state and the local update steps.
class WorkerSet {
 public:
  WorkerSet(const ConsensusProblem* problem, const RunOptions* options);

  std::uint64_t size() const { return problem_->num_workers(); }
  std::uint64_t dim() const { return problem_->dim(); }

  /// Mutable access to x, y and z drops the worker's cached residual norms
  /// (see ComputeResiduals), so write through the returned reference before
  /// the worker's next ZYStepFrom, not after it.
  linalg::DenseVector& x(std::size_t i) { return Touch(i, x_); }
  linalg::DenseVector& y(std::size_t i) { return Touch(i, y_); }
  linalg::DenseVector& w(std::size_t i) { return w_[i]; }
  linalg::DenseVector& z(std::size_t i) { return Touch(i, z_); }
  const linalg::DenseVector& x(std::size_t i) const { return x_[i]; }
  const linalg::DenseVector& y(std::size_t i) const { return y_[i]; }
  const linalg::DenseVector& z(std::size_t i) const { return z_[i]; }
  const linalg::DenseVector& w(std::size_t i) const { return w_[i]; }
  /// All per-worker w vectors, for passing straight into a collective when
  /// the caller does not need to mutate its input snapshots.
  std::span<const linalg::DenseVector> w_all() const { return w_; }

  /// Runs the x-update (eq. 4, column-compacted: see LocalSolver) and w
  /// computation (eq. 8) for worker i against its current z_i/y_i. Returns
  /// flops performed.
  double XWStep(std::size_t i);

  /// Runs XWStep for all workers, optionally on the host pool. flops_out
  /// must have size() entries. When `wall_out` is non-null (also size()
  /// entries) each worker's slot receives the host seconds its own step took
  /// on whichever pool thread ran it — per-worker wall attribution for the
  /// tracer; pass null on untraced runs to avoid the clock reads.
  void XWStepAll(std::vector<double>& flops_out,
                 std::vector<double>* wall_out = nullptr);

  /// Runs XWStep for the workers in `ranks` only (the fault path: crashed
  /// workers compute nothing). flops_out must have size() entries; entries
  /// of workers not in `ranks` are left untouched. `wall_out` as above.
  void XWStepAll(std::span<const simnet::Rank> ranks,
                 std::vector<double>& flops_out,
                 std::vector<double>* wall_out = nullptr);

  /// Crash-restart recovery: replaces worker i's state with a checkpointed
  /// snapshot and recomputes its w from the restored x/y (w is derived
  /// state, not part of a checkpoint).
  void RestoreWorker(std::size_t i, const linalg::DenseVector& x,
                     const linalg::DenseVector& y,
                     const linalg::DenseVector& z);

  /// z-update (eq. 10) + y-update (eq. 6) for worker i from aggregate W
  /// accumulated over `num_contributors` workers. Returns flops.
  double ZYStep(std::size_t i, std::span<const double> W,
                std::uint64_t num_contributors);

  /// Runs ZYStep for every worker in `ranks`, optionally on the host pool
  /// (workers touch disjoint state, so the result is order-independent).
  /// Per-worker flops land in flops_out[rank]; flops_out must have size()
  /// entries. `wall_out` as in XWStepAll: per-worker host seconds for the
  /// tracer, measured on whichever pool thread ran the step.
  void ZYStepAll(std::span<const simnet::Rank> ranks, std::span<const double> W,
                 std::uint64_t num_contributors,
                 std::vector<double>& flops_out,
                 std::vector<double>* wall_out = nullptr);

  /// The copy half of the ZYStepAll shortcut, exposed for callers that batch
  /// the consensus update across groups themselves: worker i adopts worker
  /// `src`'s freshly computed z (bitwise-identical to recomputing it — z
  /// depends only on the shared aggregate) and runs its own y-update. The
  /// same sweep caches worker i's residual norms for ComputeResiduals.
  /// Returns the virtual flops of the full computation being replaced.
  double ZYStepFrom(std::size_t i, std::size_t src);

  /// Mean of per-worker z (the consensus model used for metrics), written
  /// into `out` reusing its storage. Coordinate chunks run on the host pool,
  /// but each coordinate accumulates over workers in ascending order, so the
  /// result is bitwise-identical for any pool size.
  void MeanZInto(linalg::DenseVector& out) const;

  /// Current penalty parameter (problem rho, possibly adapted since).
  double rho() const { return rho_; }
  /// Applies a new penalty everywhere (x-subproblems and z/y updates).
  void SetRho(double rho);

  /// Consensus residual norms after the current iteration:
  ///   primal  ||r|| = sqrt(sum_i ||x_i - z_i||^2)
  ///   dual    ||s|| = rho * sqrt(N) * ||z_mean - z_prev_mean||
  /// plus the norms the stopping criterion scales against.
  struct Residuals {
    double primal = 0.0;
    double dual = 0.0;
    double x_norm = 0.0;  // sqrt(sum_i ||x_i||^2)
    double y_norm = 0.0;  // sqrt(sum_i ||y_i||^2)
    double z_norm = 0.0;  // sqrt(N) * ||z_mean||
  };
  /// Per-worker norms come from a cache that ZYStepFrom's sweep fills; only
  /// workers whose x, y or z changed since (XWStep, ZYStep, RestoreWorker, a
  /// mutable accessor) or that never took the sweep are re-streamed. Every
  /// result is bitwise what re-streaming all workers gives.
  Residuals ComputeResiduals(std::span<const double> z_prev_mean) const;
  /// Same residuals against `*z_mean`, which holds the previous consensus
  /// mean on entry and this iteration's mean (bitwise MeanZInto) on return:
  /// the dual residual needs that mean anyway, so callers skip MeanZInto.
  Residuals ComputeResiduals(linalg::DenseVector* z_mean) const;

  /// Evaluates the Boyd-style stopping test.
  static bool ShouldStop(const StoppingConfig& cfg, const Residuals& res,
                         std::uint64_t num_workers, std::uint64_t dim);

  /// Applies the residual-balancing rho update; returns the new rho.
  double MaybeAdaptRho(const AdaptiveRhoConfig& cfg, const Residuals& res);

 private:
  const ConsensusProblem* problem_;
  const RunOptions* options_;
  double rho_;
  std::vector<LocalSolver> local_;
  std::vector<linalg::DenseVector> x_, y_, w_, z_;
  linalg::DenseVector& Touch(std::size_t i,
                             std::vector<linalg::DenseVector>& v) {
    norms_fresh_[i] = 0;
    return v[i];
  }

  // Reduction scratch and the per-worker norm cache. Mutable because they
  // are caches: const methods (ComputeResiduals, MeanZInto) recycle them
  // instead of allocating per call. norm_*_[i] hold ||x_i - z_i||, ||x_i||
  // and ||y_i|| of the current state while norms_fresh_[i] is set (a char
  // per worker, so pooled steps write disjoint bytes).
  mutable linalg::DenseVector mean_scratch_;
  mutable std::vector<double> norm_primal_, norm_x_, norm_y_;
  mutable std::vector<char> norms_fresh_;
  mutable std::vector<std::size_t> stale_;
};

}  // namespace psra::admm
