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
struct WorkerCheckpoint;

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
///
/// A worker keeps x, y and w only on the d_i columns its shard touches (its
/// overlay, in LocalSolver::columns() order). Every other column, and all of
/// z, comes from a full-width base (x, y, w, z) that every worker with the
/// same history references: fault-free flat and hierarchical runs keep one
/// base for all workers. The closed-form x and w of the x-update and the z
/// and y update of a consensus round run once per base, and each round maps
/// every (old base, group) pair to one new base, so a worker that skips a
/// step or adopts another group's z moves to a base of its own. Every value
/// is bitwise what full-width per-worker vectors give (DESIGN.md §7 rule 8).
class WorkerSet {
 public:
  WorkerSet(const ConsensusProblem* problem, const RunOptions* options);

  std::uint64_t size() const { return problem_->num_workers(); }
  std::uint64_t dim() const { return problem_->dim(); }

  /// Full-width views of worker i's state. x, y and w are materialized from
  /// the base and the overlay into a per-worker cache once per change of the
  /// worker's state; z is its base's. Two threads must not materialize the
  /// same worker at once.
  const linalg::DenseVector& x(std::size_t i) const;
  const linalg::DenseVector& y(std::size_t i) const;
  const linalg::DenseVector& z(std::size_t i) const;
  const linalg::DenseVector& w(std::size_t i) const;
  /// Every worker's w, materialized as w(i) does (on the host pool), for
  /// passing straight into a collective.
  std::span<const linalg::DenseVector> w_all() const;

  /// Mutable access gives worker i a base of its own that holds its x and y
  /// at every column, and returns that base's vector. Writes count until the
  /// worker's next step (XWStep, a consensus step, RestoreWorker); each call
  /// drops the worker's cached residual norms.
  linalg::DenseVector& x(std::size_t i);
  linalg::DenseVector& y(std::size_t i);
  linalg::DenseVector& z(std::size_t i);

  /// Copies worker i's full-width x, y and z into the given vectors, reusing
  /// their storage (checkpoint capture).
  void CopyState(std::size_t i, linalg::DenseVector& x, linalg::DenseVector& y,
                 linalg::DenseVector& z) const;
  /// Copies worker i's full-width w into `out`, reusing its storage, without
  /// filling the view cache (a snapshot of the worker's report).
  void CopyW(std::size_t i, linalg::DenseVector& out) const;
  /// Worker i's count of |w_j| > 0, the entries SparseVector::FromDense(w(i))
  /// keeps, from its base's count and its overlay.
  std::size_t WNonzeros(std::size_t i) const;

  /// Runs the x-update (eq. 4, column-compacted: see LocalSolver) and w
  /// computation (eq. 8) for worker i against its current z_i/y_i. Returns
  /// flops performed.
  double XWStep(std::size_t i);

  /// Runs XWStep for all workers, optionally on the host pool. flops_out
  /// must have size() entries. When `wall_out` is non-null (also size()
  /// entries) each worker's slot receives the host seconds its own overlay
  /// solve took on whichever pool thread ran it — per-worker wall
  /// attribution for the tracer; pass null on untraced runs to avoid the
  /// clock reads. Each base's closed form runs once, in the same loop.
  void XWStepAll(std::vector<double>& flops_out,
                 std::vector<double>* wall_out = nullptr);

  /// Runs XWStep for the workers in `ranks` only (the fault path: crashed
  /// workers compute nothing). flops_out must have size() entries; entries
  /// of workers not in `ranks` are left untouched. `wall_out` as above.
  void XWStepAll(std::span<const simnet::Rank> ranks,
                 std::vector<double>& flops_out,
                 std::vector<double>* wall_out = nullptr);

  /// Crash-restart recovery: replaces worker i's state with a checkpointed
  /// snapshot on a base of its own and recomputes its w from the restored
  /// x/y (w is derived state, not part of a checkpoint).
  void RestoreWorker(std::size_t i, const linalg::DenseVector& x,
                     const linalg::DenseVector& y,
                     const linalg::DenseVector& z);

  /// Restores every worker from `workers` (one per worker), recomputing w as
  /// RestoreWorker does. When every worker holds the same z and the workers
  /// agree on x and y wherever their shards leave a column untouched (every
  /// checkpoint a fault-free flat or hierarchical run writes), they share
  /// one base again; otherwise each gets its own.
  void RestoreAll(std::span<const WorkerCheckpoint> workers);

  /// One consensus group: `ranks` adopt z = prox(W / (rho contributors))
  /// and update y (eq. 10, 6).
  struct ConsensusGroup {
    std::span<const simnet::Rank> ranks;
    std::span<const double> W;
    std::uint64_t contributors = 0;
  };

  /// z-update (eq. 10) + y-update (eq. 6) for every group, optionally on the
  /// host pool. Each (old base, group) pair computes z and y once on one
  /// base; each worker then updates y on its overlay and caches its residual
  /// norms for ComputeResiduals. Every worker is charged ZUpdate's and
  /// YUpdate's full-width flops in flops_out[rank] (size() entries). The
  /// norm pass runs workers in batches, so `wall_out` (as in XWStepAll)
  /// receives each worker's even share of its batch's host seconds. A
  /// worker appears in at most one group.
  void ZYStepGroups(std::span<const ConsensusGroup> groups,
                    std::vector<double>& flops_out,
                    std::vector<double>* wall_out = nullptr);

  /// Worker i adopts `z` as it is and runs its y-update (eq. 6) on a base of
  /// its own: AD-ADMM's reply from the master. Returns YUpdate's flops.
  double AdoptZ(std::size_t i, std::span<const double> z);

  /// ZYStepGroups over the one group `ranks`, aggregate W over
  /// `num_contributors` workers.
  void ZYStepAll(std::span<const simnet::Rank> ranks, std::span<const double> W,
                 std::uint64_t num_contributors,
                 std::vector<double>& flops_out,
                 std::vector<double>* wall_out = nullptr);

  /// Sum of the members' w, bitwise the dense sum ReduceToLeader takes over
  /// their full-width w: coordinate j adds each member's w_j in member order,
  /// starting from +0.0. nnz[m] receives member m's count of |w_j| > 0.
  /// `slot` keys a cached column union of the member set (one per node); the
  /// host pool may run distinct slots at once.
  void NodeSumW(std::size_t slot, std::span<const simnet::Rank> members,
                linalg::DenseVector& out, std::span<std::size_t> nnz) const;

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
  /// Per-worker norms come from a cache that the consensus step fills; only
  /// workers whose x, y or z changed since (XWStep, RestoreWorker,
  /// RestoreAll, a mutable accessor) or that never took a consensus step
  /// are re-streamed. Each worker's norms are taken over the full width in
  /// the four-lane order and folded in worker order, so every result is
  /// bitwise what re-streaming full-width vectors gives.
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
  // A full-width state that each worker referencing it holds on the columns
  // its shard leaves untouched.
  struct Base {
    linalg::DenseVector x, y, w, z;
    std::size_t w_nnz = 0;  // entries of w with |w_j| > 0
    std::size_t refs = 0;   // workers referencing it; 0 = on the free list
  };
  // One consensus step's share of a base: the workers of one group that
  // referenced `src`, moving to `dst` (== src when they are all of its
  // workers).
  struct Pair {
    std::size_t src = 0, dst = 0, group = 0, count = 0;
  };
  // A node's column union: `cols` holds every column some member touches,
  // ascending, and `pos` each member's overlay columns (member by member,
  // in overlay order) as indices into `cols`. acc, vals and base_vals are
  // the node sum's scratch over the union.
  struct NodeUnion {
    std::vector<simnet::Rank> members;
    std::vector<std::uint64_t> cols;
    std::vector<std::uint32_t> pos;
    std::vector<double> acc, vals, base_vals;
  };

  std::size_t Acquire();
  void Unref(std::size_t b);
  std::size_t Detach(std::size_t i);
  std::size_t MakePrivate(std::size_t i);
  void Sync(std::size_t i);
  void Changed(std::size_t i) {
    cached_[i] = 0;
    norms_fresh_[i] = 0;
  }
  void PlanX(std::span<const simnet::Rank> ranks);
  void BaseXW(std::size_t b);
  double SolveOverlay(std::size_t i);
  void SetOverlayFromBase(std::size_t i);
  const linalg::DenseVector& View(std::size_t i, int which) const;
  void AddNormBlock(std::size_t i, std::size_t c0, std::size_t c1,
                    std::size_t& cursor, double* scratch,
                    linalg::BlockedNorms& sums) const;
  void WorkerNorms(std::size_t i) const;
  NodeUnion& UnionOf(std::size_t slot,
                     std::span<const simnet::Rank> members) const;
  template <typename Body>
  void ForEach(std::size_t count, Body&& body) const;

  const ConsensusProblem* problem_;
  const RunOptions* options_;
  double rho_;
  std::vector<LocalSolver> local_;
  std::vector<Base> bases_;
  std::vector<std::size_t> free_;
  std::vector<std::size_t> base_of_;
  std::vector<simnet::Rank> everyone_;  // 0 .. size() - 1
  // Each worker's x, y and w on its shard's columns.
  std::vector<linalg::DenseVector> xo_, yo_, wo_;
  // Set by a mutable accessor: the worker's private base holds its x and y
  // at every column, and the overlay is gathered again before its next step.
  std::vector<char> dirty_;

  // Per-call planning scratch, indexed by base (count_, moved_to_, pair_of_)
  // or flattened over the call (xbases_, pairs_, pair_ranks_).
  std::vector<std::size_t> count_, moved_to_, pair_of_, xbases_;
  std::vector<Pair> pairs_;
  std::vector<simnet::Rank> pair_ranks_;

  // Caches, mutable because const accessors and the residual methods fill
  // them: the materialized views (cached_[i] holds one bit per view), the
  // mean scratch, the node unions and the per-worker norm cache. norm_*_[i]
  // hold ||x_i - z_i||, ||x_i|| and ||y_i|| of the current state while
  // norms_fresh_[i] is set (a char per worker, so pooled steps write
  // disjoint bytes).
  mutable std::vector<linalg::DenseVector> view_x_, view_y_, view_w_;
  mutable std::vector<unsigned char> cached_;
  mutable linalg::DenseVector mean_scratch_;
  mutable std::vector<NodeUnion> unions_;
  mutable std::vector<double> norm_primal_, norm_x_, norm_y_;
  mutable std::vector<char> norms_fresh_;
  mutable std::vector<std::size_t> stale_;
};

}  // namespace psra::admm
