// Checkpoints. Model persistence saves and loads a trained consensus model
// (the z vector plus the metadata needed to validate it against a dataset at
// load time); run checkpoints (below) hold a run's worker state in memory.
//
// Model file format: a small text header followed by the nonzero entries —
//   psra-model v1
//   algorithm <name>
//   dim <d>
//   lambda <l>
//   rho <r>
//   nnz <k>
//   <index> <value>          (k lines)
//
// Models after L1-regularized training are sparse, so the on-disk size is
// proportional to the active feature count, not the dimension.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "admm/common.hpp"
#include "admm/trace.hpp"
#include "obs/metrics.hpp"

namespace psra::admm {

struct ModelCheckpoint {
  std::string algorithm;
  double lambda = 0.0;
  double rho = 0.0;
  linalg::DenseVector z;
};

void WriteModel(const ModelCheckpoint& model, std::ostream& os);
void WriteModelFile(const ModelCheckpoint& model, const std::string& path);

/// Throws psra::IoError / psra::InvalidArgument on malformed input.
ModelCheckpoint ReadModel(std::istream& is);
ModelCheckpoint ReadModelFile(const std::string& path);

/// Convenience: checkpoint straight from a finished run.
ModelCheckpoint FromRunResult(const RunResult& result, double lambda,
                              double rho);

// ---------------------------------------------------------------------------
// Run checkpoints (in memory).
//
// A RunCheckpoint snapshots every worker's ADMM state (x_i, y_i, z_i; w_i is
// recomputed on restore) at an iteration boundary. Engines capture one every
// FaultConfig::checkpoint_every iterations when a fault plan is active, and
// a recovering worker restores its slot from the last capture — paying the
// restart delay plus the virtual transfer time of the restored vectors.
//
// Split runs hand the same object over in memory: RunOptions::checkpoint_out
// receives the state after iteration `checkpoint_at`, and a later Run
// resumes from it through RunOptions::warm_start (ApplyWarmStart). The
// capture also copies the run's MetricsRegistry, so a harness that resumes
// carries the pre-split counters forward and the resumed run's metrics.json
// matches an uninterrupted run's.
// ---------------------------------------------------------------------------

struct WorkerCheckpoint {
  linalg::DenseVector x, y, z;
};

struct RunCheckpoint {
  std::uint64_t iteration = 0;
  double rho = 0.0;
  std::vector<WorkerCheckpoint> workers;
  /// Observability state at capture time (empty when the run had no obs).
  obs::MetricsRegistry metrics;
};

/// Snapshots the workers in `ranks` into their slots of `ckpt`, reusing the
/// slot storage; other slots are left untouched (a crashed worker's slot
/// keeps its last pre-crash capture). Sizes `ckpt.workers` on first use.
/// `metrics`, when non-null, is copied into the checkpoint alongside the
/// worker state.
void CaptureRunCheckpoint(const WorkerSet& ws, std::uint64_t iteration,
                          std::span<const simnet::Rank> ranks,
                          RunCheckpoint& ckpt,
                          const obs::MetricsRegistry* metrics = nullptr);

/// Warm start: seeds `ws` from `options.warm_start` — rho plus every
/// worker's (x, y, z); w is recomputed (WorkerSet::RestoreAll, which shares
/// one base again when the checkpoint allows) — and returns the checkpointed
/// iteration, so the engine resumes at that + 1. Returns 0 and leaves `ws`
/// untouched when no warm start is set.
std::uint64_t ApplyWarmStart(WorkerSet& ws, const RunOptions& options);

}  // namespace psra::admm
