// Shared declarations of the perfbench binary: workload table, result
// record, statistics helpers, the benchmark's own span recorder, and the
// real-socket loop every workload runs.
//
// The benchmark measures the library strictly from outside, through the public
// API of each layer; nothing here is linked into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "admm/checkpoint.hpp"
#include "admm/psra_hgadmm.hpp"
#include "comm/pricing.hpp"
#include "data/synthetic.hpp"

namespace perfbench {

using namespace psra;

// ---- Command line ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced pass writes its Chrome trace (relative to the cwd).
  std::string trace_out = "perfbench_trace.json";
};

// ---- Result ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One invocation's outcome. `attempted` / `failed` count operations: a
/// simulator solve, a wire collective, or a replayed layer call.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Reasons for failed operations (printed to stderr).
  std::vector<std::string> failures;
  /// Supporting figures printed on the details line (sample counts,
  /// quartiles, self times); not metrics.
  std::map<std::string, std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; records `why` when it failed.
  void Check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(why);
    }
  }
};

// ---- Workloads -------------------------------------------------------------

/// A simulator workload: one PSRA-HGADMM configuration on one synthetic
/// profile, solved to the default Boyd stopping test.
struct SimWorkload {
  std::string name;
  /// Profile factory; the seed comes from the command line.
  data::SyntheticSpec (*profile)(std::uint64_t seed);
  admm::PsraConfig config;
  admm::LocalSolverOptions::Mode solver = admm::LocalSolverOptions::Mode::kCg;
  /// Every shard must take the Gram Hessian path (checked per solve).
  bool expect_gram = false;
  /// Datasets per run. Iterations to tolerance vary a lot from one dataset
  /// to the next, so a run solves a panel of seed-derived datasets and
  /// reports panel means.
  int panel = 1;
  /// A solve that has not met tolerance by this iteration fails.
  std::uint64_t iteration_cap = 0;
  /// Upper bound on the eq. 18 relative error against ReferenceMinimum.
  double rel_error_bound = 0.0;
};

/// The simulator workloads, by name; null when `name` is not one of them.
const SimWorkload* FindSimWorkload(const std::string& name);

/// Derives a stream seed from the command-line seed (splitmix64), so each
/// panel dataset gets an independent stream.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

/// Host pool size for simulator runs: one less than the core count, because
/// the calling thread also executes ParallelFor chunks.
std::size_t PoolThreads();

/// Options of every solve: default stopping test, the sweep harnesses'
/// short inexact TRON, tracing off.
admm::RunOptions SolveOptions(const SimWorkload& w, engine::ThreadPool* pool);

/// Eq. 18 reference minimum for one dataset (fixed options).
double ReferenceObjective(const admm::ConsensusProblem& problem);

/// The engine iteration whose state the wire payloads and the traced layer
/// replay start from (below every workload's iterations to tolerance).
inline constexpr std::uint64_t kMidIteration = 20;

/// Per-node leader aggregates (ReduceToLeader over each node's w) of the
/// state in `ckpt` after one more x-update, the inputs the engine hands to
/// its inter-node collective.
std::vector<linalg::DenseVector> LeaderAggregates(
    const admm::ConsensusProblem& problem, const SimWorkload& w,
    const admm::RunCheckpoint& ckpt);

// ---- Real-socket loop -------------------------------------------------------

/// Inputs of the 3-rank wire loop: one leader aggregate per rank and the
/// simulator's PSR results on the same inputs.
struct WirePayload {
  std::vector<linalg::SparseVector> sparse_in;
  std::vector<linalg::DenseVector> dense_in;
  linalg::SparseVector sparse_sum;
  linalg::DenseVector dense_sum;
  std::size_t sparse_bytes = 0;  // simulator CommStats::bytes_sent
  std::size_t dense_bytes = 0;
  comm::ElemPricing pricing;
};

inline constexpr std::uint32_t kWireRanks = 3;

WirePayload MakeWirePayload(std::span<const linalg::DenseVector> aggregates);

struct WireLoopResult {
  std::vector<double> sparse_us;  // rank 0's per-collective latencies
  std::vector<double> dense_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double rendezvous_s = 0.0;
};

/// Closed loop over 3 TCP ranks (one forked process each): AllreduceSparse
/// then AllreduceDense (PSR) back to back for `seconds`, every output checked
/// bitwise against the simulator and every rank's byte count against the
/// simulator's CommStats.
WireLoopResult RunWireLoop(const WirePayload& p, double seconds);

struct WireReplayResult {
  std::vector<double> rtt_us;    // Post/Recv ping-pong, rank 0 <-> rank 1
  std::vector<double> fence_us;  // Fence on rank 0
  double scatter_reduce_us = 0.0;  // mean of wire.phase.*.wall_s (rank 0)
  double allgather_us = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Rank 0's call spans, absolute steady-clock seconds.
  struct Call {
    const char* name;
    double begin, end;
  };
  std::vector<Call> calls;
};

/// Traced-pass transport replay over 3 TCP ranks: fixed counts of
/// ping-pongs, fences and verified collective pairs.
WireReplayResult RunWireReplay(const WirePayload& p);

// ---- Statistics -----------------------------------------------------------

double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);
/// Quantile by linear interpolation between closest ranks, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double PeakRssMb();

/// Bitwise equality of two double sequences (the repository's determinism
/// contracts are bitwise).
bool SameBits(std::span<const double> a, std::span<const double> b);

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// Steady-clock seconds since its epoch (comparable across processes).
inline double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---- Benchmark spans ------------------------------------------------------

/// The benchmark's own spans around calls into each layer (name, start, end,
/// parent). Kept in memory; written once as a Chrome trace at the end.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  // string literal
    double begin = 0.0;     // NowSeconds()
    double end = 0.0;
    int parent = -1;        // index into spans(), -1 for roots
  };

  /// Opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration in seconds (so far, or total once closed).
    double seconds() const;
    void Close();

   private:
    SpanRecorder& r_;
    int index_;
    bool open_ = true;
  };

  /// Adds a closed span measured elsewhere (a forked rank) under the
  /// currently open span.
  void AddClosed(const char* name, double begin, double end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span named `name`, seconds.
  std::vector<double> Durations(const std::string& name) const;

  /// Total self time per span name: duration minus the time its children
  /// cover.
  std::map<std::string, double> SelfSeconds() const;

  /// All spans on one track via obs::SpanTracer (Chrome trace JSON, times
  /// relative to the first span).
  void WriteChromeTrace(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- Entry points ---------------------------------------------------------

/// End-to-end: panel solves to tolerance plus the wire loop, untraced.
Result RunEndToEnd(const SimWorkload& w, const Args& args);
/// Traced pass: replays each layer's public calls on the workload's inputs.
Result RunTracedPass(const SimWorkload& w, const Args& args);

}  // namespace perfbench
