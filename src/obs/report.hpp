// Trace/metrics analytics: the READ side of the observability stack.
//
// LoadChromeTrace re-ingests the Chrome trace_event JSON that
// SpanTracer::WriteChromeJson emits (and MetricsFromJson re-ingests
// MetricsRegistry::WriteJson), then AnalyzeTrace turns the span soup into
// the questions the paper cares about:
//
//   - per-phase time breakdown, rolled up into compute / communicate / wait
//     classes (the paper's Cal_time vs Comm_time split, per phase);
//   - the per-iteration critical path: which worker finished each iteration
//     last, and which phases its time went to — the straggler's-eye view
//     that explains the makespan;
//   - per-worker straggler skew (slowest finish over mean finish);
//   - wall-vs-virtual ratio: how many simulated seconds each host second
//     buys, from the Stopwatch wall_s annotations on spans.
//
// Nested spans (scatter_reduce/allgather inside w_allreduce) are detected
// with a cover sweep and excluded from the class totals so time is never
// double-counted; they still appear in the per-phase table with their own
// row. All analysis is pure — a committed trace fixture yields a
// byte-identical report, which is what the golden-file tests pin.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace psra::obs {

/// Phase classes for the compute/communicate/wait rollup.
enum class PhaseClass : std::uint8_t {
  kCompute = 0,
  kCommunicate = 1,
  kWait = 2,
  kOther = 3,
};
inline constexpr std::size_t kNumPhaseClasses = 4;
const char* PhaseClassName(PhaseClass c);
/// Maps a span name to its class (x_update -> compute, w_allreduce ->
/// communicate, gg_wait/ssp_wait/z_wait -> wait, unknown -> other).
PhaseClass ClassifyPhase(std::string_view name);

/// One span re-loaded from a trace artifact. Times are virtual seconds.
struct ReportSpan {
  std::string name;
  double begin = 0.0;
  double end = 0.0;
  std::uint64_t iteration = 0;
  double wall_s = 0.0;
  /// Remote rank for transport-level spans (wire_post / wire_recv); -1 when
  /// the span carries no peer annotation.
  std::int64_t peer = -1;
  /// Transport tag (meaningful only when peer >= 0).
  std::uint64_t tag = 0;
  /// False when the span lies inside the union of earlier spans on its
  /// track (a nested sub-phase); nested spans are excluded from rollups.
  bool top_level = true;
};

struct ReportTrack {
  std::string name;
  std::vector<ReportSpan> spans;  // sorted by (begin, -end)
};

struct TraceData {
  std::vector<ReportTrack> tracks;
};

/// Parses a SpanTracer Chrome trace_event artifact. Throws InvalidArgument
/// on malformed JSON (with the byte offset) or on structurally
/// alien input (no traceEvents array).
TraceData LoadChromeTrace(std::string_view text);

/// Same, from an already-parsed JSON value (the collection plane embeds the
/// trace as a sub-object of a per-rank payload).
TraceData LoadChromeTrace(const json::Value& root);

/// Parses a MetricsRegistry::WriteJson artifact back into a registry.
/// Throws InvalidArgument on malformed or structurally alien input.
MetricsRegistry MetricsFromJson(std::string_view text);

/// Same, from an already-parsed JSON value.
MetricsRegistry MetricsFromJson(const json::Value& root);

struct PhaseStat {
  std::string name;
  PhaseClass cls = PhaseClass::kOther;
  double virtual_s = 0.0;     // top-level spans only
  double wall_s = 0.0;
  std::uint64_t count = 0;    // all spans, nested included
  bool nested = false;        // true when every occurrence was nested
};

struct TrackStat {
  std::string name;
  double finish = 0.0;     // last span end
  double busy_s = 0.0;     // union of the track's spans
  double wall_s = 0.0;
  /// Spans of this track on the longest blocking chain (see AnalyzeTrace).
  std::uint64_t critical_spans = 0;
};

/// Cross-rank send->recv matching over wire_post/wire_recv peer annotations
/// (k-th post to (src, dst, tag) pairs with the k-th recv — per-peer frame
/// order is FIFO on every backend). All zero for simulator traces.
struct WireEdgeStats {
  std::uint64_t matched = 0;
  std::uint64_t unmatched_posts = 0;
  std::uint64_t unmatched_recvs = 0;
  /// Summed / max post-begin -> recv-end latency over matched edges,
  /// clamped at zero (clock alignment is an estimate).
  double total_latency_s = 0.0;
  double max_latency_s = 0.0;
};

struct TraceReport {
  double horizon = 0.0;          // max span end over all tracks
  std::uint64_t iterations = 0;  // max iteration label seen
  std::size_t num_spans = 0;
  double total_wall_s = 0.0;
  /// Simulated seconds per host second (horizon / total_wall_s; 0 when the
  /// trace carries no wall annotations).
  double sim_speedup = 0.0;
  std::vector<PhaseStat> phases;          // sorted by virtual_s descending
  double class_virtual_s[kNumPhaseClasses] = {};
  double class_wall_s[kNumPhaseClasses] = {};
  std::vector<TrackStat> tracks;
  /// Straggler skew over tracks named "worker*" or "rank*": max finish /
  /// mean finish (1.0 = perfectly balanced; 0 when there are no such
  /// tracks).
  double worker_skew = 0.0;
  std::string slowest_worker;
  /// Phase breakdown along the longest blocking chain: walking backwards
  /// from the last span to finish through same-track ordering, matched
  /// send->recv edges, and collective barriers.
  std::vector<PhaseStat> critical_phases;
  /// Send->recv edge matching stats (wire traces only).
  WireEdgeStats edges;
};

TraceReport AnalyzeTrace(const TraceData& trace);

/// Markdown report: run summary, phase/class tables, per-worker skew,
/// critical path, and (when `metrics` is non-null) the eq. 11-16
/// bytes-on-wire comparison across comm.allreduce.* algorithms.
void WriteReportMarkdown(const TraceReport& report,
                         const MetricsRegistry* metrics, std::ostream& os);

/// Machine-readable companion: one `phase` row per phase plus `class`,
/// `track`, and `critical` rows. Stable ordering for golden-file tests.
void WriteReportCsv(const TraceReport& report, std::ostream& os);

/// Markdown report for a merged wire trace (psra_report --wire): per-rank
/// phase-class breakdown, rank skew/straggler table, send->recv edge
/// matching, the blocking chain, and — when `metrics` is non-null — the
/// wire.* taxonomy plus the measured-vs-simulator counter agreement table
/// (sim.* reference counters recorded by the conformance harness).
void WriteWireReportMarkdown(const TraceData& trace, const TraceReport& report,
                             const MetricsRegistry* metrics, std::ostream& os);

/// Markdown diff of two analyzed runs, A (baseline) vs B (candidate):
/// run-summary deltas, per-phase virtual/wall deltas over the union of
/// phase names (union sorted by |virtual delta| descending so the biggest
/// movement reads first), the class rollup, and — when both metrics
/// registries are present — every counter whose value changed. Output is a
/// pure function of the inputs (golden-file friendly).
void WriteReportDiffMarkdown(const TraceReport& a, const TraceReport& b,
                             const MetricsRegistry* metrics_a,
                             const MetricsRegistry* metrics_b,
                             std::ostream& os);

// ---- Convergence timeline (the --timeline-out JSONL; DESIGN.md §13) ------

/// A re-loaded timeline artifact: the header's series names plus one column
/// of samples per series. Null samples (non-finite at write time) come back
/// as NaN.
struct TimelineData {
  std::vector<std::string> series;           // header order (sorted)
  std::vector<std::uint64_t> iterations;     // one per row
  std::vector<std::vector<double>> columns;  // [series index][row]

  std::size_t rows() const { return iterations.size(); }
  /// Column for a series name; null when absent.
  const std::vector<double>* Column(std::string_view name) const;
};

/// Parses a TimeSeriesRecorder::WriteJsonl artifact. Throws InvalidArgument
/// naming the 1-based line number on malformed input: non-JSON lines, a
/// missing or alien header, rows whose value count disagrees with the
/// header, or samples that are neither numbers nor null.
TimelineData LoadTimelineJsonl(std::string_view text);

struct TimelineSeriesStat {
  std::string name;
  double first = 0.0;  // first sample (NaN if the row was null)
  double last = 0.0;
  double min = 0.0;    // over finite samples
  double max = 0.0;
  std::size_t finite = 0;  // finite sample count
  bool has_non_finite = false;
};

/// First iteration at which a residual series reached `tol`; 0 = never.
struct TimelineCrossing {
  std::string series;
  double tol = 0.0;
  std::uint64_t iteration = 0;
};

/// Stall/divergence health of one residual-like series, judged over a
/// trailing window of max(5, rows/4) rows.
struct TimelineHealth {
  std::string series;
  std::size_t window = 0;
  /// Relative improvement over the window: (v[-1-w] - v[-1]) / |v[-1-w]|.
  double window_improvement = 0.0;
  bool stalled = false;   // window improvement below 1 %
  bool diverged = false;  // last sample above the first, or non-finite
};

/// One row of the bytes-vs-residual efficiency table (cumulative ts.bytes
/// against the residual trajectory, sampled at up to 8 recorded rows).
struct TimelineEfficiencyRow {
  std::uint64_t iteration = 0;
  double cumulative_bytes = 0.0;
  double residual = 0.0;
};

struct TimelineReport {
  std::size_t rows = 0;
  std::uint64_t first_iteration = 0;
  std::uint64_t last_iteration = 0;
  /// True when recorded iterations ascend by exactly 1 row to row — what a
  /// single uninterrupted run (or a correctly merged split run) produces.
  bool contiguous = true;
  std::vector<TimelineSeriesStat> series;    // header order
  std::vector<TimelineCrossing> crossings;   // residual series x tolerances
  std::vector<TimelineHealth> health;        // residual series
  bool has_rho = false;
  double rho_first = 0.0;
  double rho_last = 0.0;
  std::uint64_t rho_changes = 0;  // row-to-row value changes
  /// Present when the timeline carries ts.bytes; `efficiency_series` names
  /// the residual column used (primal, else dual, else objective).
  std::string efficiency_series;
  std::vector<TimelineEfficiencyRow> efficiency;
  double total_bytes = 0.0;
};

/// Pure analysis of a loaded timeline. `tolerances` is the
/// iterations-to-tolerance threshold list (psra_report --tol), applied to
/// ts.primal_residual and ts.dual_residual where present.
TimelineReport AnalyzeTimeline(const TimelineData& data,
                               const std::vector<double>& tolerances);

/// Markdown: run shape, per-series first/last/min/max, iterations to
/// tolerance, stall/divergence health, rho trajectory, bytes-vs-residual
/// efficiency. Pure function of the report (golden-file friendly).
void WriteTimelineMarkdown(const TimelineReport& report, std::ostream& os);

/// Markdown diff of two analyzed timelines, A (baseline) vs B (candidate):
/// run-shape deltas, final values over the union of series names, and
/// side-by-side iterations-to-tolerance.
void WriteTimelineDiffMarkdown(const TimelineReport& a, const TimelineReport& b,
                               std::ostream& os);

}  // namespace psra::obs
