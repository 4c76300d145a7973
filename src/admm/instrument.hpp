// Engine-side adapter over obs::ObsContext.
//
// An engine constructs one EngineObs per Run from RunOptions::obs. With a
// null context every method is a no-op behind a single pointer test and the
// adapter allocates nothing, so uninstrumented runs keep the 0-allocs/iter
// hot-path guarantee. With a context attached, the adapter owns one tracer
// track per worker plus a per-worker "mark" clock used for bracketing:
//
//   obs.MarkAll(ledger);            // before a phase mutates worker clocks
//   ... phase charges the ledger ...
//   obs.SpanAll("x_update", ledger, iter);   // [mark, new clock] per worker
//
// Because every ledger mutation in the engine loop is bracketed this way,
// the union of a worker's spans covers its whole clock range — which is how
// the >= 95 % makespan-coverage acceptance gate is met by construction.
//
// Counter/gauge references are hoisted by the engines at Run start (they are
// stable for the registry's lifetime), so per-iteration metric updates are
// plain integer adds.
//
// Wall-clock attribution: when tracing, the adapter also runs a Stopwatch
// and attributes the host seconds elapsed between a phase's Mark and its
// Span to the emitted span(s) (split evenly when one SpanAll closes several
// workers at once — the host did the phase's work for all of them together).
// Wall time lives ONLY on TraceSpan::wall_s: it never enters the
// MetricsRegistry (which must stay byte-identical across pool sizes) and
// never feeds back into the TimeLedger, so virtual-time results remain
// bitwise deterministic.
//
// Below EngineObs sit the pieces every engine shares on top of it: the
// counter-delta timeline series, the collective traffic slots PSRA and
// ADMMLib book into, and RunEpilogue — the timeline row core, progress
// report, trace record and run summary, written once for all engines.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "admm/common.hpp"
#include "comm/collective.hpp"
#include "comm/intranode.hpp"
#include "engine/ledger.hpp"
#include "obs/obs.hpp"
#include "support/status.hpp"
#include "support/stopwatch.hpp"

namespace psra::admm {

class EngineObs {
 public:
  /// `ctx` may be null (all methods become no-ops). `world` is the number of
  /// per-worker tracks to create.
  EngineObs(obs::ObsContext* ctx, std::size_t world) : ctx_(ctx) {
    if (ctx_ == nullptr) return;
    marks_.assign(world, 0.0);
    tracks_.reserve(world);
    for (std::size_t i = 0; i < world; ++i) {
      tracks_.push_back(ctx_->tracer.AddTrack("worker " + std::to_string(i)));
    }
  }

  bool on() const { return ctx_ != nullptr; }
  bool tracing() const { return ctx_ != nullptr && ctx_->tracing; }
  obs::MetricsRegistry& metrics() { return ctx_->metrics; }
  obs::SpanTracer& tracer() { return ctx_->tracer; }
  obs::TimeSeriesRecorder& timeline() { return ctx_->timeline; }

  /// Registers an auxiliary track (e.g. "group generator", "master").
  obs::TrackId AddAuxTrack(std::string name) {
    return ctx_->tracer.AddTrack(std::move(name));
  }

  /// Hoists a timeline series handle (stable for the context's lifetime) or
  /// null without a context — engines grab these at Run start and append
  /// behind a null check, exactly like hoisted Counter()/Gauge() slots.
  obs::TimeSeries* Series(const char* name) {
    return ctx_ != nullptr ? &ctx_->timeline.Series(name) : nullptr;
  }

  /// Re-reads worker i's mark from the ledger and restarts the wall lap
  /// (host time spent outside bracketed phases — evaluation, bookkeeping —
  /// is deliberately not attributed to any span).
  void Mark(const engine::TimeLedger& ledger, std::size_t i) {
    if (ctx_ == nullptr) return;
    marks_[i] = ledger[i].clock;
    last_wall_ = watch_.ElapsedSeconds();
  }
  void MarkAll(const engine::TimeLedger& ledger) {
    if (ctx_ == nullptr) return;
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      marks_[i] = ledger[i].clock;
    }
    last_wall_ = watch_.ElapsedSeconds();
  }

  /// Emits [mark_i, clock_i] on worker i's track and advances the mark. The
  /// host seconds since the last Mark/Span are attributed to the span, so a
  /// per-worker Span loop after one shared phase charges the whole lap to
  /// the first worker and ~0 to the rest (per-phase totals stay right).
  /// `name` must be a string literal (TraceSpan stores the pointer).
  void Span(const char* name, const engine::TimeLedger& ledger, std::size_t i,
            std::uint64_t iter) {
    if (!tracing()) return;
    const simnet::VirtualTime now = ledger[i].clock;
    ctx_->tracer.Add(tracks_[i], name, marks_[i], now, iter, LapWall());
    marks_[i] = now;
  }
  /// SpanAll skips workers whose clock did not move (a phase that left a
  /// worker untouched — e.g. a crashed worker during x-updates — produces no
  /// empty span). The phase's wall lap is split evenly across the emitted
  /// spans.
  void SpanAll(const char* name, const engine::TimeLedger& ledger,
               std::uint64_t iter) {
    if (!tracing()) return;
    std::size_t movers = 0;
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      if (ledger[i].clock > marks_[i]) ++movers;
    }
    const double share = movers > 0 ? LapWall() / static_cast<double>(movers)
                                    : 0.0;
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      const simnet::VirtualTime now = ledger[i].clock;
      if (now <= marks_[i]) continue;
      ctx_->tracer.Add(tracks_[i], name, marks_[i], now, iter, share);
      marks_[i] = now;
    }
  }

  /// SpanAll with measured per-worker wall time: `wall[i]` (host seconds the
  /// pool thread running worker i's body observed, via
  /// engine::ThreadPool::ThreadSeconds) is attributed to worker i's span
  /// instead of an even split of the region's lap. Summed thread time can
  /// exceed the region's wall lap when pool threads overlap — that is the
  /// point: the trace then shows what each worker actually cost the host.
  /// Same skip rule as SpanAll for workers whose clock did not move.
  void SpanAllWall(const char* name, const engine::TimeLedger& ledger,
                   std::uint64_t iter, std::span<const double> wall) {
    if (!tracing()) return;
    LapWall();  // consume the region's lap so later spans do not inherit it
    for (std::size_t i = 0; i < marks_.size(); ++i) {
      const simnet::VirtualTime now = ledger[i].clock;
      if (now <= marks_[i]) continue;
      ctx_->tracer.Add(tracks_[i], name, marks_[i], now, iter, wall[i]);
      marks_[i] = now;
    }
  }

  /// Span with measured wall seconds: the span's host cost is the
  /// caller-supplied `wall_s` (ThreadPool::ThreadSeconds deltas taken inside
  /// a pooled region) instead of the adapter's lap, which is consumed and
  /// discarded so later spans do not inherit the pooled region's host time.
  /// Used when a batched phase runs concurrently and its ledger/span updates
  /// replay serially afterwards: the replay loop itself costs ~nothing, and
  /// the real host seconds were measured where the work ran.
  void SpanWall(const char* name, const engine::TimeLedger& ledger,
                std::size_t i, std::uint64_t iter, double wall_s) {
    if (!tracing()) return;
    LapWall();
    const simnet::VirtualTime now = ledger[i].clock;
    ctx_->tracer.Add(tracks_[i], name, marks_[i], now, iter, wall_s);
    marks_[i] = now;
  }

  /// Pins worker i's mark to an explicit time (used to split a bracketed
  /// interval into adjacent sibling spans, e.g. gg_wait | w_allreduce).
  void SetMark(std::size_t i, simnet::VirtualTime t) {
    if (ctx_ == nullptr) return;
    marks_[i] = t;
  }

  /// Emits an explicit span on worker i's track WITHOUT touching the mark
  /// (for nested sub-phases inside a bracketed parent span).
  void SpanAt(const char* name, std::size_t i, simnet::VirtualTime begin,
              simnet::VirtualTime end, std::uint64_t iter) {
    if (!tracing()) return;
    ctx_->tracer.Add(tracks_[i], name, begin, end, iter);
  }

  /// Emits an explicit span on an auxiliary track.
  void AuxSpan(obs::TrackId track, const char* name, simnet::VirtualTime begin,
               simnet::VirtualTime end, std::uint64_t iter) {
    if (!tracing()) return;
    ctx_->tracer.Add(track, name, begin, end, iter);
  }

  simnet::VirtualTime mark(std::size_t i) const { return marks_[i]; }

 private:
  /// Host seconds since the previous lap (Mark/MarkAll/Span/SpanAll).
  double LapWall() {
    const double now = watch_.ElapsedSeconds();
    const double lap = now - last_wall_;
    last_wall_ = now;
    return lap;
  }

  obs::ObsContext* ctx_ = nullptr;
  std::vector<obs::TrackId> tracks_;
  std::vector<simnet::VirtualTime> marks_;
  Stopwatch watch_;
  double last_wall_ = 0.0;
};

/// A timeline series sampled as the per-row change of a sum of hoisted
/// registry counters (traffic bytes, rounds, invocations, ...): turns the
/// registry's running totals into per-iteration deltas. Without a context
/// the series is null and Baseline/Append do nothing; null counters (a slot
/// the run does not hoist) count as zero.
class CounterDelta {
 public:
  CounterDelta(EngineObs& eo, const char* series,
               std::initializer_list<const std::uint64_t*> counters)
      : series_(eo.Series(series)) {
    PSRA_CHECK(counters.size() <= counters_.size(), "too many counters");
    std::copy(counters.begin(), counters.end(), counters_.begin());
  }

  /// Takes the counters' current total as the next row's reference, so
  /// traffic booked before the loop stays out of the first row.
  void Baseline() {
    if (series_ != nullptr) prev_ = Total();
  }

  /// Appends the change since the previous row (or the baseline).
  void Append() {
    if (series_ == nullptr) return;
    const std::uint64_t now = Total();
    series_->Append(static_cast<double>(now - prev_));
    prev_ = now;
  }

 private:
  std::uint64_t Total() const {
    std::uint64_t total = 0;
    for (const std::uint64_t* c : counters_) {
      if (c != nullptr) total += *c;
    }
    return total;
  }

  obs::TimeSeries* series_ = nullptr;
  std::array<const std::uint64_t*, 4> counters_{};
  std::uint64_t prev_ = 0;
};

/// The collective traffic slots PSRA and ADMMLib share, hoisted once per
/// run: the inter-node allreduce (comm.allreduce.<alg>.*, plus the fill
/// ratio of sparse results) and the intra-node reduce and broadcast
/// (comm.intra.*). Each Book* call adds one result, with the bytes the
/// primitive itself priced and charged.
struct CollectiveMetrics {
  std::uint64_t* invocations = nullptr;
  std::uint64_t* elements = nullptr;
  std::uint64_t* messages = nullptr;
  std::uint64_t* bytes = nullptr;
  std::uint64_t* rounds = nullptr;
  obs::Histogram* fill = nullptr;  // sparse payloads only
  double dim = 1.0;
  std::uint64_t* reduce_elements = nullptr;
  std::uint64_t* reduce_messages = nullptr;
  std::uint64_t* reduce_bytes = nullptr;
  std::uint64_t* bcast_elements = nullptr;
  std::uint64_t* bcast_messages = nullptr;
  std::uint64_t* bcast_bytes = nullptr;

  void Hoist(obs::MetricsRegistry& m, const std::string& alg_name, bool sparse,
             double d) {
    const std::string p = "comm.allreduce." + alg_name + ".";
    invocations = &m.Counter(p + "invocations");
    elements = &m.Counter(p + "elements");
    messages = &m.Counter(p + "messages");
    bytes = &m.Counter(p + "bytes");
    rounds = &m.Counter(p + "rounds");
    if (sparse) {
      static constexpr double kFillBounds[] = {0.01, 0.05, 0.1, 0.25,
                                               0.5,  0.75, 0.9, 1.0};
      fill = &m.Histo("comm.allreduce.fill_ratio", kFillBounds);
      dim = d;
    }
    reduce_elements = &m.Counter("comm.intra.reduce.elements");
    reduce_messages = &m.Counter("comm.intra.reduce.messages");
    reduce_bytes = &m.Counter("comm.intra.reduce.bytes");
    bcast_elements = &m.Counter("comm.intra.bcast.elements");
    bcast_messages = &m.Counter("comm.intra.bcast.messages");
    bcast_bytes = &m.Counter("comm.intra.bcast.bytes");
  }

  /// One allreduce invocation; `result_nnz` feeds the sparse fill ratio.
  void BookAllreduce(const comm::CommStats& st, std::size_t result_nnz) {
    ++*invocations;
    *elements += st.elements_sent;
    *messages += st.messages_sent;
    *bytes += st.bytes_sent;
    *rounds += st.rounds;
    if (fill != nullptr) fill->Observe(static_cast<double>(result_nnz) / dim);
  }

  /// One node's reduce to its leader.
  void BookReduce(const comm::ReduceResult& r) {
    *reduce_elements += r.elements_sent;
    *reduce_messages += r.messages_sent;
    *reduce_bytes += r.bytes_sent;
  }

  /// One leader's broadcast of the aggregate to its node.
  void BookBroadcast(const comm::BroadcastResult& b) {
    *bcast_elements += b.elements_sent;
    *bcast_messages += b.messages_sent;
    *bcast_bytes += b.bytes_sent;
  }
};

/// Which consensus residuals an engine's timeline rows carry.
enum class ResidualSeries { kNone, kPrimal, kPrimalDual };

/// The per-iteration epilogue and the run summary, written once for every
/// engine (DESIGN.md §9, §13). Per iteration an engine calls
///
///   epi.Row(iter, model, rho, primal, dual);  // timeline row core, progress
///   ... appends its own series ...
///   epi.Record(ledger);                       // IterationRecord on cadence
///
/// and after its loop epi.Finish(final_model, ledger). `model` is the
/// consensus model the row and the record evaluate; it must stay unchanged
/// between Row and Record. Residuals an engine does not track pass as 0.
///
/// The row core is ts.objective, ts.rho, ts.bytes (the per-row delta of the
/// engine's traffic byte counters) and the residual series `residuals`
/// names. The summary fills RunResult's final model, objective, accuracy and
/// ledger totals and, with a context, publishes the same 16 keys for every
/// engine: engine.{iterations,censored_sends}, fault.* from
/// RunResult::faults, run.* and stopping.*.
class RunEpilogue {
 public:
  RunEpilogue(EngineObs& eo, const ConsensusProblem& problem,
              const RunOptions& options, RunResult& result,
              ResidualSeries residuals,
              std::initializer_list<const std::uint64_t*> byte_counters);

  /// Takes the byte counters' current total as the first row's reference.
  void BaselineBytes() { bytes_.Baseline(); }

  /// Starts the timeline row for `iteration` with the core samples (with a
  /// context) and reports progress (with a sink).
  void Row(std::uint64_t iteration, const linalg::DenseVector& model,
           double rho, double primal = 0.0, double dual = 0.0);

  /// Appends the row's IterationRecord when its iteration is on the
  /// eval_every cadence (or the last), with the ledger's Cal, Comm and
  /// makespan as they stand now.
  void Record(const engine::TimeLedger& ledger);

  /// The run summary (see the class comment).
  void Finish(const linalg::DenseVector& final_model,
              const engine::TimeLedger& ledger);

 private:
  EngineObs& eo_;
  const ConsensusProblem& problem_;
  const RunOptions& options_;
  RunResult& result_;
  obs::TimeSeries* objective_ = nullptr;
  obs::TimeSeries* rho_ = nullptr;
  obs::TimeSeries* primal_ = nullptr;
  obs::TimeSeries* dual_ = nullptr;
  CounterDelta bytes_;
  // The current row. Its objective is valid when the row was recorded to
  // the timeline; Record evaluates the model otherwise.
  IterationRecord row_;
  const linalg::DenseVector* model_ = nullptr;
  bool row_has_objective_ = false;
};

}  // namespace psra::admm
