// Golden-file and contract tests for the trace/metrics analyzer behind
// tools/psra_report. The fixtures are committed; regenerate the goldens with
//
//   build/tools/psra_report --trace tests/fixtures/report_trace.json \
//     --metrics tests/fixtures/report_metrics.json \
//     --out tests/fixtures/report_golden.md \
//     --csv tests/fixtures/report_golden.csv
//
// whenever the report layout changes on purpose.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/wire.hpp"
#include "support/status.hpp"

namespace psra::obs {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(PSRA_TEST_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name));
  EXPECT_TRUE(static_cast<bool>(in)) << "missing fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ------------------------------------------------------------ json DOM ----

TEST(JsonParse, BuildsDomWithOrderedMembers) {
  const auto v = json::Parse(R"({"b": [1, 2.5, "x"], "a": {"k": true}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members.size(), 2u);
  EXPECT_EQ(v.members[0].first, "b");  // insertion order, not sorted
  const json::Value* b = v.Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_DOUBLE_EQ(b->items[1].number, 2.5);
  EXPECT_EQ(b->items[2].str, "x");
  const json::Value* a = v.Find("a");
  ASSERT_TRUE(a != nullptr && a->is_object());
  ASSERT_TRUE(a->Find("k") != nullptr);
  EXPECT_TRUE(a->Find("k")->boolean);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json::Parse("{\"a\": }"), InvalidArgument);
  EXPECT_THROW(json::Parse("{\"a\": 1,}"), InvalidArgument);
  EXPECT_THROW(json::Parse("[1, 2"), InvalidArgument);
  EXPECT_THROW(json::Parse("nul"), InvalidArgument);
  EXPECT_THROW(json::Parse(""), InvalidArgument);
  // A number needs a digit before its exponent and one after the marker.
  for (const char* number : {".e1", "e5", "-.e5", "+.e1", "1e", "1e+", "-",
                             "."}) {
    SCOPED_TRACE(number);
    EXPECT_THROW(json::Parse(number), InvalidArgument);
    EXPECT_THROW(json::Parse(std::string("{\"a\": ") + number + "}"),
                 InvalidArgument);
  }
  // Every form the writers emit still parses, and so does a leading '+'.
  EXPECT_EQ(json::Parse("3").number, 3.0);
  EXPECT_EQ(json::Parse("-0.5").number, -0.5);
  EXPECT_EQ(json::Parse("1.5e-07").number, 1.5e-07);
  EXPECT_EQ(json::Parse("1e+20").number, 1e+20);
  EXPECT_EQ(json::Parse("+1").number, 1.0);

  // Nesting is bounded at 256 levels; deeper input is rejected with the
  // offending bracket's offset instead of overflowing the stack.
  auto nested = [](std::size_t depth, std::string_view open,
                   std::string_view close) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += open;
    doc += "1";
    for (std::size_t i = 0; i < depth; ++i) doc += close;
    return doc;
  };
  EXPECT_NO_THROW(json::Parse(nested(256, "[", "]")));
  try {
    json::Parse(nested(257, "[", "]"));
    ADD_FAILURE() << "257 nested arrays parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "malformed JSON: nesting too deep at offset 256");
  }
  EXPECT_THROW(json::Parse(nested(100000, "[", "]")), InvalidArgument);
  EXPECT_THROW(json::Parse(nested(100000, "{\"a\":", "}")), InvalidArgument);
}

// ----------------------------------------------------------- trace load ----

TEST(LoadChromeTrace, ReadsTracksSpansAndNesting) {
  const auto trace = LoadChromeTrace(ReadFixture("report_trace.json"));
  ASSERT_EQ(trace.tracks.size(), 3u);
  EXPECT_EQ(trace.tracks[0].name, "worker 0");
  EXPECT_EQ(trace.tracks[1].name, "worker 1");
  EXPECT_EQ(trace.tracks[2].name, "group generator");

  // scatter_reduce/allgather sit inside w_allreduce and must be flagged
  // nested; everything else is top-level.
  for (const auto& track : trace.tracks) {
    for (const auto& s : track.spans) {
      const bool child = s.name == "scatter_reduce" || s.name == "allgather";
      EXPECT_EQ(s.top_level, !child) << track.name << " " << s.name;
      EXPECT_GE(s.end, s.begin);
    }
  }
}

TEST(LoadChromeTrace, RejectsJsonWithoutTraceEvents) {
  EXPECT_THROW(LoadChromeTrace("{}"), Error);
  EXPECT_THROW(LoadChromeTrace(R"({"traceEvents": 3})"), Error);
  EXPECT_THROW(LoadChromeTrace("{"), InvalidArgument);
}

TEST(MetricsFromJson, RoundTripsRegistryByteExactly) {
  const auto text = ReadFixture("report_metrics.json");
  const auto reg = MetricsFromJson(text);
  EXPECT_EQ(reg.counters().at("comm.allreduce.psr.bytes"), 357032u);
  EXPECT_DOUBLE_EQ(reg.gauges().at("run.makespan_s"), 0.00053);
  const auto& h = reg.histograms().at("comm.allreduce.fill_ratio");
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 1.75);

  std::ostringstream once, twice;
  reg.WriteJson(once);
  MetricsFromJson(once.str()).WriteJson(twice);
  EXPECT_EQ(once.str(), twice.str());
}

TEST(MetricsFromJson, RejectsMalformedShapes) {
  EXPECT_THROW(MetricsFromJson("[1]"), Error);
  EXPECT_THROW(MetricsFromJson(R"({"counters": 5})"), Error);
  EXPECT_THROW(MetricsFromJson(R"({"counters": {"c": "x"}})"), Error);
  // counts must be bounds.size() + 1 (overflow bucket).
  EXPECT_THROW(
      MetricsFromJson(
          R"({"histograms": {"h": {"bounds": [1], "counts": [1]}}})"),
      Error);
  EXPECT_THROW(MetricsFromJson("{\"counters\": {\"a\" 1}}"), InvalidArgument);
}

// ------------------------------------------------------------- analysis ----

TEST(AnalyzeTrace, ComputesPhasesSkewAndCriticalPath) {
  const auto trace = LoadChromeTrace(ReadFixture("report_trace.json"));
  const auto r = AnalyzeTrace(trace);

  EXPECT_EQ(r.num_spans, 19u);
  EXPECT_EQ(r.iterations, 2u);
  EXPECT_NEAR(r.horizon, 530e-6, 1e-12);
  EXPECT_NEAR(r.total_wall_s, 235e-6, 1e-12);

  // Nested children contribute no attributed virtual time, so the class
  // totals are a partition of top-level span time.
  const auto c = [&r](PhaseClass cls) {
    return r.class_virtual_s[static_cast<std::size_t>(cls)];
  };
  EXPECT_NEAR(c(PhaseClass::kCompute), 560e-6, 1e-12);
  EXPECT_NEAR(c(PhaseClass::kCommunicate), 410e-6, 1e-12);
  EXPECT_NEAR(c(PhaseClass::kWait), 30e-6, 1e-12);
  EXPECT_DOUBLE_EQ(c(PhaseClass::kOther), 0.0);

  // worker 1 ends both iterations last → owns the whole critical path.
  EXPECT_EQ(r.slowest_worker, "worker 1");
  EXPECT_NEAR(r.worker_skew, 530.0 / 495.0, 1e-9);
  ASSERT_EQ(r.tracks.size(), 3u);
  EXPECT_EQ(r.tracks[0].critical_spans, 0u);
  // The longest blocking chain walks every top-level span on worker 1's
  // lane: worker 1 finishes each phase last, so program order alone links
  // them back to t=0.
  EXPECT_EQ(r.tracks[1].critical_spans, 6u);
  ASSERT_FALSE(r.critical_phases.empty());
  EXPECT_EQ(r.critical_phases[0].name, "x_update");
}

// --------------------------------------------------------- golden files ----

TEST(ReportGolden, MarkdownMatchesCommittedFixture) {
  const auto trace = LoadChromeTrace(ReadFixture("report_trace.json"));
  const auto metrics = MetricsFromJson(ReadFixture("report_metrics.json"));
  const auto r = AnalyzeTrace(trace);
  std::ostringstream os;
  WriteReportMarkdown(r, &metrics, os);
  EXPECT_EQ(os.str(), ReadFixture("report_golden.md"))
      << "report layout changed; regenerate the golden (see file header)";
  EXPECT_NE(os.str().find("PSR < Ring bytes-on-wire: yes"),
            std::string::npos);
}

TEST(ReportGolden, CsvMatchesCommittedFixture) {
  const auto trace = LoadChromeTrace(ReadFixture("report_trace.json"));
  const auto r = AnalyzeTrace(trace);
  std::ostringstream os;
  WriteReportCsv(r, os);
  EXPECT_EQ(os.str(), ReadFixture("report_golden.csv"))
      << "CSV layout changed; regenerate the golden (see file header)";
}

// --------------------------------------------------- merged wire traces ----

ReportSpan MakeSpan(const char* name, double begin, double end,
                    std::uint64_t iter, std::int64_t peer = -1,
                    std::uint64_t tag = 0) {
  ReportSpan s;
  s.name = name;
  s.begin = begin;
  s.end = end;
  s.iteration = iter;
  s.peer = peer;
  s.tag = tag;
  return s;
}

/// Deterministic per-rank payload: a ring step (fence, post to the next
/// rank, local compute, recv from the previous rank) on rank-local time.
RankObsPayload MakeRankPayload(std::uint32_t rank, std::uint32_t world,
                               double clock_offset_s) {
  RankObsPayload p;
  p.rank = rank;
  p.clock_offset_s = clock_offset_s;
  ReportTrack lane;
  lane.name = "rank " + std::to_string(rank);
  const auto next = static_cast<std::int64_t>((rank + 1) % world);
  const auto prev = static_cast<std::int64_t>((rank + world - 1) % world);
  lane.spans.push_back(MakeSpan("wire_fence", 0.001, 0.002, 0));
  lane.spans.push_back(MakeSpan("wire_post", 0.003, 0.003, 1, next, 0x11));
  lane.spans.push_back(MakeSpan("compute", 0.003, 0.004, 1));
  lane.spans.push_back(MakeSpan("wire_recv", 0.004, 0.005, 1, prev, 0x11));
  p.trace.tracks.push_back(std::move(lane));
  return p;
}

// Regenerate the committed golden after an intentional layout change with
//   PSRA_REGEN_GOLDEN=1 build/tests/test_report \
//     --gtest_filter='WireMergedTrace.*'
TEST(WireMergedTrace, GoldenLanesAreRankOrderedAndClockAligned) {
  // Arrival order deliberately differs from rank order; rank 2's offset
  // exceeds its first span begin so the zero-clamp is on the golden path.
  const double offsets[] = {0.0, 0.0005, 0.0015, -0.0005};
  std::vector<RankObsPayload> payloads;
  for (const std::uint32_t r : {2u, 0u, 3u, 1u}) {
    payloads.push_back(MakeRankPayload(r, 4, offsets[r]));
  }
  std::ostringstream os;
  WriteMergedWireTrace(payloads, os);
  const std::string text = os.str();
  if (std::getenv("PSRA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(FixturePath("wire_merged_golden.json"));
    out << text;
  }
  EXPECT_EQ(text, ReadFixture("wire_merged_golden.json"))
      << "merged-trace layout changed; regenerate the golden (see comment)";

  const TraceData merged = LoadChromeTrace(text);
  ASSERT_EQ(merged.tracks.size(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto& lane = merged.tracks[r];
    EXPECT_EQ(lane.name, "rank " + std::to_string(r));
    ASSERT_EQ(lane.spans.size(), 4u);
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      EXPECT_GE(lane.spans[i].begin, 0.0) << "rank " << r << " span " << i;
      if (i > 0) {
        EXPECT_LE(lane.spans[i - 1].begin, lane.spans[i].begin)
            << "rank " << r << " span " << i;
      }
    }
  }
  // Rank 2's first span starts before its estimated offset: clamped at 0.
  EXPECT_DOUBLE_EQ(merged.tracks[2].spans[0].begin, 0.0);
  // Rank 3 runs "early" (negative offset): everything shifts later.
  EXPECT_NEAR(merged.tracks[3].spans[0].begin, 0.0015, 1e-12);

  const TraceReport rep = AnalyzeTrace(merged);
  EXPECT_EQ(rep.edges.matched, 4u);
  EXPECT_EQ(rep.edges.unmatched_posts, 0u);
  EXPECT_EQ(rep.edges.unmatched_recvs, 0u);
}

TEST(AnalyzeTrace, MatchesWireEdgesFifoPerPeerAndTag) {
  TraceData trace;
  ReportTrack a;
  a.name = "rank 0";
  a.spans.push_back(MakeSpan("wire_post", 0.000, 0.000, 1, 1, 5));
  a.spans.push_back(MakeSpan("wire_post", 0.010, 0.010, 1, 1, 5));
  a.spans.push_back(MakeSpan("wire_post", 0.020, 0.020, 1, 1, 9));  // lost
  ReportTrack b;
  b.name = "rank 1";
  b.spans.push_back(MakeSpan("wire_recv", 0.001, 0.004, 1, 0, 5));
  b.spans.push_back(MakeSpan("wire_recv", 0.011, 0.012, 1, 0, 5));
  b.spans.push_back(MakeSpan("wire_recv", 0.030, 0.031, 1, 0, 7));  // alien
  trace.tracks.push_back(a);
  trace.tracks.push_back(b);

  const TraceReport r = AnalyzeTrace(trace);
  EXPECT_EQ(r.edges.matched, 2u);
  EXPECT_EQ(r.edges.unmatched_posts, 1u);
  EXPECT_EQ(r.edges.unmatched_recvs, 1u);
  // k-th post pairs with the k-th recv: latencies 0.004 and 0.002.
  EXPECT_NEAR(r.edges.total_latency_s, 0.006, 1e-12);
  EXPECT_NEAR(r.edges.max_latency_s, 0.004, 1e-12);
}

// ----------------------------------------------------------------- diff ----

TEST(ReportDiff, SelfDiffIsAllZeroDeltas) {
  const auto r = AnalyzeTrace(LoadChromeTrace(ReadFixture("report_trace.json")));
  const auto metrics = MetricsFromJson(ReadFixture("report_metrics.json"));
  std::ostringstream os;
  WriteReportDiffMarkdown(r, r, &metrics, &metrics, os);
  const std::string out = os.str();
  // Every counter matches itself, so the counter table body is empty and
  // the unchanged tally equals the registry size.
  EXPECT_EQ(out.find(" | +"), std::string::npos) << out;
  EXPECT_EQ(out.find(" | -1"), std::string::npos) << out;
  EXPECT_NE(out.find(std::to_string(metrics.counters().size()) +
                     " counters unchanged."),
            std::string::npos)
      << out;
  // Each phase from the report appears exactly once in the union.
  for (const auto& p : r.phases) {
    EXPECT_NE(out.find("| " + p.name + " |"), std::string::npos) << p.name;
  }
}

TEST(ReportDiff, ReportsPhaseAndCounterMovement) {
  const auto a =
      AnalyzeTrace(LoadChromeTrace(ReadFixture("report_trace.json")));
  TraceReport b = a;
  ASSERT_FALSE(b.phases.empty());
  b.phases[0].virtual_s += 1.0;       // existing phase grows
  PhaseStat added;
  added.name = "new_phase";
  added.virtual_s = 0.5;
  b.phases.push_back(added);          // phase only B has
  b.horizon += 2.0;

  const auto ma = MetricsFromJson(ReadFixture("report_metrics.json"));
  MetricsRegistry mb = MetricsFromJson(ReadFixture("report_metrics.json"));
  mb.Counter("comm.allreduce.psr.bytes") += 100;

  std::ostringstream os;
  WriteReportDiffMarkdown(a, b, &ma, &mb, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("new_phase (B only)"), std::string::npos) << out;
  EXPECT_NE(out.find("+1 |"), std::string::npos);           // virtual delta
  EXPECT_NE(out.find("| +2 | "), std::string::npos);        // makespan delta
  EXPECT_NE(out.find("comm.allreduce.psr.bytes"), std::string::npos);
  EXPECT_NE(out.find("| +100 |"), std::string::npos);
}

// ---------------------------------------------------- convergence timeline --

TEST(TimelineJsonl, RoundTripsRecorderOutput) {
  TimeSeriesRecorder rec;
  TimeSeries& primal = rec.Series("ts.primal_residual");
  TimeSeries& objective = rec.Series("ts.objective");
  const double p[] = {8.0, 4.0, 1.0};
  for (std::size_t i = 0; i < 3; ++i) {
    rec.BeginIteration(i + 1);
    primal.Append(p[i]);
    objective.Append(i == 1 ? std::numeric_limits<double>::infinity()
                            : 100.0 + static_cast<double>(i));
  }
  std::ostringstream os;
  rec.WriteJsonl(os);
  const TimelineData data = LoadTimelineJsonl(os.str());

  ASSERT_EQ(data.series,
            (std::vector<std::string>{"ts.objective", "ts.primal_residual"}));
  ASSERT_EQ(data.iterations, (std::vector<std::uint64_t>{1, 2, 3}));
  const std::vector<double>* col = data.Column("ts.primal_residual");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(*col, (std::vector<double>{8.0, 4.0, 1.0}));
  // The infinity went out as null and comes back as NaN.
  const std::vector<double>& obj = *data.Column("ts.objective");
  EXPECT_DOUBLE_EQ(obj[0], 100.0);
  EXPECT_TRUE(std::isnan(obj[1]));
  EXPECT_DOUBLE_EQ(obj[2], 102.0);
  EXPECT_EQ(data.Column("ts.absent"), nullptr);
}

/// Loads `text` expecting a parse failure; returns the error message.
std::string TimelineFailure(const std::string& text) {
  try {
    LoadTimelineJsonl(text);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument for: " << text;
  return "";
}

TEST(TimelineJsonl, RejectsMalformedInputNamingTheLine) {
  constexpr const char* kHeader =
      "{\"psra_timeline\": 1, \"series\": [\"ts.a\", \"ts.b\"]}\n";

  EXPECT_NE(TimelineFailure("").find("no header"), std::string::npos);
  // A row before any header.
  EXPECT_NE(TimelineFailure("{\"it\": 1, \"v\": [1, 2]}\n")
                .find("timeline line 1"),
            std::string::npos);
  // Alien version.
  EXPECT_NE(TimelineFailure("{\"psra_timeline\": 2, \"series\": []}\n")
                .find("expected header"),
            std::string::npos);
  // Not JSON at all, with the 1-based line number.
  const std::string garbage = TimelineFailure(std::string(kHeader) + "}{\n");
  EXPECT_NE(garbage.find("timeline line 2"), std::string::npos) << garbage;
  // Row arity disagrees with the header.
  const std::string ragged =
      TimelineFailure(std::string(kHeader) + "{\"it\": 1, \"v\": [1]}\n");
  EXPECT_NE(ragged.find("1 values"), std::string::npos) << ragged;
  EXPECT_NE(ragged.find("2 series"), std::string::npos) << ragged;
  // Samples must be numbers or null.
  EXPECT_NE(TimelineFailure(std::string(kHeader) +
                            "{\"it\": 1, \"v\": [1, \"x\"]}\n")
                .find("numbers or null"),
            std::string::npos);
  // Negative / missing iteration number.
  EXPECT_NE(TimelineFailure(std::string(kHeader) +
                            "{\"it\": -1, \"v\": [1, 2]}\n")
                .find("numeric \"it\""),
            std::string::npos);
}

/// Hand-built timeline: a cleanly halving primal residual, constant bytes,
/// one rho adaptation.
TimelineData HalvingTimeline() {
  TimeSeriesRecorder rec;
  TimeSeries& primal = rec.Series("ts.primal_residual");
  TimeSeries& bytes = rec.Series("ts.bytes");
  TimeSeries& rho = rec.Series("ts.rho");
  double v = 8.0;
  for (std::uint64_t it = 1; it <= 8; ++it, v *= 0.5) {
    rec.BeginIteration(it);
    primal.Append(v);
    bytes.Append(100.0);
    rho.Append(it <= 4 ? 1.0 : 2.0);
  }
  std::ostringstream os;
  rec.WriteJsonl(os);
  return LoadTimelineJsonl(os.str());
}

TEST(AnalyzeTimelineSeries, ComputesCrossingsRhoAndEfficiency) {
  const TimelineReport r = AnalyzeTimeline(HalvingTimeline(), {4.0, 1.0, 1e-6});
  EXPECT_EQ(r.rows, 8u);
  EXPECT_EQ(r.first_iteration, 1u);
  EXPECT_EQ(r.last_iteration, 8u);
  EXPECT_TRUE(r.contiguous);

  ASSERT_EQ(r.crossings.size(), 3u);  // primal only: no dual series
  EXPECT_EQ(r.crossings[0].iteration, 2u);   // first sample <= 4.0
  EXPECT_EQ(r.crossings[1].iteration, 4u);   // first sample <= 1.0
  EXPECT_EQ(r.crossings[2].iteration, 0u);   // 1e-6: never reached

  ASSERT_EQ(r.health.size(), 1u);
  EXPECT_FALSE(r.health[0].diverged);
  EXPECT_FALSE(r.health[0].stalled);  // halving every row is > 1 % progress

  EXPECT_TRUE(r.has_rho);
  EXPECT_DOUBLE_EQ(r.rho_first, 1.0);
  EXPECT_DOUBLE_EQ(r.rho_last, 2.0);
  EXPECT_EQ(r.rho_changes, 1u);

  EXPECT_EQ(r.efficiency_series, "ts.primal_residual");
  EXPECT_DOUBLE_EQ(r.total_bytes, 800.0);
  ASSERT_FALSE(r.efficiency.empty());
  EXPECT_EQ(r.efficiency.front().iteration, 1u);
  EXPECT_DOUBLE_EQ(r.efficiency.front().cumulative_bytes, 100.0);
  EXPECT_EQ(r.efficiency.back().iteration, 8u);
  EXPECT_DOUBLE_EQ(r.efficiency.back().cumulative_bytes, 800.0);
  EXPECT_DOUBLE_EQ(r.efficiency.back().residual, 8.0 * std::pow(0.5, 7));
}

TEST(AnalyzeTimelineSeries, FlagsDivergenceStallAndGaps) {
  TimeSeriesRecorder rec;
  TimeSeries& primal = rec.Series("ts.primal_residual");
  TimeSeries& dual = rec.Series("ts.dual_residual");
  // 12 rows with a gap at the end; primal grows (diverges), dual freezes
  // after the first row (stalls). Row 12 jumps to iteration 13.
  for (std::uint64_t it = 1; it <= 12; ++it) {
    rec.BeginIteration(it == 12 ? 13 : it);
    primal.Append(static_cast<double>(it));
    dual.Append(it == 1 ? 2.0 : 1.0);
  }
  std::ostringstream os;
  rec.WriteJsonl(os);
  const TimelineReport r = AnalyzeTimeline(LoadTimelineJsonl(os.str()), {});

  EXPECT_FALSE(r.contiguous);
  ASSERT_EQ(r.health.size(), 2u);
  EXPECT_EQ(r.health[0].series, "ts.primal_residual");
  EXPECT_TRUE(r.health[0].diverged);
  EXPECT_EQ(r.health[1].series, "ts.dual_residual");
  EXPECT_FALSE(r.health[1].diverged);
  EXPECT_TRUE(r.health[1].stalled);

  // A non-finite sample marks the series diverged even if it ends lower.
  TimeSeriesRecorder nan_rec;
  TimeSeries& p = nan_rec.Series("ts.primal_residual");
  const double vals[] = {4.0, std::numeric_limits<double>::quiet_NaN(), 1.0};
  for (std::size_t i = 0; i < 3; ++i) {
    nan_rec.BeginIteration(i + 1);
    p.Append(vals[i]);
  }
  std::ostringstream nan_os;
  nan_rec.WriteJsonl(nan_os);
  const TimelineReport nr = AnalyzeTimeline(LoadTimelineJsonl(nan_os.str()), {});
  ASSERT_EQ(nr.health.size(), 1u);
  EXPECT_TRUE(nr.health[0].diverged);
  ASSERT_EQ(nr.series.size(), 1u);
  EXPECT_TRUE(nr.series[0].has_non_finite);
  EXPECT_EQ(nr.series[0].finite, 2u);
}

// Regenerate both goldens after an intentional change with
//   PSRA_REGEN_GOLDEN=1 build/tests/test_report \
//     --gtest_filter='TimelineGolden.*'
// (timeline_golden.jsonl itself comes from a real run; see its header
// comment in EXPERIMENTS.md — the md is derived here.)
TEST(TimelineGolden, MarkdownMatchesCommittedFixture) {
  const TimelineData data =
      LoadTimelineJsonl(ReadFixture("timeline_golden.jsonl"));
  const TimelineReport r =
      AnalyzeTimeline(data, {1e-1, 1e-2, 1e-3, 1e-4});  // psra_report default
  std::ostringstream os;
  WriteTimelineMarkdown(r, os);
  const std::string text = os.str();
  if (std::getenv("PSRA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(FixturePath("timeline_golden.md"));
    out << text;
  }
  EXPECT_EQ(text, ReadFixture("timeline_golden.md"))
      << "timeline report layout changed; regenerate the golden (see comment)";
  // The fixture is a real converging run: pin the headline facts.
  EXPECT_NE(text.find(", contiguous)"), std::string::npos);
  EXPECT_NE(text.find("| ts.primal_residual | converging |"),
            std::string::npos);
}

TEST(TimelineDiff, SelfDiffShowsNoMovement) {
  const TimelineReport r = AnalyzeTimeline(HalvingTimeline(), {1.0});
  std::ostringstream os;
  WriteTimelineDiffMarkdown(r, r, os);
  const std::string out = os.str();
  // Run-shape deltas are unsigned zeros; every series rel column is 0.0%.
  EXPECT_NE(out.find("| 8 | 8 | 0 |"), std::string::npos) << out;
  EXPECT_EQ(out.find("| +"), std::string::npos) << out;
  for (const char* name : {"ts.primal_residual", "ts.bytes", "ts.rho"}) {
    EXPECT_NE(out.find("| " + std::string(name) + " |"), std::string::npos)
        << name;
  }
  EXPECT_NE(out.find("0.0%"), std::string::npos);
}

TEST(TimelineDiff, ReportsShapeAndCrossingMovement) {
  const TimelineData data = HalvingTimeline();
  TimelineData shorter = data;
  shorter.iterations.resize(6);
  for (auto& col : shorter.columns) col.resize(6);
  const TimelineReport a = AnalyzeTimeline(shorter, {1.0});
  const TimelineReport b = AnalyzeTimeline(data, {1.0, 0.1});
  std::ostringstream os;
  WriteTimelineDiffMarkdown(a, b, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| rows | 6 | 8 | +2 |"), std::string::npos) << out;
  // Both reached 1.0 at the same row; only B ran long enough for 0.1 (its
  // row 8 sample, 8 * 0.5^7) — A's side reads "never".
  EXPECT_NE(out.find("| ts.primal_residual | 1 | 4 | 4 |"), std::string::npos)
      << out;
  EXPECT_NE(out.find("| ts.primal_residual | 0.1 | never | 8 |"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace psra::obs
