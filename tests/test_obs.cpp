// Observability subsystem tests: histogram bucketing, deterministic metrics
// JSON, span bookkeeping and Chrome-trace export, plus the engine-level
// contracts — traced runs cover each worker's virtual makespan, metrics are
// identical for any host pool size, and attaching an ObsContext leaves the
// run's numerical results bitwise untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "admm/admmlib.hpp"
#include "admm/problem.hpp"
#include "admm/psra_hgadmm.hpp"
#include "admm/registry.hpp"
#include "engine/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "support/status.hpp"

namespace psra {
namespace {

using admm::BuildProblem;
using admm::ConsensusProblem;
using admm::GroupingMode;
using admm::PsraConfig;
using admm::PsraHgAdmm;
using admm::RunOptions;
using admm::RunResult;

// ------------------------------------------------------------ histogram ----

TEST(Histogram, BucketsObservationsWithOverflow) {
  const double bounds[] = {1.0, 10.0, 100.0};
  obs::Histogram h;
  h.bounds.assign(std::begin(bounds), std::end(bounds));
  h.counts.assign(4, 0);

  h.Observe(0.5);    // <= 1
  h.Observe(1.0);    // <= 1 (inclusive upper bound)
  h.Observe(5.0);    // <= 10
  h.Observe(100.0);  // <= 100
  h.Observe(1e6);    // overflow

  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(Histogram, MergeAddsBucketwise) {
  obs::MetricsRegistry a, b;
  const double bounds[] = {1.0, 2.0};
  a.Histo("h", bounds).Observe(0.5);
  b.Histo("h", bounds).Observe(1.5);
  b.Histo("h", bounds).Observe(9.0);
  a.MergeFrom(b);
  const auto& h = a.histograms().at("h");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(h.count, 3u);
}

TEST(Histogram, MergeRejectsMismatchedBounds) {
  const double coarse[] = {1.0, 2.0};
  const double fine[] = {0.5, 1.0, 2.0};
  obs::MetricsRegistry a, b;
  a.Histo("h", coarse).Observe(0.5);
  b.Histo("h", fine).Observe(0.5);
  // Both the direct histogram merge and the registry-level MergeFrom must
  // refuse: bucket-wise addition across different bounds is meaningless,
  // which is why every wire.* histogram shares WireLatencyBounds().
  EXPECT_THROW(a.Histo("h", coarse).Merge(b.histograms().at("h")),
               InvalidArgument);
  EXPECT_THROW(a.MergeFrom(b), InvalidArgument);
}

TEST(Histogram, MergeAccumulatesSumAndOverflow) {
  const double bounds[] = {1.0};
  obs::MetricsRegistry a, b;
  a.Histo("h", bounds).Observe(0.25);
  b.Histo("h", bounds).Observe(4.0);  // overflow bucket
  b.Histo("h", bounds).Observe(0.75);
  a.MergeFrom(b);
  const auto& h = a.histograms().at("h");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 5.0);
}

// ------------------------------------------------------------- registry ----

TEST(MetricsRegistry, JsonIsDeterministicAcrossInsertionOrder) {
  const double bounds[] = {0.1, 1.0};
  obs::MetricsRegistry a;
  a.Counter("z.last") = 3;
  a.Counter("a.first") = 1;
  a.Gauge("m.mid") = 2.5;
  a.Histo("h.one", bounds).Observe(0.5);

  obs::MetricsRegistry b;
  b.Histo("h.one", bounds).Observe(0.5);
  b.Gauge("m.mid") = 2.5;
  b.Counter("a.first") = 1;
  b.Counter("z.last") = 3;

  std::ostringstream ja, jb;
  a.WriteJson(ja);
  b.WriteJson(jb);
  const std::string text = ja.str();
  EXPECT_EQ(text, jb.str());
  EXPECT_EQ(a, b);

  EXPECT_NO_THROW(obs::json::Parse(text));
}

TEST(MetricsRegistry, MergeSemantics) {
  obs::MetricsRegistry a, b;
  a.Counter("c") = 2;
  b.Counter("c") = 3;
  b.Counter("only_b") = 7;
  a.Gauge("g") = 1.0;
  b.Gauge("g") = 9.0;
  a.MergeFrom(b);
  EXPECT_EQ(a.counters().at("c"), 5u);        // counters add
  EXPECT_EQ(a.counters().at("only_b"), 7u);   // missing keys appear
  EXPECT_DOUBLE_EQ(a.gauges().at("g"), 9.0);  // gauges overwrite
}

// --------------------------------------------------------------- tracer ----

TEST(SpanTracer, CoverageIsUnionOfSpans) {
  obs::SpanTracer tr;
  const auto t = tr.AddTrack("worker 0");
  tr.Add(t, "a", 0.0, 0.4, 1);
  tr.Add(t, "b", 0.2, 0.5, 1);  // overlaps a
  tr.Add(t, "c", 0.9, 1.0, 2);
  // Union covers [0, 0.5] + [0.9, 1.0] = 0.6 of a 1.0 horizon.
  EXPECT_NEAR(tr.Coverage(t, 1.0), 0.6, 1e-12);

  // Negative-length spans clamp to zero length rather than corrupting the
  // union computation.
  tr.Add(t, "bad", 0.8, 0.7, 3);
  EXPECT_NEAR(tr.Coverage(t, 1.0), 0.6, 1e-12);
}

TEST(SpanTracer, SpansKeepInsertionOrderAndIterationTags) {
  obs::SpanTracer tr;
  const auto t = tr.AddTrack("worker 0");
  tr.Add(t, "x_update", 0.0, 0.1, 1);
  tr.Add(t, "w_allreduce", 0.1, 0.3, 1);
  tr.Add(t, "x_update", 0.3, 0.4, 2);
  const auto& spans = tr.spans(t);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "x_update");
  EXPECT_STREQ(spans[1].name, "w_allreduce");
  EXPECT_EQ(spans[2].iteration, 2u);
}

// Chrome's trace viewer renders same-track spans by duration containment:
// two spans on one track may nest or be disjoint, never partially overlap.
void ExpectProperNesting(const std::vector<obs::TraceSpan>& spans) {
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const auto& a = spans[i];
      const auto& b = spans[j];
      const bool disjoint =
          a.end <= b.begin + kEps || b.end <= a.begin + kEps;
      const bool a_contains_b =
          a.begin <= b.begin + kEps && b.end <= a.end + kEps;
      const bool b_contains_a =
          b.begin <= a.begin + kEps && a.end <= b.end + kEps;
      EXPECT_TRUE(disjoint || a_contains_b || b_contains_a)
          << a.name << " [" << a.begin << ", " << a.end << ") vs " << b.name
          << " [" << b.begin << ", " << b.end << ")";
    }
  }
}

TEST(SpanTracer, ChromeJsonIsValidAndCarriesTrackMetadata) {
  obs::SpanTracer tr;
  const auto t0 = tr.AddTrack("worker 0");
  tr.AddTrack("group generator");
  tr.Add(t0, "x_update", 0.0, 0.25, 1);

  std::ostringstream os;
  tr.WriteChromeJson(os);
  const std::string text = os.str();

  bool has_events = false;
  for (const auto& k : obs::json::KeyPaths(obs::json::Parse(text))) {
    if (k == "traceEvents") has_events = true;
  }
  EXPECT_TRUE(has_events);
  EXPECT_NE(text.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(text.find("\"group generator\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
}

TEST(SpanTracer, PeerAndTagRoundTripThroughChromeJson) {
  obs::SpanTracer tr;
  const auto t = tr.AddTrack("rank 0");
  tr.Add(t, "wire_post", 0.0, 0.0, 1, 0.0, /*peer=*/2, /*tag=*/0x30005u);
  tr.Add(t, "compute", 0.1, 0.2, 1);  // no peer: exporter omits the args

  std::ostringstream os;
  tr.WriteChromeJson(os);
  const obs::TraceData back = obs::LoadChromeTrace(os.str());
  ASSERT_EQ(back.tracks.size(), 1u);
  ASSERT_EQ(back.tracks[0].spans.size(), 2u);
  const auto& post = back.tracks[0].spans[0];
  EXPECT_EQ(post.name, "wire_post");
  EXPECT_EQ(post.peer, 2);
  EXPECT_EQ(post.tag, 0x30005u);
  const auto& compute = back.tracks[0].spans[1];
  EXPECT_EQ(compute.peer, -1);
  EXPECT_EQ(compute.tag, 0u);
}

// ------------------------------------------------------ engine contracts ----

data::SyntheticSpec ObsSpec() {
  data::SyntheticSpec spec;
  spec.name = "obs";
  spec.num_features = 120;
  spec.num_train = 240;
  spec.num_test = 80;
  spec.mean_row_nnz = 10.0;
  spec.label_noise = 0.02;
  spec.seed = 11;
  return spec;
}

PsraConfig ObsCluster(GroupingMode grouping) {
  PsraConfig cfg;
  cfg.cluster.num_nodes = 4;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = grouping;
  return cfg;
}

RunResult RunWithObs(GroupingMode grouping, obs::ObsContext* obs,
                     engine::ThreadPool* pool = nullptr) {
  const auto problem = BuildProblem(ObsSpec(), 8);
  RunOptions opt;
  opt.max_iterations = 6;
  opt.eval_every = 2;
  opt.obs = obs;
  opt.pool = pool;
  return PsraHgAdmm(ObsCluster(grouping)).Run(problem, opt);
}

class TracedEngine : public ::testing::TestWithParam<GroupingMode> {};

TEST_P(TracedEngine, SpansCoverEachWorkersVirtualMakespan) {
  obs::ObsContext obs;
  const auto res = RunWithObs(GetParam(), &obs);
  ASSERT_GE(obs.tracer.num_tracks(), 8u);

  std::size_t worker_tracks = 0;
  for (obs::TrackId t = 0; t < obs.tracer.num_tracks(); ++t) {
    if (obs.tracer.track_name(t).rfind("worker", 0) != 0) continue;
    ++worker_tracks;
    const auto& spans = obs.tracer.spans(t);
    ASSERT_FALSE(spans.empty()) << obs.tracer.track_name(t);
    simnet::VirtualTime horizon = 0.0;
    for (const auto& s : spans) {
      EXPECT_LE(s.end, res.makespan + 1e-12);
      horizon = std::max(horizon, s.end);
    }
    ExpectProperNesting(spans);
    // The acceptance gate: >= 95% of the worker's own virtual makespan is
    // attributed to a named phase (the bracketing span discipline should
    // make this essentially 100%).
    EXPECT_GE(obs.tracer.Coverage(t, horizon), 0.95)
        << obs.tracer.track_name(t);
  }
  EXPECT_EQ(worker_tracks, 8u);
}

TEST_P(TracedEngine, ChromeExportOfARealRunValidates) {
  obs::ObsContext obs;
  RunWithObs(GetParam(), &obs);
  std::ostringstream os;
  obs.tracer.WriteChromeJson(os);
  const std::string text = os.str();
  EXPECT_NO_THROW(obs::json::Parse(text));
}

TEST_P(TracedEngine, MetricsIdenticalForAnyHostPoolSize) {
  obs::ObsContext serial, pooled;
  const auto a = RunWithObs(GetParam(), &serial);

  engine::ThreadPool pool4(4);
  pool4.ForceParallelDispatchForTesting();
  const auto b = RunWithObs(GetParam(), &pooled, &pool4);

  EXPECT_EQ(serial.metrics, pooled.metrics);
  std::ostringstream ja, jb;
  a.metrics.WriteJson(ja);
  b.metrics.WriteJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST_P(TracedEngine, AttachingObsLeavesRunBitwiseIdentical) {
  obs::ObsContext obs;
  const auto with = RunWithObs(GetParam(), &obs);
  const auto without = RunWithObs(GetParam(), nullptr);

  ASSERT_EQ(with.final_z.size(), without.final_z.size());
  EXPECT_EQ(std::memcmp(with.final_z.data(), without.final_z.data(),
                        with.final_z.size() * sizeof(double)),
            0);
  const double a[] = {with.final_objective, with.total_cal_time,
                      with.total_comm_time, with.makespan};
  const double b[] = {without.final_objective, without.total_cal_time,
                      without.total_comm_time, without.makespan};
  EXPECT_EQ(std::memcmp(a, b, sizeof(a)), 0);
  EXPECT_EQ(with.elements_sent, without.elements_sent);
  EXPECT_EQ(with.messages_sent, without.messages_sent);
  // The obs-off run carries an empty registry; the obs-on run filled one.
  EXPECT_TRUE(without.metrics.empty());
  EXPECT_FALSE(with.metrics.empty());
}

TEST_P(TracedEngine, MetricsAgreeWithRunResultTotals) {
  obs::ObsContext obs;
  const auto res = RunWithObs(GetParam(), &obs);
  EXPECT_EQ(res.metrics.counters().at("engine.iterations"),
            res.iterations_run);
  EXPECT_DOUBLE_EQ(res.metrics.gauges().at("run.makespan_s"), res.makespan);
  EXPECT_DOUBLE_EQ(res.metrics.gauges().at("run.cal_time_s"),
                   res.total_cal_time);
  EXPECT_DOUBLE_EQ(res.metrics.gauges().at("run.comm_time_s"),
                   res.total_comm_time);
}

INSTANTIATE_TEST_SUITE_P(AllGroupings, TracedEngine,
                         ::testing::Values(GroupingMode::kFlat,
                                           GroupingMode::kHierarchical,
                                           GroupingMode::kDynamicGroups),
                         [](const auto& param_info) {
                           return admm::GroupingModeName(param_info.param);
                         });

// The other engine families publish their own traffic counters.
TEST(EngineMetrics, GadmmChainAndAdmmMasterCountersAppear) {
  const auto problem = BuildProblem(ObsSpec(), 8);
  admm::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.workers_per_node = 2;
  RunOptions opt;
  opt.max_iterations = 4;
  opt.eval_every = 2;

  obs::ObsContext obs_gadmm;
  opt.obs = &obs_gadmm;
  const auto g = admm::RunAlgorithm("gadmm", cluster, problem, opt);
  EXPECT_GT(g.metrics.counters().at("comm.chain.push.messages"), 0u);
  EXPECT_GT(g.metrics.counters().at("comm.chain.push.bytes"), 0u);

  obs::ObsContext obs_ad;
  opt.obs = &obs_ad;
  const auto ad = admm::RunAlgorithm("ad-admm", cluster, problem, opt);
  EXPECT_GT(ad.metrics.counters().at("comm.master.report.messages"), 0u);
  EXPECT_GT(ad.metrics.counters().at("master.z_updates"), 0u);
}

// ADMMLib publishes its SSP-barrier layer and ring traffic, and its spans
// carry host wall time in the Chrome trace args.
TEST(EngineMetrics, AdmmLibSspCountersAndWallClockAppear) {
  const auto problem = BuildProblem(ObsSpec(), 8);
  admm::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.workers_per_node = 2;
  RunOptions opt;
  opt.max_iterations = 4;
  opt.eval_every = 2;

  obs::ObsContext obs;
  opt.obs = &obs;
  const auto res = admm::RunAlgorithm("admmlib", cluster, problem, opt);
  const auto& c = res.metrics.counters();
  EXPECT_GT(c.at("ssp.rounds"), 0u);
  EXPECT_GT(c.at("comm.allreduce.ring.invocations"), 0u);
  EXPECT_GT(c.at("comm.allreduce.ring.bytes"), 0u);
  EXPECT_EQ(c.at("engine.iterations"), res.iterations_run);
  EXPECT_EQ(res.metrics.histograms().count("ssp.participants"), 1u);

  std::ostringstream os;
  obs.tracer.WriteChromeJson(os);
  const std::string text = os.str();
  for (const char* span : {"x_update", "w_allreduce", "z_y_update"}) {
    EXPECT_NE(text.find('"' + std::string(span) + '"'), std::string::npos)
        << span;
  }
  EXPECT_NE(text.find("\"wall_us\""), std::string::npos);
}

// PSR moves fewer bytes than Ring for the same job (paper eq. 11-16): the
// per-collective byte counters must reproduce that ordering. Hierarchical
// grouping (full leader barrier), so the collective spans all 8 nodes —
// dynamic grouping tends to form pairs, and at group size 2 every allreduce
// is the same exchange.
TEST(EngineMetrics, PsrBytesBelowRingBytes) {
  const auto problem = BuildProblem(ObsSpec(), 16);
  PsraConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.workers_per_node = 2;
  cfg.grouping = GroupingMode::kHierarchical;
  RunOptions opt;
  opt.max_iterations = 4;
  opt.eval_every = 4;

  obs::ObsContext obs_psr;
  opt.obs = &obs_psr;
  cfg.allreduce = comm::AllreduceKind::kPsr;
  PsraHgAdmm(cfg).Run(problem, opt);

  obs::ObsContext obs_ring;
  opt.obs = &obs_ring;
  cfg.allreduce = comm::AllreduceKind::kRing;
  PsraHgAdmm(cfg).Run(problem, opt);

  const auto& psr = obs_psr.metrics.counters();
  const auto& ring = obs_ring.metrics.counters();
  EXPECT_LT(psr.at("comm.allreduce.psr.bytes"),
            ring.at("comm.allreduce.ring.bytes"));
  // Both send 2*n*(n-1) point-to-point messages at group size n; the hop
  // advantage shows in rounds: PSR is 2 phases flat, Ring takes 2*(n-1)
  // pipeline steps.
  EXPECT_EQ(psr.at("comm.allreduce.psr.messages"),
            ring.at("comm.allreduce.ring.messages"));
  EXPECT_LT(psr.at("comm.allreduce.psr.rounds"),
            ring.at("comm.allreduce.ring.rounds"));
}

// Each intra-node broadcast ships the group sum and books exactly the bytes
// it was charged time for: with sparse comm, dim dense values when the sum
// is past half fill (ElemPricing::Cheaper), its nnz value-index pairs
// otherwise. One round, so the one allreduce's fill ratio says which.
TEST(EngineMetrics, IntraNodeBroadcastBooksWhatItCharged) {
  const auto problem = BuildProblem(ObsSpec(), 8);
  const auto dim = static_cast<std::uint64_t>(problem.dim());
  RunOptions opt;
  opt.max_iterations = 1;
  opt.eval_every = 1;
  admm::AdmmLibConfig lib;
  lib.cluster = ObsCluster(GroupingMode::kHierarchical).cluster;
  for (const bool admmlib : {false, true}) {
    SCOPED_TRACE(admmlib ? "ADMMLib" : "PSRA hierarchical");
    obs::ObsContext obs;
    opt.obs = &obs;
    if (admmlib) {
      admm::AdmmLib(lib).Run(problem, opt);
    } else {
      PsraHgAdmm(ObsCluster(GroupingMode::kHierarchical)).Run(problem, opt);
    }
    const auto& fill = obs.metrics.histograms().at("comm.allreduce.fill_ratio");
    ASSERT_EQ(fill.count, 1u);
    const auto nnz = static_cast<std::uint64_t>(
        std::llround(fill.sum * static_cast<double>(dim)));
    const bool dense = dim * 8 < nnz * 16;
    const std::uint64_t peers = 4 * (2 - 1);  // 4 nodes of 2 workers
    const auto& c = obs.metrics.counters();
    EXPECT_EQ(c.at("comm.intra.bcast.messages"), peers);
    EXPECT_EQ(c.at("comm.intra.bcast.elements"), peers * (dense ? dim : nnz));
    EXPECT_EQ(c.at("comm.intra.bcast.bytes"),
              peers * (dense ? dim * 8 : nnz * 16));
  }
}

// ----------------------------------------------------- timeline recorder ----

TEST(TimeSeriesRecorder, AppendsAcrossChunkBoundariesAndReadsBack) {
  constexpr std::size_t kChunk = obs::TimeSeriesRecorder::kChunkSamples;
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& s = rec.Series("ts.x");
  const std::size_t n = 2 * kChunk + 7;  // spans three chunks
  for (std::size_t i = 0; i < n; ++i) {
    rec.BeginIteration(i + 1);
    s.Append(0.5 * static_cast<double>(i));
  }
  ASSERT_EQ(s.size(), n);
  ASSERT_EQ(rec.rows(), n);
  EXPECT_DOUBLE_EQ(s.front(), 0.0);
  EXPECT_DOUBLE_EQ(s.back(), 0.5 * static_cast<double>(n - 1));
  // The first sample of each fresh chunk, where a stale lease would show.
  EXPECT_DOUBLE_EQ(s[kChunk], 0.5 * static_cast<double>(kChunk));
  EXPECT_DOUBLE_EQ(s[2 * kChunk], 0.5 * static_cast<double>(2 * kChunk));
  EXPECT_EQ(rec.IterationAt(0), 1u);
  EXPECT_EQ(rec.IterationAt(n - 1), n);
}

TEST(TimeSeriesRecorder, SeriesNamesLiveUnderTheTsNamespace) {
  obs::TimeSeriesRecorder rec;
  EXPECT_THROW(rec.Series("primal_residual"), InvalidArgument);
  EXPECT_THROW(rec.Series("ts."), InvalidArgument);
  EXPECT_NO_THROW(rec.Series("ts.primal_residual"));
}

TEST(TimeSeriesRecorder, HandlesAreStableAcrossLaterRegistrations) {
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& first = rec.Series("ts.m");
  first.Append(1.0);
  // Registering more series (map rebalancing) must not move the handle.
  for (const char* name : {"ts.a", "ts.z", "ts.b", "ts.y"}) rec.Series(name);
  EXPECT_EQ(&rec.Series("ts.m"), &first);
  EXPECT_DOUBLE_EQ(first.back(), 1.0);
}

TEST(TimeSeriesRecorder, FirstIterationAtOrBelowFindsTheEarliestCrossing) {
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& s = rec.Series("ts.r");
  const double samples[] = {8.0, 4.0, 2.0, 1.0, 0.5};
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    rec.BeginIteration(i + 1);
    s.Append(samples[i]);
  }
  EXPECT_EQ(rec.FirstIterationAtOrBelow("ts.r", 4.0), 2u);   // halved
  EXPECT_EQ(rec.FirstIterationAtOrBelow("ts.r", 0.5), 5u);
  EXPECT_EQ(rec.FirstIterationAtOrBelow("ts.r", 0.1), 0u);   // never
  EXPECT_EQ(rec.FirstIterationAtOrBelow("ts.absent", 1.0), 0u);
}

TEST(TimeSeriesRecorder, MergeFromConcatenatesLikeAnUninterruptedRun) {
  obs::TimeSeriesRecorder full, head, tail;
  for (std::uint64_t it = 1; it <= 6; ++it) {
    obs::TimeSeriesRecorder& part = it <= 3 ? head : tail;
    for (obs::TimeSeriesRecorder* r : {&full, &part}) {
      r->BeginIteration(it);
      r->Series("ts.a").Append(1.0 / static_cast<double>(it));
      r->Series("ts.b").Append(static_cast<double>(10 * it));
    }
  }
  head.MergeFrom(tail);
  std::ostringstream merged, straight;
  head.WriteJsonl(merged);
  full.WriteJsonl(straight);
  EXPECT_EQ(merged.str(), straight.str());
}

TEST(TimeSeriesRecorder, JsonlHeaderIsSortedAndNonFiniteBecomesNull) {
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& b = rec.Series("ts.b");  // registered before ts.a
  obs::TimeSeries& a = rec.Series("ts.a");
  rec.BeginIteration(1);
  b.Append(std::numeric_limits<double>::quiet_NaN());
  a.Append(2.0);
  std::ostringstream os;
  rec.WriteJsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("{\"psra_timeline\": 1, \"series\": "
                      "[\"ts.a\", \"ts.b\"]}\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"it\": 1, \"v\": [2, null]}\n"), std::string::npos)
      << text;
  // Every line is itself valid JSON.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_NO_THROW(obs::json::Parse(line)) << line;
  }
}

TEST(TimeSeriesRecorder, JsonlRejectsRaggedSeries) {
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& a = rec.Series("ts.a");
  obs::TimeSeries& b = rec.Series("ts.b");
  rec.BeginIteration(1);
  a.Append(1.0);
  b.Append(1.0);
  rec.BeginIteration(2);
  a.Append(2.0);  // ts.b misses its row 2 sample
  std::ostringstream os;
  EXPECT_THROW(rec.WriteJsonl(os), InvalidArgument);
}

TEST(TimeSeriesRecorder, ClearReturnsChunksToThePoolForReuse) {
  constexpr std::size_t kChunk = obs::TimeSeriesRecorder::kChunkSamples;
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& s = rec.Series("ts.x");
  for (std::size_t i = 0; i < kChunk + 1; ++i) {
    rec.BeginIteration(i + 1);
    s.Append(static_cast<double>(i));
  }
  rec.Clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.rows(), 0u);
  EXPECT_EQ(rec.Find("ts.x"), nullptr);
  // Refill: leases come from the pool and the old samples are gone.
  obs::TimeSeries& again = rec.Series("ts.x");
  rec.BeginIteration(1);
  again.Append(-3.5);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_DOUBLE_EQ(again[0], -3.5);
  EXPECT_EQ(rec.IterationAt(0), 1u);
}

TEST(TimeSeriesRecorder, PublishSummaryEmitsOverwriteSafeGauges) {
  obs::TimeSeriesRecorder rec;
  obs::TimeSeries& s = rec.Series("ts.r");
  for (const double v : {4.0, 1.0, 9.0}) {
    rec.BeginIteration(s.size() + 1);
    s.Append(v);
  }
  obs::MetricsRegistry m;
  rec.PublishSummary(m);
  rec.PublishSummary(m);  // idempotent: gauges overwrite, never accumulate
  EXPECT_DOUBLE_EQ(m.gauges().at("ts.r.samples"), 3.0);
  EXPECT_DOUBLE_EQ(m.gauges().at("ts.r.first"), 4.0);
  EXPECT_DOUBLE_EQ(m.gauges().at("ts.r.last"), 9.0);
  EXPECT_DOUBLE_EQ(m.gauges().at("ts.r.min"), 1.0);
  EXPECT_DOUBLE_EQ(m.gauges().at("ts.r.max"), 9.0);
}

// ------------------------------------------------------ engine timelines ----

TEST_P(TracedEngine, TimelineRecordsOneRowPerIteration) {
  obs::ObsContext obs;
  const auto res = RunWithObs(GetParam(), &obs);
  ASSERT_EQ(obs.timeline.rows(), res.iterations_run);
  for (std::size_t r = 0; r < obs.timeline.rows(); ++r) {
    EXPECT_EQ(obs.timeline.IterationAt(r), r + 1);
  }
  for (const char* name :
       {"ts.primal_residual", "ts.dual_residual", "ts.objective", "ts.rho",
        "ts.active_groups", "ts.regroup_events", "ts.bytes", "ts.rounds"}) {
    const obs::TimeSeries* s = obs.timeline.Find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->size(), res.iterations_run) << name;
  }
  // The per-iteration bytes deltas add back up to the registry's totals: the
  // delta baselining (setup traffic excluded) must not leak rows.
  const obs::TimeSeries& bytes = *obs.timeline.Find("ts.bytes");
  double timeline_bytes = 0.0;
  for (std::size_t r = 0; r < bytes.size(); ++r) timeline_bytes += bytes[r];
  EXPECT_GT(timeline_bytes, 0.0);
  // Summary gauges ride the registry (and therefore every metrics.json).
  EXPECT_DOUBLE_EQ(res.metrics.gauges().at("ts.primal_residual.samples"),
                   static_cast<double>(res.iterations_run));
  EXPECT_DOUBLE_EQ(res.metrics.gauges().at("ts.rho.first"),
                   obs.timeline.Find("ts.rho")->front());
  // Max-iteration exit: the stopping gauges must say "did not converge".
  EXPECT_DOUBLE_EQ(res.metrics.gauges().at("stopping.converged"), 0.0);
  EXPECT_DOUBLE_EQ(
      res.metrics.gauges().at("stopping.iterations_to_tolerance"), 0.0);
}

TEST_P(TracedEngine, TimelineIdenticalForAnyHostPoolSize) {
  obs::ObsContext serial, pooled;
  RunWithObs(GetParam(), &serial);

  engine::ThreadPool pool4(4);
  pool4.ForceParallelDispatchForTesting();
  RunWithObs(GetParam(), &pooled, &pool4);

  std::ostringstream ja, jb;
  serial.timeline.WriteJsonl(ja);
  pooled.timeline.WriteJsonl(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

// Every engine family records a convergence timeline with its own series
// taxonomy; rows always ascend one per update round.
TEST(EngineTimeline, EveryEngineRecordsItsSeriesTaxonomy) {
  const auto problem = BuildProblem(ObsSpec(), 8);
  admm::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.workers_per_node = 2;
  RunOptions opt;
  opt.max_iterations = 4;
  opt.eval_every = 2;

  const struct {
    const char* algorithm;
    std::vector<const char*> series;
  } cases[] = {
      {"admmlib",
       {"ts.primal_residual", "ts.dual_residual", "ts.objective", "ts.rho",
        "ts.ssp_staleness", "ts.bytes", "ts.rounds"}},
      {"gadmm",
       {"ts.primal_residual", "ts.objective", "ts.rho", "ts.bytes",
        "ts.messages"}},
      {"ad-admm", {"ts.objective", "ts.rho", "ts.bytes", "ts.participants"}},
  };
  for (const auto& c : cases) {
    obs::ObsContext obs;
    opt.obs = &obs;
    const auto res = admm::RunAlgorithm(c.algorithm, cluster, problem, opt);
    // One row per completed update round — engine.iterations is the
    // cross-family iteration count (the async master's is its z-update
    // count, as is its RunResult::iterations_run).
    EXPECT_EQ(obs.timeline.rows(),
              res.metrics.counters().at("engine.iterations"))
        << c.algorithm;
    for (const char* name : c.series) {
      const obs::TimeSeries* s = obs.timeline.Find(name);
      ASSERT_NE(s, nullptr) << c.algorithm << " " << name;
      EXPECT_EQ(s->size(), obs.timeline.rows()) << c.algorithm << " " << name;
    }
    // The taxonomy is exact, not a subset: series() holds nothing else.
    EXPECT_EQ(obs.timeline.series().size(), c.series.size()) << c.algorithm;
    std::ostringstream os;
    EXPECT_NO_THROW(obs.timeline.WriteJsonl(os)) << c.algorithm;
  }
}

// One epilogue writes every engine's run summary and trace records: with
// obs attached, each engine publishes exactly the same 16 summary keys, they
// agree with its RunResult, and each trace record's objective, rho and
// residuals are that iteration's timeline samples, bit for bit, wherever the
// engine records the series. Message drops and delays make the fault
// counters of the engines that model them nonzero; ADMMLib models no faults
// and rejects a plan, so it runs with an empty one.
TEST(EngineEpilogue, EveryEngineWritesOneSummaryAndMatchingTraceRows) {
  const auto problem = BuildProblem(ObsSpec(), 8);
  admm::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.workers_per_node = 2;
  cluster.fault.message_drop_probability = 0.1;
  cluster.fault.max_retries = 12;
  cluster.fault.message_delay_probability = 0.2;
  cluster.fault.message_delay_s = 1e-4;
  RunOptions opt;
  opt.max_iterations = 5;
  opt.eval_every = 2;

  const std::vector<std::string> want = {
      "counters.engine.censored_sends",
      "counters.engine.iterations",
      "counters.fault.delayed_messages",
      "counters.fault.down_worker_iterations",
      "counters.fault.dropped_messages",
      "counters.fault.leader_deaths",
      "counters.fault.leader_reelections",
      "counters.fault.recoveries",
      "counters.fault.retries",
      "counters.fault.worker_crashes",
      "gauges.run.cal_time_s",
      "gauges.run.comm_time_s",
      "gauges.run.iterations",
      "gauges.run.makespan_s",
      "gauges.stopping.converged",
      "gauges.stopping.iterations_to_tolerance",
  };
  const auto is_summary = [](const std::string& key) {
    for (const char* p : {"engine.", "fault.", "run.", "stopping."}) {
      if (key.rfind(p, 0) == 0) return true;
    }
    return false;
  };
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  for (const std::string& name : admm::AlgorithmNames()) {
    obs::ObsContext obs;
    obs.tracing = false;
    opt.obs = &obs;
    admm::ClusterConfig engine_cluster = cluster;
    if (name == "admmlib") engine_cluster.fault = {};
    const RunResult res =
        admm::RunAlgorithm(name, engine_cluster, problem, opt);
    const auto& counters = res.metrics.counters();
    const auto& gauges = res.metrics.gauges();

    std::vector<std::string> keys;
    for (const auto& [key, value] : counters) {
      if (is_summary(key)) keys.push_back("counters." + key);
    }
    for (const auto& [key, value] : gauges) {
      if (is_summary(key)) keys.push_back("gauges." + key);
    }
    ASSERT_EQ(keys, want) << name;

    EXPECT_EQ(counters.at("engine.iterations"), res.iterations_run) << name;
    EXPECT_EQ(counters.at("engine.censored_sends"), res.censored_sends)
        << name;
    const admm::FaultStats& f = res.faults;
    EXPECT_EQ(counters.at("fault.worker_crashes"), f.worker_crashes) << name;
    EXPECT_EQ(counters.at("fault.recoveries"), f.recoveries) << name;
    EXPECT_EQ(counters.at("fault.leader_deaths"), f.leader_deaths) << name;
    EXPECT_EQ(counters.at("fault.leader_reelections"), f.leader_reelections)
        << name;
    EXPECT_EQ(counters.at("fault.dropped_messages"), f.dropped_messages)
        << name;
    EXPECT_EQ(counters.at("fault.retries"), f.retries) << name;
    EXPECT_EQ(counters.at("fault.delayed_messages"), f.delayed_messages)
        << name;
    EXPECT_EQ(counters.at("fault.down_worker_iterations"),
              f.down_worker_iterations)
        << name;
    EXPECT_TRUE(same_bits(gauges.at("run.makespan_s"), res.makespan)) << name;
    EXPECT_TRUE(same_bits(gauges.at("run.cal_time_s"), res.total_cal_time))
        << name;
    EXPECT_TRUE(same_bits(gauges.at("run.comm_time_s"), res.total_comm_time))
        << name;
    EXPECT_EQ(gauges.at("run.iterations"),
              static_cast<double>(res.iterations_run))
        << name;
    EXPECT_EQ(gauges.at("stopping.converged"), res.stopped_early ? 1.0 : 0.0)
        << name;
    EXPECT_EQ(gauges.at("stopping.iterations_to_tolerance"),
              res.stopped_early ? static_cast<double>(res.iterations_run)
                                : 0.0)
        << name;

    ASSERT_FALSE(res.trace.empty()) << name;
    const obs::TimeSeries* objective = obs.timeline.Find("ts.objective");
    const obs::TimeSeries* rho = obs.timeline.Find("ts.rho");
    const obs::TimeSeries* primal = obs.timeline.Find("ts.primal_residual");
    const obs::TimeSeries* dual = obs.timeline.Find("ts.dual_residual");
    ASSERT_NE(objective, nullptr) << name;
    ASSERT_NE(rho, nullptr) << name;
    for (const auto& rec : res.trace) {
      std::size_t row = 0;
      while (row < obs.timeline.rows() &&
             obs.timeline.IterationAt(row) != rec.iteration) {
        ++row;
      }
      ASSERT_LT(row, obs.timeline.rows()) << name << " " << rec.iteration;
      EXPECT_TRUE(same_bits(rec.objective, (*objective)[row]))
          << name << " " << rec.iteration;
      EXPECT_TRUE(same_bits(rec.rho, (*rho)[row]))
          << name << " " << rec.iteration;
      if (primal != nullptr) {
        EXPECT_TRUE(same_bits(rec.primal_residual, (*primal)[row]))
            << name << " " << rec.iteration;
      }
      if (dual != nullptr) {
        EXPECT_TRUE(same_bits(rec.dual_residual, (*dual)[row]))
            << name << " " << rec.iteration;
      }
    }
  }
}

}  // namespace
}  // namespace psra
