// The traced pass: times calls into each layer's public API on the
// workload's own inputs (panel dataset 0), every call wrapped in one of the
// benchmark's spans. Per-layer metrics are read back from those spans; the
// spans are written as a Chrome trace and re-loaded with obs::LoadChromeTrace.
//
// Order: set-up replay (data), whole solves with and without observability
// (obs), the mid-run layer replay (admm, solver, linalg, comm, wlg, engine),
// the allocation probe, then the real-socket replay (transport, wire).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>

#include "admm/checkpoint.hpp"
#include "bench.hpp"
#include "comm/collective.hpp"
#include "comm/intranode.hpp"
#include "engine/alloc_counter.hpp"
#include "engine/thread_pool.hpp"
#include "linalg/gram.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "simnet/topology.hpp"
#include "solver/logistic.hpp"
#include "solver/tron.hpp"
#include "support/rng.hpp"
#include "wlg/group_generator.hpp"

namespace perfbench {

// ---- SpanRecorder -----------------------------------------------------------

SpanRecorder::Scope::Scope(SpanRecorder& r, const char* name)
    : r_(r), index_(static_cast<int>(r.spans_.size())) {
  const int parent = r.open_.empty() ? -1 : r.open_.back();
  r.spans_.push_back({name, NowSeconds(), 0.0, parent});
  r.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() { Close(); }

void SpanRecorder::Scope::Close() {
  if (!open_) return;
  open_ = false;
  r_.spans_[index_].end = NowSeconds();
  r_.open_.pop_back();
}

double SpanRecorder::Scope::seconds() const {
  const auto& s = r_.spans_[index_];
  return (open_ ? NowSeconds() : s.end) - s.begin;
}

void SpanRecorder::AddClosed(const char* name, double begin, double end) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, begin, end, parent});
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(s.end - s.begin);
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].begin;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].begin;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

void SpanRecorder::WriteChromeTrace(std::ostream& os) const {
  obs::SpanTracer tracer;
  const obs::TrackId track = tracer.AddTrack("perfbench");
  const double t0 = spans_.empty() ? 0.0 : spans_.front().begin;
  for (const auto& s : spans_) {
    tracer.Add(track, s.name, s.begin - t0, s.end - t0, 0, s.end - s.begin);
  }
  tracer.WriteChromeJson(os);
}

namespace {

using Scope = SpanRecorder::Scope;

/// Copy of `a` with its occupied columns renumbered 0..k-1 in order. The
/// packed Gram of a wide shard (news20: 13551 columns) does not fit in
/// memory; over the compact columns the accumulation does exactly the same
/// sum over rows of nnz(row)^2 products.
linalg::CsrMatrix CompactColumns(const linalg::CsrMatrix& a) {
  const auto counts = a.ColumnNnz();
  std::vector<linalg::CsrMatrix::Index> remap(a.cols());
  linalg::CsrMatrix::Index k = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) remap[c] = k++;
  }
  linalg::CsrMatrix::Builder b(k);
  std::vector<linalg::CsrMatrix::Index> cols;
  for (linalg::CsrMatrix::Index r = 0; r < a.rows(); ++r) {
    cols.clear();
    for (const auto c : a.RowIndices(r)) cols.push_back(remap[c]);
    b.AddRow(cols, a.RowValues(r));
  }
  return b.Build();
}

/// Size of the inter-node collective the workload's engine runs: all
/// leaders for hierarchical grouping, one Group Generator batch otherwise.
std::uint32_t CollectiveGroupSize(const SimWorkload& w) {
  const auto& cfg = w.config;
  if (cfg.grouping != admm::GroupingMode::kDynamicGroups) {
    return cfg.cluster.num_nodes;
  }
  return cfg.group_threshold != 0 ? cfg.group_threshold
                                  : std::max(1u, cfg.cluster.num_nodes / 2);
}

constexpr const char* kPhases[] = {"x_update", "intra_reduce", "w_allreduce",
                                   "z_y_update"};

/// Leaders reporting to one Group Generator in the wlg replay, as in a
/// 256-node cluster, grouped in batches of half of them (the default
/// threshold).
constexpr std::uint32_t kGgLeaders = 256;

}  // namespace

Result RunTracedPass(const SimWorkload& w, const Args& args) {
  Result r;
  SpanRecorder spans;
  const auto start = Clock::now();
  const std::uint64_t workers = w.config.cluster.world_size();
  engine::ThreadPool pool(PoolThreads());
  const auto spec = w.profile(DeriveSeed(args.seed, 0));
  admm::ConsensusProblem problem;
  Scope root(spans, "perfbench.traced_pass");

  // ---- data: problem construction ------------------------------------------
  for (int i = 0; i < 3; ++i) {
    Scope s(spans, "data.build_problem");
    problem = admm::BuildProblem(spec, workers);
  }
  r.Set("data.build_s", Median(spans.Durations("data.build_problem")), "s");

  // ---- obs: whole solves untraced, traced and metrics-only ----------------
  const admm::PsraHgAdmm alg(w.config);
  std::string traced_json;
  admm::RunResult first;
  {
    Scope s(spans, "obs.overhead_solves");
    const char* kModes[] = {"admm.solve_untraced", "admm.solve_traced",
                            "admm.solve_metrics"};
    for (int rep = 0; rep < 2 || SecondsSince(start) < 0.4 * args.seconds;
         ++rep) {
      for (int mode = 0; mode < 3; ++mode) {
        obs::ObsContext obs;
        obs.tracing = mode == 1;
        admm::RunOptions opt = SolveOptions(w, &pool);
        if (mode > 0) opt.obs = &obs;
        admm::RunResult res;
        {
          Scope call(spans, kModes[mode]);
          res = alg.Run(problem, opt);
        }
        if (rep == 0 && mode == 0) first = res;
        r.Check(res.stopped_early && res.iterations_run == first.iterations_run &&
                    SameBits(res.final_z, first.final_z),
                std::string(kModes[mode]) + ": differs from the untraced solve");
        if (mode == 1 && rep == 0) {
          std::ostringstream os;
          obs.tracer.WriteChromeJson(os);
          traced_json = os.str();
        }
      }
    }
  }
  const double untraced = Median(spans.Durations("admm.solve_untraced"));
  r.Set("obs.trace_overhead",
        Median(spans.Durations("admm.solve_traced")) / untraced, "ratio");
  r.Set("obs.metrics_overhead",
        Median(spans.Durations("admm.solve_metrics")) / untraced, "ratio");
  {
    Scope s(spans, "obs.analyze_trace");
    const obs::TraceReport report =
        obs::AnalyzeTrace(obs::LoadChromeTrace(traced_json));
    for (const char* phase : kPhases) {
      double wall = 0.0;
      for (const auto& p : report.phases) {
        if (p.name == phase) wall = p.wall_s;
      }
      r.Set(std::string("obs.phase_share.") + phase,
            report.total_wall_s > 0 ? wall / report.total_wall_s : 0.0,
            "ratio");
    }
  }

  // ---- Mid-run state every layer replay starts from -------------------------
  admm::RunCheckpoint mid;
  {
    Scope s(spans, "admm.run_to_mid");
    admm::RunOptions opt = SolveOptions(w, &pool);
    opt.max_iterations = kMidIteration;
    opt.checkpoint_out = &mid;
    opt.checkpoint_at = kMidIteration;
    (void)alg.Run(problem, opt);
  }
  admm::RunOptions warm = SolveOptions(w, &pool);
  warm.warm_start = &mid;
  admm::WorkerSet ws(&problem, &warm);
  const std::size_t dim = problem.dim();

  // Replay inputs, prepared outside the timed spans.
  const auto& cluster = w.config.cluster;
  const simnet::Topology topo(cluster.num_nodes, cluster.workers_per_node,
                              cluster.num_racks);
  const simnet::CostModel cost{cluster.cost};
  const auto aggregates = LeaderAggregates(problem, w, mid);
  const std::uint32_t group_size = CollectiveGroupSize(w);
  std::vector<simnet::Rank> leaders;
  std::vector<linalg::SparseVector> sparse_aggs;
  std::vector<linalg::DenseVector> dense_aggs;
  for (std::uint32_t n = 0; n < group_size; ++n) {
    leaders.push_back(topo.RankOf(n, 0));
    sparse_aggs.push_back(linalg::SparseVector::FromDense(aggregates[n]));
    dense_aggs.push_back(aggregates[n]);
  }
  const comm::GroupComm leader_group(&topo, &cost, leaders);
  const std::vector<simnet::VirtualTime> zero_starts(group_size, 0.0);
  const auto allreduce = comm::MakeAllreduce(w.config.allreduce);
  comm::AllreduceScratch scratch;

  std::vector<linalg::CsrMatrix> gram_shards;
  const std::uint64_t max_gram_dim = admm::LocalSolverOptions{}.max_gram_dim;
  for (const auto& shard : problem.shards) {
    gram_shards.push_back(shard.num_features() <= max_gram_dim
                              ? shard.features()
                              : CompactColumns(shard.features()));
  }
  std::size_t total_nnz = 0;
  for (const auto& shard : problem.shards) total_nnz += shard.nnz();

  std::vector<solver::ProximalLogistic> locals;
  std::vector<solver::TronWorkspace> tron_ws(problem.shards.size());
  for (std::size_t i = 0; i < problem.shards.size(); ++i) {
    locals.emplace_back(&problem.shards[i], mid.rho);
    locals.back().SetUseGramHessian(admm::UseGramSolver(
        warm.local_solver, problem.shards[i].num_samples(),
        problem.shards[i].num_features()));
    locals.back().SetIterationTerms(mid.workers[i].y, mid.workers[i].z);
  }

  psra::Rng rng(DeriveSeed(args.seed, 1000));
  std::vector<simnet::VirtualTime> report_times(kGgLeaders);
  for (auto& t : report_times) t = rng.NextDouble(0.0, 1e-3);
  wlg::GroupGenerator gg(kGgLeaders / 2, kGgLeaders);
  wlg::GroupWorkspace gws;

  // Per-node inputs of the intra-node replay: the iteration-20 w after one
  // x-update (identical every rep, since each rep restarts from `mid`).
  admm::ApplyWarmStart(ws, warm);
  std::vector<double> flops(workers);
  ws.XWStepAll(flops);
  std::vector<comm::GroupComm> node_groups;
  std::vector<std::vector<linalg::DenseVector>> node_w;
  for (simnet::NodeId node = 0; node < cluster.num_nodes; ++node) {
    const auto ranks = topo.RanksOnNode(node);
    node_groups.emplace_back(&topo, &cost, ranks);
    node_w.emplace_back();
    for (const auto rk : ranks) node_w.back().push_back(ws.w(rk));
  }
  const std::vector<simnet::VirtualTime> node_starts(cluster.workers_per_node,
                                                     0.0);

  std::vector<simnet::Rank> everyone(workers);
  std::iota(everyone.begin(), everyone.end(), 0u);
  std::size_t max_rows = 0;
  for (const auto& shard : problem.shards) {
    max_rows = std::max<std::size_t>(max_rows, shard.num_samples());
  }
  linalg::DenseVector W(dim), z_prev(dim), z_mean(dim), tmp(max_rows),
      out(dim);
  const std::vector<double> row_weights(max_rows, 0.25);
  linalg::SymmetricGram gram;
  std::vector<std::vector<double>> tron_us(problem.shards.size());
  std::vector<int> cg_steps(problem.shards.size(), -1);
  std::vector<double> z_fingerprint;
  std::vector<double> fork_join_us, cycle_us, intra_us;
  comm::ReduceResult reduced;
  comm::BroadcastResult bcast;

  // ---- Layer replay at the mid-run state, repeated -------------------------
  for (int rep = 0; rep < 3 || SecondsSince(start) < 0.85 * args.seconds;
       ++rep) {
    admm::ApplyWarmStart(ws, warm);
    {
      Scope s(spans, "admm.x_update");
      ws.XWStepAll(flops);
    }
    std::fill(W.begin(), W.end(), 0.0);
    for (std::size_t i = 0; i < workers; ++i) {
      for (std::size_t j = 0; j < dim; ++j) W[j] += ws.w(i)[j];
    }
    ws.MeanZInto(z_prev);
    {
      Scope s(spans, "admm.zy_update");
      ws.ZYStepAll(everyone, W, workers, flops);
    }
    admm::WorkerSet::Residuals res;
    {
      Scope s(spans, "admm.residuals");
      res = ws.ComputeResiduals(z_prev);
      ws.MeanZInto(z_mean);
    }
    // The replayed iteration is deterministic: every rep must land on the
    // same consensus model and residuals.
    if (rep == 0) {
      z_fingerprint.assign(z_mean.begin(), z_mean.end());
      z_fingerprint.push_back(res.primal);
      z_fingerprint.push_back(res.dual);
    } else {
      std::vector<double> now(z_mean.begin(), z_mean.end());
      now.push_back(res.primal);
      now.push_back(res.dual);
      r.Check(SameBits(now, z_fingerprint),
              "replayed admm iteration is not reproducible");
    }

    {
      Scope s(spans, "linalg.csr_kernels");
      // `out` accumulates across shards and reps; only the time matters.
      for (std::size_t i = 0; i < problem.shards.size(); ++i) {
        const auto& a = problem.shards[i].features();
        const std::span<double> rows(tmp.data(), a.rows());
        a.Multiply(mid.workers[i].x, rows);
        a.TransposeMultiplyAdd(rows, out);
      }
    }
    {
      Scope s(spans, "linalg.gram_build");
      for (const auto& a : gram_shards) {
        gram.Reset(a.cols());
        a.GramProduct(std::span(row_weights.data(), a.rows()), gram);
      }
    }
    for (std::size_t i = 0; i < locals.size(); ++i) {
      linalg::DenseVector x = mid.workers[i].x;
      solver::FlopCounter fc;
      solver::TronResult tr;
      {
        Scope s(spans, "solver.tron");
        tr = solver::TronMinimize(locals[i], x, warm.tron, &fc, tron_ws[i]);
        tron_us[i].push_back(s.seconds() * 1e6);
      }
      if (cg_steps[i] < 0) cg_steps[i] = tr.cg_iterations;
      r.Check(cg_steps[i] == tr.cg_iterations,
              "replayed TRON solve is not reproducible");
    }

    comm::CommStats stats;
    linalg::SparseVector sparse_sum;
    linalg::DenseVector dense_sum;
    {
      Scope s(spans, "comm.reduce_sparse");
      allreduce->ReduceSparse(leader_group, sparse_aggs, zero_starts, scratch,
                              sparse_sum, stats);
    }
    allreduce->ReduceDense(leader_group, dense_aggs, zero_starts, scratch,
                           dense_sum, stats);
    r.Check(SameBits(sparse_sum.ToDense(), dense_sum),
            "sparse and dense allreduce sums differ");
    if (rep == 0) {
      comm::CommStats sparse_stats;
      allreduce->ReduceSparse(leader_group, sparse_aggs, zero_starts, scratch,
                              sparse_sum, sparse_stats);
      r.Set("comm.bytes_per_allreduce",
            static_cast<double>(sparse_stats.bytes_sent), "bytes");
      r.Set("comm.sparse_fill",
            static_cast<double>(sparse_sum.nnz()) / static_cast<double>(dim),
            "ratio");
    }

    {
      Scope s(spans, "comm.intra_node");
      for (std::size_t node = 0; node < node_groups.size(); ++node) {
        comm::ReduceToLeader(node_groups[node], 0, node_w[node], node_starts,
                             reduced);
        comm::BroadcastFromLeader(node_groups[node], 0, dim,
                                  reduced.leader_ready, bcast);
      }
      intra_us.push_back(s.seconds() * 1e6 / cluster.num_nodes);
    }

    for (int k = 0; k < 20; ++k) {
      {
        Scope s(spans, "wlg.grouping_cycle");
        wlg::RunGroupingCycle(gg, report_times, gws);
        cycle_us.push_back(s.seconds() * 1e6);
      }
      std::size_t grouped = 0;
      for (std::size_t g = 0; g < gws.groups.size(); ++g) {
        grouped += gws.groups.group(g).size;
      }
      r.Check(grouped == kGgLeaders, "grouping cycle lost or duplicated leaders");
    }
    for (int k = 0; k < 20; ++k) {
      Scope s(spans, "engine.parallel_for");
      pool.ParallelFor(workers, [](std::size_t) {});
      fork_join_us.push_back(s.seconds() * 1e6);
    }
  }

  r.Set("admm.x_update_ms", Median(spans.Durations("admm.x_update")) * 1e3,
        "ms");
  r.Set("admm.zy_update_ms", Median(spans.Durations("admm.zy_update")) * 1e3,
        "ms");
  r.Set("admm.residuals_ms", Median(spans.Durations("admm.residuals")) * 1e3,
        "ms");
  r.Set("linalg.csr_ns_per_nnz",
        Median(spans.Durations("linalg.csr_kernels")) * 1e9 /
            (2.0 * static_cast<double>(total_nnz)),
        "ns");
  r.Set("linalg.gram_build_us",
        Median(spans.Durations("linalg.gram_build")) * 1e6 /
            static_cast<double>(gram_shards.size()),
        "us");
  std::vector<double> per_shard;
  for (auto& v : tron_us) per_shard.push_back(Median(v));
  const double tron_mean = Mean(per_shard);
  r.Set("solver.tron_us", tron_mean, "us");
  r.Set("solver.tron_skew",
        *std::max_element(per_shard.begin(), per_shard.end()) / tron_mean,
        "ratio");
  r.Set("solver.cg_steps",
        static_cast<double>(std::accumulate(cg_steps.begin(), cg_steps.end(), 0)),
        "count");
  r.Set("comm.allreduce_us", Median(spans.Durations("comm.reduce_sparse")) * 1e6,
        "us");
  r.Set("comm.intra_us", Median(intra_us), "us");
  r.Set("wlg.cycle_us", Median(cycle_us), "us");
  r.Set("engine.fork_join_us", Median(fork_join_us), "us");

  // ---- admm: heap allocations per iteration (delta method) -----------------
  {
    Scope s(spans, "admm.alloc_probe");
    auto allocs = [&](std::uint64_t iterations) {
      admm::RunOptions opt = SolveOptions(w, &pool);
      opt.stopping.enabled = false;
      opt.max_iterations = iterations;
      const std::uint64_t a0 = engine::AllocCount();
      (void)alg.Run(problem, opt);
      return static_cast<double>(engine::AllocCount() - a0);
    };
    // Growth of sparse buffers settles within the first iterations; the
    // window between iterations 20 and 40 is steady state.
    (void)allocs(kMidIteration);
    const double per_iter =
        (allocs(2 * kMidIteration) - allocs(kMidIteration)) /
        static_cast<double>(kMidIteration);
    r.Set("admm.allocs_per_iter", per_iter, "count");
  }

  // ---- transport + wire: 3 TCP ranks on this workload's aggregates ---------
  {
    Scope s(spans, "transport.wire_replay");
    const WireReplayResult wr = RunWireReplay(MakeWirePayload(aggregates));
    for (const auto& c : wr.calls) spans.AddClosed(c.name, c.begin, c.end);
    r.attempted += wr.attempted;
    r.failed += wr.failed;
    for (const auto& why : wr.failures) r.failures.push_back(why);
    r.Set("transport.rtt_us", Median(wr.rtt_us), "us");
    r.Set("transport.fence_us", Median(wr.fence_us), "us");
    r.Set("wire.scatter_reduce_us", wr.scatter_reduce_us, "us");
    r.Set("wire.allgather_us", wr.allgather_us, "us");
  }
  root.Close();

  // ---- Trace artifact: write, re-load, summarize self time -----------------
  {
    std::ofstream os(args.trace_out);
    spans.WriteChromeTrace(os);
  }
  std::ifstream in(args.trace_out);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::size_t loaded = 0;
  try {
    const obs::TraceData trace = obs::LoadChromeTrace(text);
    for (const auto& t : trace.tracks) loaded += t.spans.size();
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("trace does not load: ") + e.what());
  }
  r.Check(loaded == spans.spans().size(),
          "trace re-load lost spans: " + std::to_string(loaded) + " of " +
              std::to_string(spans.spans().size()));
  r.notes["trace"] = args.trace_out;
  r.notes["trace_spans"] = std::to_string(loaded);
  for (const auto& [name, self] : spans.SelfSeconds()) {
    r.notes["self_s." + name] = std::to_string(self);
  }
  return r;
}

}  // namespace perfbench
