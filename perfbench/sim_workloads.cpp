// Simulator workloads and the end-to-end measurement: untraced solves of
// PsraHgAdmm::Run to the default Boyd stopping test over a panel of
// seed-derived datasets, plus the real-socket loop on the workload's own
// leader aggregates.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>

#include "admm/reference.hpp"
#include "bench.hpp"
#include "comm/intranode.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"
#include "simnet/topology.hpp"
#include "support/string_util.hpp"

namespace perfbench {
namespace {

admm::PsraConfig Cluster(std::uint32_t nodes, std::uint32_t wpn,
                         admm::GroupingMode grouping) {
  admm::PsraConfig cfg;
  cfg.cluster.num_nodes = nodes;
  cfg.cluster.workers_per_node = wpn;
  cfg.grouping = grouping;
  cfg.allreduce = comm::AllreduceKind::kPsr;
  cfg.sparse_comm = true;
  return cfg;
}

// Why each workload exists, and how panel sizes, iteration caps and error
// bounds were chosen: perfbench/README.md.
const SimWorkload kSimWorkloads[] = {
    {"news20_hier",
     [](std::uint64_t s) { return data::News20Profile(0.01, s); },
     Cluster(8, 4, admm::GroupingMode::kHierarchical),
     admm::LocalSolverOptions::Mode::kCg, false, 8, 1000, 0.01},
    {"url_tall_gram",
     [](std::uint64_t s) { return data::UrlTallProfile(0.01, s); },
     Cluster(4, 4, admm::GroupingMode::kDynamicGroups),
     admm::LocalSolverOptions::Mode::kAuto, true, 24, 1000, 0.02},
};

/// Sum of every comm.*.bytes counter, as bench_sweep computes bytes on wire.
double BytesOnWire(const obs::MetricsRegistry& m) {
  std::uint64_t total = 0;
  for (const auto& [name, v] : m.counters()) {
    if (StartsWith(name, "comm.") && name.ends_with(".bytes")) total += v;
  }
  return static_cast<double>(total);
}

bool SameSolve(const admm::RunResult& a, const admm::RunResult& b) {
  return a.iterations_run == b.iterations_run &&
         a.SystemTime() == b.SystemTime() && SameBits(a.final_z, b.final_z);
}

/// Host wall time of every engine iteration of an untraced solve, taken
/// through the engine's per-iteration progress hook (one virtual call and
/// one clock read per iteration; progress never feeds back into the run).
/// A sample runs from the previous iteration's report, or from Start() for
/// a solve's first iteration, to this iteration's report, and is appended
/// to the vector Start() named.
class IterationClock final : public admm::ProgressSink {
 public:
  void Start(std::vector<double>* out) {
    out_ = out;
    last_ = Clock::now();
  }
  void Report(const admm::ProgressUpdate&) override {
    const auto now = Clock::now();
    out_->push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
  }

 private:
  std::vector<double>* out_ = nullptr;
  Clock::time_point last_;
};

/// Windows of the wire loop per run, interleaved with the timed rounds.
constexpr int kWireWindows = 24;

}  // namespace

const SimWorkload* FindSimWorkload(const std::string& name) {
  for (const auto& w : kSimWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + (stream + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t PoolThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

admm::RunOptions SolveOptions(const SimWorkload& w, engine::ThreadPool* pool) {
  admm::RunOptions opt;
  opt.max_iterations = w.iteration_cap;
  // The short inexact x-solve of the repository's sweep harnesses.
  opt.tron.max_iterations = 10;
  opt.tron.max_cg_iterations = 10;
  opt.tron.gradient_tolerance = 1e-2;
  opt.local_solver.mode = w.solver;
  opt.pool = pool;
  opt.record_trace = false;
  opt.stopping.enabled = true;  // default eps_abs 1e-4, eps_rel 1e-3
  return opt;
}

double ReferenceObjective(const admm::ConsensusProblem& problem) {
  // 50 exact single-worker ADMM iterations: the minimum they find agrees
  // with 200 iterations to well inside every workload's error bound.
  admm::ReferenceOptions opt;
  opt.iterations = 50;
  opt.tron.max_iterations = 25;
  opt.tron.max_cg_iterations = 25;
  opt.tron.gradient_tolerance = 1e-2;
  return admm::ReferenceMinimum(problem.train, problem.lambda, opt);
}

std::vector<linalg::DenseVector> LeaderAggregates(
    const admm::ConsensusProblem& problem, const SimWorkload& w,
    const admm::RunCheckpoint& ckpt) {
  admm::RunOptions opt = SolveOptions(w, nullptr);
  opt.warm_start = &ckpt;
  admm::WorkerSet ws(&problem, &opt);
  admm::ApplyWarmStart(ws, opt);
  std::vector<double> flops(ws.size());
  ws.XWStepAll(flops);

  const auto& cluster = w.config.cluster;
  const simnet::Topology topo(cluster.num_nodes, cluster.workers_per_node);
  const simnet::CostModel cost{cluster.cost};
  std::vector<linalg::DenseVector> out;
  for (simnet::NodeId node = 0; node < cluster.num_nodes; ++node) {
    const auto ranks = topo.RanksOnNode(node);
    std::vector<linalg::DenseVector> inputs;
    for (const auto rank : ranks) inputs.push_back(ws.w(rank));
    const std::vector<simnet::VirtualTime> starts(ranks.size(), 0.0);
    const comm::GroupComm group(&topo, &cost, ranks);
    comm::ReduceResult reduced;
    comm::ReduceToLeader(group, 0, inputs, starts, reduced);
    out.push_back(std::move(reduced.value));
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? std::nan("")
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

Result RunEndToEnd(const SimWorkload& w, const Args& args) {
  Result r;
  const auto panel_size = static_cast<std::size_t>(w.panel);
  const std::uint64_t workers = w.config.cluster.world_size();

  // Set-up, once per panel dataset: problem construction plus engine
  // construction (host pool and engine object).
  std::vector<admm::ConsensusProblem> panel;
  std::vector<double> setup;
  std::unique_ptr<engine::ThreadPool> pool;
  for (std::size_t i = 0; i < panel_size; ++i) {
    const auto spec = w.profile(DeriveSeed(args.seed, i));
    const auto t0 = Clock::now();
    panel.push_back(admm::BuildProblem(spec, workers));
    auto fresh = std::make_unique<engine::ThreadPool>(PoolThreads());
    const admm::PsraHgAdmm engine(w.config);
    setup.push_back(SecondsSince(t0));
    pool = std::move(fresh);
  }
  const admm::PsraHgAdmm alg(w.config);

  // Correctness references, outside set-up and timing.
  std::vector<double> f_ref(panel_size);
  pool->ParallelFor(panel_size, [&](std::size_t i) {
    f_ref[i] = ReferenceObjective(panel[i]);
  });
  std::vector<char> on_gram(panel_size, 1);
  if (w.expect_gram) {
    const auto lopt = SolveOptions(w, nullptr).local_solver;
    for (std::size_t i = 0; i < panel_size; ++i) {
      for (const auto& shard : panel[i].shards) {
        if (!admm::UseGramSolver(lopt, shard.num_samples(),
                                 shard.num_features())) {
          on_gram[i] = 0;
        }
      }
    }
  }
  double worst_rel_error = 0.0;
  auto check_solve = [&](std::size_t i, const admm::RunResult& res,
                         const admm::RunResult* expect, const char* what) {
    const double rel = std::abs(f_ref[i] - res.final_objective) / f_ref[i];
    worst_rel_error = std::max(worst_rel_error, rel);
    std::string why;
    if (!res.stopped_early) why += " missed tolerance within the cap;";
    if (!(rel <= w.rel_error_bound)) {
      why += " relative error " + std::to_string(rel) + " above bound;";
    }
    if (on_gram[i] == 0) why += " a shard is not on the Gram path;";
    if (expect != nullptr && !SameSolve(res, *expect)) {
      why += " differs from the metered solve;";
    }
    r.Check(why.empty(), std::string(what) + " dataset " + std::to_string(i) +
                             ":" + why);
  };

  // Metered pass: every dataset solved serially with a metrics-only
  // ObsContext, datasets spread over the pool. It gives the deterministic
  // counters, the iteration-20 state of dataset 0 (the wire payloads), and
  // the result every pooled, untraced solve below must reproduce bitwise,
  // which checks pool independence and observability neutrality at once.
  std::vector<admm::RunResult> metered(panel_size);
  std::vector<double> bytes(panel_size), iters(panel_size), system(panel_size);
  admm::RunCheckpoint mid;
  pool->ParallelFor(panel_size, [&](std::size_t i) {
    obs::ObsContext obs;
    obs.tracing = false;
    admm::RunOptions opt = SolveOptions(w, nullptr);
    opt.obs = &obs;
    if (i == 0) {
      opt.checkpoint_out = &mid;
      opt.checkpoint_at = kMidIteration;
    }
    metered[i] = alg.Run(panel[i], opt);
    bytes[i] = BytesOnWire(obs.metrics);
  });
  for (std::size_t i = 0; i < panel_size; ++i) {
    check_solve(i, metered[i], nullptr, "metered solve");
    iters[i] = static_cast<double>(metered[i].iterations_run);
    system[i] = metered[i].SystemTime();
  }
  IterationClock iteration_clock;
  admm::RunOptions opt = SolveOptions(w, pool.get());
  check_solve(0, alg.Run(panel[0], opt), &metered[0], "warm-up solve");
  opt.progress = &iteration_clock;

  // Measurement: timed rounds (every panel dataset solved once, untraced)
  // interleaved with windows of the real-socket loop on dataset 0's leader
  // aggregates, so both sample the whole run rather than one stretch of it.
  // The windows take 20% of the budget.
  const WirePayload payload =
      MakeWirePayload(LeaderAggregates(panel[0], w, mid));
  const double window_s = std::max(0.1, 0.2 * args.seconds / kWireWindows);
  std::vector<double> sparse_us, dense_us, window_p90, rendezvous;
  std::vector<std::vector<double>> solve_s(panel_size), iteration_s(panel_size);
  for (auto& v : iteration_s) v.reserve(1u << 14);
  std::size_t rounds = 0;
  const auto start = Clock::now();
  auto rounds_due = [&] {
    return rounds < 2 || SecondsSince(start) < args.seconds;
  };
  for (int window = 0; window < kWireWindows || rounds_due(); ++window) {
    if (window < kWireWindows) {
      WireLoopResult wire = RunWireLoop(payload, window_s);
      r.attempted += wire.attempted;
      r.failed += wire.failed;
      for (auto& why : wire.failures) r.failures.push_back(std::move(why));
      std::vector<double> all = wire.sparse_us;
      all.insert(all.end(), wire.dense_us.begin(), wire.dense_us.end());
      window_p90.push_back(Quantile(all, 0.90));
      sparse_us.insert(sparse_us.end(), wire.sparse_us.begin(),
                       wire.sparse_us.end());
      dense_us.insert(dense_us.end(), wire.dense_us.begin(),
                      wire.dense_us.end());
      rendezvous.push_back(wire.rendezvous_s);
    }
    if (!rounds_due()) continue;
    for (std::size_t i = 0; i < panel_size; ++i) {
      const auto t0 = Clock::now();
      iteration_clock.Start(&iteration_s[i]);
      const admm::RunResult res = alg.Run(panel[i], opt);
      solve_s[i].push_back(SecondsSince(t0));
      check_solve(i, res, &metered[i], "timed solve");
    }
    ++rounds;
  }

  // Timings are medians over the whole run: host speed drifts for seconds
  // at a time, and a median over many short samples lets such a stretch
  // move a minority of the samples rather than the figure. Iteration cost
  // differs between datasets, and later iterations of a long solve are
  // cheaper, so every dataset weighs the same in iters_per_s whatever its
  // iteration count; that keeps the figure from following how many
  // iterations the seed's datasets happen to need.
  std::vector<double> solve_median(panel_size), iteration_median(panel_size);
  std::size_t iteration_samples = 0;
  for (std::size_t i = 0; i < panel_size; ++i) {
    solve_median[i] = Median(solve_s[i]);
    iteration_median[i] = Median(iteration_s[i]);
    iteration_samples += iteration_s[i].size();
  }
  r.Set("tts_s", Mean(solve_median), "s");
  r.Set("iters_per_s", 1.0 / Mean(iteration_median), "1/s");
  r.Set("iters_to_tol", Mean(iters), "count");
  r.Set("sim_system_s", Mean(system), "s");
  r.Set("sim_bytes", Mean(bytes), "bytes");
  r.Set("setup_s", Median(setup), "s");
  r.Set("peak_rss_mb", PeakRssMb(), "MB");
  r.Set("wire_sparse_p50_us", Median(sparse_us), "us");
  r.Set("wire_dense_p50_us", Median(dense_us), "us");
  // Per-window p90, then the median window: one burst of host noise moves
  // one window, not the metric. The tail is read at p90 rather than p99
  // because on a shared host a window's p99 is set by a handful of
  // descheduled collectives and varied by a third from run to run.
  r.Set("wire_p90_us", Median(window_p90), "us");

  r.notes["panel"] = std::to_string(panel_size);
  r.notes["rounds"] = std::to_string(rounds);
  r.notes["iteration_samples"] = std::to_string(iteration_samples);
  r.notes["iteration_median_min_max_us"] =
      std::to_string(*std::min_element(iteration_median.begin(),
                                       iteration_median.end()) * 1e6) + " " +
      std::to_string(*std::max_element(iteration_median.begin(),
                                       iteration_median.end()) * 1e6);
  r.notes["iters_min_max"] =
      std::to_string(*std::min_element(iters.begin(), iters.end())) + " " +
      std::to_string(*std::max_element(iters.begin(), iters.end()));
  r.notes["worst_rel_error"] = std::to_string(worst_rel_error);
  r.notes["wire_samples"] = std::to_string(sparse_us.size() + dense_us.size());
  r.notes["wire_rendezvous_s"] = std::to_string(Median(rendezvous));
  std::string p90s;
  for (const double v : window_p90) p90s += std::to_string(v) + " ";
  r.notes["wire_window_p90_us"] = p90s;
  r.notes["wire_dim"] = std::to_string(payload.dense_sum.size());
  r.notes["wire_sparse_nnz"] = std::to_string(payload.sparse_sum.nnz());
  return r;
}

}  // namespace perfbench
