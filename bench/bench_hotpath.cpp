// Hot-path benchmark: host-side iterations/sec and steady-state heap
// allocations per iteration for the PSRA-HGADMM engine.
//
// Allocations are measured with the counting allocator from
// src/engine/alloc_counter.hpp (this is the only binary that links
// psra_alloc_counter). Per-iteration cost is isolated by the delta method:
// run the same configuration at two iteration counts K1 < K2 and report
//   (allocs(K2) - allocs(K1)) / (K2 - K1),
// which cancels problem construction, warm-up and teardown allocations
// exactly. The flat-grouping dense path is expected to report 0.
//
// Results are emitted as BENCH_hotpath.json in the current directory (and
// echoed to stdout). `--quick` shrinks the iteration counts for CI-style
// smoke runs; the headline numbers in the JSON come from the default counts.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "admm/psra_hgadmm.hpp"
#include "bench_util.hpp"
#include "engine/alloc_counter.hpp"
#include "engine/thread_pool.hpp"
#include "support/cli.hpp"

namespace {

using namespace psra;

// Wall-clock iterations/sec recorded before this optimization pass, on the
// same configuration (news20 @ 0.01, 8 nodes x 4 workers, flat grouping,
// dense transport, serial host loop). Kept in the JSON so the speedup is
// auditable.
constexpr double kBaselineItersPerSec = 44.5;

struct Measurement {
  double iters_per_sec = 0.0;
  double allocs_per_iter = 0.0;
  std::uint64_t iterations = 0;
};

admm::PsraConfig MakeConfig(admm::GroupingMode grouping) {
  admm::PsraConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.workers_per_node = 4;
  cfg.grouping = grouping;
  // Dense transport: the sparse path trades host time for simulated bytes
  // and is benchmarked separately by the figure harnesses.
  cfg.sparse_comm = false;
  return cfg;
}

std::uint64_t RunOnce(const admm::ConsensusProblem& problem,
                      const admm::PsraConfig& cfg, engine::ThreadPool* pool,
                      std::uint64_t iterations) {
  admm::RunOptions opt;
  opt.max_iterations = iterations;
  opt.tron = bench::BenchTron();
  opt.eval_every = iterations;  // metrics only at the end
  opt.pool = pool;
  const admm::PsraHgAdmm alg(cfg);
  const auto res = alg.Run(problem, opt);
  return res.iterations_run;
}

/// Steady-state allocations per iteration by the delta method; the run
/// before the counted ones populates every lazily grown workspace.
double AllocsPerIter(const admm::ConsensusProblem& problem,
                     const admm::PsraConfig& cfg, engine::ThreadPool* pool,
                     std::uint64_t k1, std::uint64_t k2) {
  (void)RunOnce(problem, cfg, pool, k1);
  const std::uint64_t a0 = engine::AllocCount();
  (void)RunOnce(problem, cfg, pool, k1);
  const std::uint64_t a1 = engine::AllocCount();
  (void)RunOnce(problem, cfg, pool, k2);
  const std::uint64_t a2 = engine::AllocCount();
  return static_cast<double>((a2 - a1) - (a1 - a0)) /
         static_cast<double>(k2 - k1);
}

void EmitJson(std::ostream& os, const std::string& grouping,
              const std::string& host, const Measurement& m, bool last) {
  os << "    {\"grouping\": \"" << grouping << "\", \"host\": \"" << host
     << "\", \"iterations\": " << m.iterations
     << ", \"iters_per_sec\": " << m.iters_per_sec
     << ", \"allocs_per_iter\": " << m.allocs_per_iter << "}"
     << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "news20";
  double scale = 0.0;
  std::int64_t threads = 8;
  bool quick = false;
  CliParser cli("bench_hotpath",
                "hot-path iterations/sec and steady-state allocations/iter");
  cli.AddString("dataset", &dataset, "dataset profile (default news20)");
  cli.AddDouble("scale", &scale, "profile scale (0 = per-dataset default)");
  cli.AddInt("threads", &threads, "pool size for the pooled runs");
  cli.AddBool("quick", &quick, "shrink iteration counts for a smoke run");
  std::string log_level = "warn";
  AddLogLevelFlag(cli, &log_level);
  if (!cli.Parse(argc, argv)) return 0;
  ApplyLogLevelFlag(log_level);

  // Best of several reps: a single quick rep (15 iterations) is too short
  // for the dynamic/flat gap gate in scripts/check.sh to read reliably, and
  // best-of-3 quick rows still read 0.80-0.89 on working code, so quick runs
  // take best-of-15 (about a second in all).
  const std::uint64_t k1 = quick ? 5 : 30;
  const std::uint64_t k2 = quick ? 15 : 100;
  const int reps = quick ? 15 : 3;

  const auto problem = bench::MakeProblem(
      dataset, scale, MakeConfig(admm::GroupingMode::kFlat).cluster.world_size());
  std::cout << "bench_hotpath: " << dataset << " dim=" << problem.dim()
            << " workers=" << problem.num_workers() << " K1=" << k1
            << " K2=" << k2 << "\n";

  engine::ThreadPool pool(static_cast<std::size_t>(threads));

  struct Row {
    std::string grouping;
    std::string host;
    admm::PsraConfig cfg;
    engine::ThreadPool* pool = nullptr;
    Measurement m;
  };
  std::vector<Row> rows;
  for (const auto grouping :
       {admm::GroupingMode::kFlat, admm::GroupingMode::kDynamicGroups}) {
    const std::string gname =
        grouping == admm::GroupingMode::kFlat ? "flat" : "dynamic";
    const auto cfg = MakeConfig(grouping);
    rows.push_back({gname, "serial", cfg, nullptr, {}});
    rows.push_back({gname, "pool" + std::to_string(threads), cfg, &pool, {}});
  }
  for (Row& row : rows) {
    row.m.allocs_per_iter = AllocsPerIter(problem, row.cfg, row.pool, k1, k2);
  }
  // Best-of-`reps` wall time per row: the minimum is the standard estimator
  // least affected by scheduler/co-tenant interference. Reps interleave
  // across rows, so a noisy stretch of the host lands on every row (and on
  // both sides of the dynamic/flat gap) instead of on one row's reps, and
  // the row order reverses every rep, so neither side always runs first.
  std::vector<double> best_secs(rows.size(), 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const std::size_t r = rep % 2 == 0 ? k : rows.size() - 1 - k;
      const auto t0 = std::chrono::steady_clock::now();
      rows[r].m.iterations = RunOnce(problem, rows[r].cfg, rows[r].pool, k2);
      const auto t1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0 || secs < best_secs[r]) best_secs[r] = secs;
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].m.iters_per_sec =
        best_secs[r] > 0
            ? static_cast<double>(rows[r].m.iterations) / best_secs[r]
            : 0.0;
  }

  for (const auto& row : rows) {
    std::cout << "  " << row.grouping << " / " << row.host << ": "
              << row.m.iters_per_sec << " iters/sec, "
              << row.m.allocs_per_iter << " allocs/iter\n";
  }
  const double speedup = rows.front().m.iters_per_sec / kBaselineItersPerSec;
  std::cout << "  flat/serial speedup vs pre-change baseline ("
            << kBaselineItersPerSec << "): " << speedup << "x\n";

  // Dynamic-grouping gap summaries (rows are flat/serial, flat/pool,
  // dynamic/serial, dynamic/pool). CI gates on these ratios, so they are
  // computed once here rather than re-derived from the rows downstream.
  auto rate = [&rows](const std::string& g, const std::string& h) {
    for (const auto& row : rows) {
      if (row.grouping == g && row.host == h) return row.m.iters_per_sec;
    }
    return 0.0;
  };
  const std::string pool_name = "pool" + std::to_string(threads);
  const double flat_pool = rate("flat", pool_name);
  const double dyn_serial = rate("dynamic", "serial");
  const double dyn_pool = rate("dynamic", pool_name);
  const double dyn_over_flat = flat_pool > 0 ? dyn_pool / flat_pool : 0.0;
  const double dyn_pool_over_serial =
      dyn_serial > 0 ? dyn_pool / dyn_serial : 0.0;
  std::cout << "  dynamic/" << pool_name << " vs flat/" << pool_name << ": "
            << dyn_over_flat << "x; vs dynamic/serial: " << dyn_pool_over_serial
            << "x\n";

  std::ofstream json("BENCH_hotpath.json");
  json << "{\n  \"benchmark\": \"hotpath\",\n  \"dataset\": \"" << dataset
       << "\",\n  \"config\": {\"nodes\": 8, \"workers_per_node\": 4, "
          "\"sparse_comm\": false, \"k1\": "
       << k1 << ", \"k2\": " << k2 << ", \"threads\": " << threads
       << ", \"quick\": " << (quick ? "true" : "false")
       << "},\n  \"baseline_iters_per_sec\": " << kBaselineItersPerSec
       << ",\n  \"speedup_flat_serial\": " << speedup
       << ",\n  \"dynamic_pool_over_flat_pool\": " << dyn_over_flat
       << ",\n  \"dynamic_pool_over_serial\": " << dyn_pool_over_serial
       << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EmitJson(json, rows[i].grouping, rows[i].host, rows[i].m,
             i + 1 == rows.size());
  }
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_hotpath.json\n";
  return 0;
}
