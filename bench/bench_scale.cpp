// Scale acceptance bench: the flat PSRA loop at O(10k) workers.
//
// Drives one flat-grouping PSRA-HGADMM run at --workers workers (default
// 10240) for --iterations iterations (default 1000) on the tiny "smoke"
// profile, and reports host wall time and iterations/sec. Each iteration
// runs every worker's x-update, one collective over all of them and the
// WorkerSet consensus step, so the run times the per-worker overheads of
// the collectives and of WorkerSet at that width.
//
// --verify-pool re-runs a short prefix of the same configuration twice —
// serial host loop, then on the thread pool — and requires the final
// consensus vector and every traffic counter to match bitwise. Virtual time
// is simulated, so pool size must never change results; this is the
// cross-pool determinism gate from the scale acceptance criteria.
//
// Results are emitted as BENCH_scale.json in the current directory (and
// echoed to stdout) so CI can archive large-N numbers next to the sweep
// metrics.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "admm/psra_hgadmm.hpp"
#include "bench_util.hpp"
#include "engine/thread_pool.hpp"
#include "support/cli.hpp"
#include "support/status.hpp"

namespace {

using namespace psra;

comm::AllreduceKind ParseKind(const std::string& name) {
  if (name == "naive") return comm::AllreduceKind::kNaive;
  if (name == "ring") return comm::AllreduceKind::kRing;
  if (name == "psr") return comm::AllreduceKind::kPsr;
  throw InvalidArgument("unknown algorithm token '" + name + "'");
}

admm::RunResult RunOnce(const admm::ConsensusProblem& problem,
                        const admm::PsraConfig& cfg, engine::ThreadPool* pool,
                        std::uint64_t iterations) {
  admm::RunOptions opt;
  opt.max_iterations = iterations;
  opt.tron = bench::BenchTron();
  opt.eval_every = iterations;  // objective/accuracy once, at the end
  opt.pool = pool;
  return admm::PsraHgAdmm(cfg).Run(problem, opt);
}

/// Bitwise equality of two runs: consensus vector and traffic counters.
/// (Exact ==, not a tolerance — the determinism contract is bit-for-bit.)
bool SameRun(const admm::RunResult& a, const admm::RunResult& b) {
  if (a.final_z.size() != b.final_z.size()) return false;
  for (std::size_t i = 0; i < a.final_z.size(); ++i) {
    if (a.final_z[i] != b.final_z[i]) return false;
  }
  return a.makespan == b.makespan && a.elements_sent == b.elements_sent &&
         a.messages_sent == b.messages_sent &&
         a.iterations_run == b.iterations_run;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t workers = 10240, wpn = 1, iterations = 1000;
  std::int64_t pool_threads = -1, verify_iterations = 25;
  std::string dataset = "smoke", algorithm = "naive";
  double scale = 0.0;
  bool verify_pool = false;
  std::string log_level = "warn";
  CliParser cli("bench_scale",
                "O(10k)-worker flat-grouping scale run (wall time, iters/sec)");
  cli.AddInt("workers", &workers, "total workers (default 10240)");
  cli.AddInt("workers-per-node", &wpn, "workers per node (default 1)");
  cli.AddInt("iterations", &iterations, "ADMM iterations for the timed run");
  cli.AddInt("pool", &pool_threads,
             "host pool threads (-1 = hardware concurrency, 0 = serial)");
  cli.AddString("dataset", &dataset, "dataset profile (default smoke)");
  cli.AddDouble("scale", &scale, "profile scale (0 = dataset default)");
  cli.AddString("algorithm", &algorithm,
                "inter-node collective: psr|ring|naive");
  cli.AddBool("verify-pool", &verify_pool,
              "also run a short serial-vs-pooled prefix and require bitwise "
              "identical results");
  cli.AddInt("verify-iterations", &verify_iterations,
             "iteration count for the --verify-pool prefix");
  AddLogLevelFlag(cli, &log_level);
  if (!cli.Parse(argc, argv)) return 0;
  ApplyLogLevelFlag(log_level);
  PSRA_REQUIRE(workers >= 1 && wpn >= 1 && workers % wpn == 0,
               "--workers must be a positive multiple of --workers-per-node");

  if (pool_threads < 0) {
    pool_threads = static_cast<std::int64_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  std::optional<engine::ThreadPool> pool;
  if (pool_threads > 0) pool.emplace(static_cast<std::size_t>(pool_threads));
  engine::ThreadPool* host = pool.has_value() ? &*pool : nullptr;

  admm::PsraConfig cfg;
  cfg.cluster.num_nodes = static_cast<std::uint32_t>(workers / wpn);
  cfg.cluster.workers_per_node = static_cast<std::uint32_t>(wpn);
  cfg.grouping = admm::GroupingMode::kFlat;
  cfg.allreduce = ParseKind(algorithm);
  // Dense transport: the scale run measures event-core throughput, not the
  // sparse encoding (the sweep covers that).
  cfg.sparse_comm = false;

  const auto problem =
      bench::MakeProblem(dataset, scale, cfg.cluster.world_size());
  std::cout << "bench_scale: " << dataset << " dim=" << problem.dim()
            << " workers=" << problem.num_workers() << " iterations="
            << iterations << " host=" << (host ? "pool" : "serial")
            << pool_threads << "\n";

  bool verify_ok = true;
  if (verify_pool) {
    PSRA_REQUIRE(host != nullptr, "--verify-pool needs --pool > 0");
    const auto serial = RunOnce(problem, cfg, nullptr,
                                static_cast<std::uint64_t>(verify_iterations));
    const auto pooled = RunOnce(problem, cfg, host,
                                static_cast<std::uint64_t>(verify_iterations));
    verify_ok = SameRun(serial, pooled);
    std::cout << "  verify-pool (" << verify_iterations << " iters): "
              << (verify_ok ? "bitwise identical" : "MISMATCH") << "\n";
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto res =
      RunOnce(problem, cfg, host, static_cast<std::uint64_t>(iterations));
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  const double ips =
      wall > 0 ? static_cast<double>(res.iterations_run) / wall : 0.0;

  std::cout << "  wall: " << wall << " s for " << res.iterations_run
            << " iterations (" << ips << " iters/sec)\n"
            << "  virtual makespan: " << res.makespan << " s, messages: "
            << res.messages_sent << "\n";

  std::ofstream json("BENCH_scale.json");
  json << "{\n  \"benchmark\": \"scale\",\n  \"dataset\": \"" << dataset
       << "\",\n  \"workers\": " << problem.num_workers()
       << ",\n  \"workers_per_node\": " << wpn << ",\n  \"algorithm\": \""
       << algorithm << "\",\n  \"pool_threads\": " << pool_threads
       << ",\n  \"iterations\": " << res.iterations_run
       << ",\n  \"wall_seconds\": " << wall << ",\n  \"iters_per_sec\": "
       << ips << ",\n  \"messages_sent\": " << res.messages_sent
       << ",\n  \"verify_pool\": "
       << (verify_pool ? (verify_ok ? "\"ok\"" : "\"mismatch\"") : "\"skipped\"")
       << "\n}\n";
  std::cout << "wrote BENCH_scale.json\n";
  return verify_ok ? 0 : 3;
}
