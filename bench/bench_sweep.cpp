// Scale sweep: every engine across a (nodes x algorithm x sparsity) grid,
// one metrics.json per cell — the raw material for the eq. 11-16
// bytes-on-wire scaling comparison (Figures 6-7) and for the CI regression
// baseline (scripts/sweep_report diffs the per-cell metrics against
// bench/baselines/sweep_baseline.json).
//
// Algorithm tokens:
//   psr | ring | naive — PSRA-HGADMM with hierarchical
//       grouping (intra reduce -> ONE collective over all N leaders ->
//       intra broadcast) and that inter-node collective, so the collective
//       cost scales with N instead of degenerating to fixed-size dynamic
//       groups; `dense` sparsity clears sparse_comm.
//   admmlib — SSP + ring over all leaders; `dense` clears sparse_comm.
//   ad-admm — asynchronous master/worker; `sparse` sends sparse deltas
//       (classic_exchange = false), `dense` the classic dense exchange.
//   gadmm — chain GADMM. The chain always ships dense models, so gadmm
//       only produces `dense` cells (sparse is skipped, not aliased).
//
// --racks R partitions the nodes into R racks: cross-rack links are priced
// on the slower kInterRack fabric and the hierarchical PSRA cells run their
// leader collective recursively (per rack, then across rack leaders) — the
// multi-level sweep of DESIGN.md §10. R must divide every node count.
//
// --pool T runs every cell's host-side loops on a T-thread pool (0 = serial,
// the default). Virtual-time results and every counter in metrics.json are
// bitwise-identical for any T; the flag only shortens large-N wall time.
//
// Cells are run metrics-only (tracing off): the sweep gate diffs counters,
// and skipping span recording keeps the grid cheap.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "admm/ad_admm.hpp"
#include "admm/admmlib.hpp"
#include "admm/gadmm.hpp"
#include "admm/progress.hpp"
#include "admm/psra_hgadmm.hpp"
#include "bench_util.hpp"
#include "engine/thread_pool.hpp"
#include "obs/obs.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/status.hpp"
#include "support/table.hpp"

namespace {

using namespace psra;

admm::LocalSolverOptions::Mode ParseSolverMode(const std::string& name) {
  if (name == "cg") return admm::LocalSolverOptions::Mode::kCg;
  if (name == "auto") return admm::LocalSolverOptions::Mode::kAuto;
  if (name == "gram") return admm::LocalSolverOptions::Mode::kGram;
  throw InvalidArgument("unknown solver mode '" + name + "'");
}

comm::AllreduceKind ParseKind(const std::string& name) {
  if (name == "naive") return comm::AllreduceKind::kNaive;
  if (name == "ring") return comm::AllreduceKind::kRing;
  if (name == "psr") return comm::AllreduceKind::kPsr;
  throw InvalidArgument("unknown algorithm token '" + name + "'");
}

/// Total bytes on the simulated wire for one cell: the sum of every
/// comm.*.bytes counter the engine recorded.
std::uint64_t BytesOnWire(const obs::MetricsRegistry& m) {
  std::uint64_t total = 0;
  for (const auto& [name, v] : m.counters()) {
    if (StartsWith(name, "comm.") && name.ends_with(".bytes")) total += v;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::string nodes_csv = "4,8,16";
  std::int64_t wpn = 4, iterations = 20, racks = 1, pool_threads = 0;
  std::string dataset = "news20";
  double scale = 0.0;
  std::string algorithms_csv = "psr,ring,naive,admmlib,ad-admm,gadmm";
  std::string sparsity_csv = "sparse,dense";
  std::string out_dir = "sweep";
  std::string solver = "cg";
  std::string cell_prefix;
  std::string log_level = "warn";
  CliParser cli("bench_sweep",
                "metrics sweep over (nodes x algorithm x sparsity)");
  cli.AddString("nodes", &nodes_csv, "comma-separated node counts");
  cli.AddInt("workers-per-node", &wpn, "workers per node");
  cli.AddInt("iterations", &iterations, "ADMM iterations per cell");
  cli.AddInt("racks", &racks, "racks per cluster (must divide node counts)");
  cli.AddInt("pool", &pool_threads,
             "host pool threads (0 = serial; counters are identical)");
  cli.AddString("dataset", &dataset, "dataset profile");
  cli.AddDouble("scale", &scale, "profile scale (0 = dataset default)");
  cli.AddString("algorithms", &algorithms_csv,
                "cells: psr|ring|naive|admmlib|ad-admm|gadmm");
  cli.AddString("sparsity", &sparsity_csv, "sparse,dense");
  cli.AddString("out-dir", &out_dir, "directory for per-cell metrics.json");
  cli.AddString("solver", &solver,
                "local x-update solver: cg (baseline) | auto | gram");
  cli.AddString("cell-prefix", &cell_prefix,
                "prefix for cell names (separates baseline namespaces)");
  bool progress = false;
  admm::AddProgressFlag(cli, &progress);
  AddLogLevelFlag(cli, &log_level);
  if (!cli.Parse(argc, argv)) return 0;
  ApplyLogLevelFlag(log_level);
  const auto solver_mode = ParseSolverMode(solver);
  PSRA_REQUIRE(racks >= 1, "--racks must be at least 1");
  admm::ProgressPrinter progress_printer;

  std::optional<engine::ThreadPool> pool;
  if (pool_threads > 0) {
    pool.emplace(static_cast<std::size_t>(pool_threads));
  }

  std::filesystem::create_directories(out_dir);
  std::ofstream manifest(out_dir + "/manifest.csv");
  if (!manifest) {
    std::cerr << "bench_sweep: cannot write to " << out_dir << "\n";
    return 2;
  }
  manifest << "cell,algorithm,sparsity,nodes,workers,file\n";

  Table table({"algorithm", "sparsity", "nodes", "bytes_on_wire",
               "makespan_s", "iterations"});
  for (const auto& node_tok : bench::ParseList(nodes_csv)) {
    const auto nodes = static_cast<std::uint32_t>(ParseInt(node_tok));
    PSRA_REQUIRE(nodes % static_cast<std::uint32_t>(racks) == 0,
                 "--racks must divide every node count");
    admm::ClusterConfig cluster;
    cluster.num_nodes = nodes;
    cluster.workers_per_node = static_cast<std::uint32_t>(wpn);
    cluster.num_racks = static_cast<std::uint32_t>(racks);
    const auto problem = bench::MakeProblem(dataset, scale,
                                            cluster.world_size());
    for (const auto& alg : bench::ParseList(algorithms_csv)) {
      for (const auto& sparsity : bench::ParseList(sparsity_csv)) {
        PSRA_REQUIRE(sparsity == "sparse" || sparsity == "dense",
                     "sparsity must be sparse or dense");
        const bool sparse = sparsity == "sparse";
        // GADMM's chain ships dense models only; there is no sparse cell.
        if (alg == "gadmm" && sparse) continue;

        obs::ObsContext obs;
        obs.tracing = false;  // metrics only
        admm::RunOptions opt;
        opt.max_iterations = static_cast<std::uint64_t>(iterations);
        opt.tron = bench::BenchTron();
        opt.eval_every = opt.max_iterations;
        opt.obs = &obs;
        opt.local_solver.mode = solver_mode;
        opt.pool = pool.has_value() ? &*pool : nullptr;
        if (progress) opt.progress = &progress_printer;

        admm::RunResult res;
        if (alg == "admmlib") {
          admm::AdmmLibConfig cfg;
          cfg.cluster = cluster;
          cfg.sparse_comm = sparse;
          res = admm::AdmmLib(cfg).Run(problem, opt);
        } else if (alg == "ad-admm") {
          admm::AdAdmmConfig cfg;
          cfg.cluster = cluster;
          cfg.classic_exchange = !sparse;
          res = admm::AdAdmm(cfg).Run(problem, opt);
        } else if (alg == "gadmm") {
          admm::GadmmConfig cfg;
          cfg.cluster = cluster;
          res = admm::Gadmm(cfg).Run(problem, opt);
        } else {
          admm::PsraConfig cfg;
          cfg.cluster = cluster;
          cfg.grouping = admm::GroupingMode::kHierarchical;
          cfg.allreduce = ParseKind(alg);
          cfg.sparse_comm = sparse;
          res = admm::PsraHgAdmm(cfg).Run(problem, opt);
        }

        progress_printer.Finish();

        // Convergence gate feed: the first iteration at which each residual
        // series halved from its first recorded value (0 = never). Computed
        // post-run from the recorded timeline — early stopping stays OFF, so
        // engine.iterations baselines are untouched. Deterministic integers
        // (virtual-time state only); scripts/sweep_report diffs them exactly
        // against the committed baseline like any traffic counter.
        for (const auto& [series, counter] :
             {std::pair{"ts.primal_residual",
                        "convergence.primal.iters_to_half"},
              std::pair{"ts.dual_residual",
                        "convergence.dual.iters_to_half"}}) {
          const obs::TimeSeries* s = obs.timeline.Find(series);
          if (s == nullptr || s->empty()) continue;
          obs.metrics.Counter(counter) +=
              obs.timeline.FirstIterationAtOrBelow(series, 0.5 * s->front());
        }

        const std::string cell =
            cell_prefix + alg + "_" + sparsity + "_n" + std::to_string(nodes);
        const std::string file = out_dir + "/" + cell + ".metrics.json";
        std::ofstream out(file);
        obs.metrics.WriteJson(out);
        manifest << cell << "," << alg << "," << sparsity << "," << nodes
                 << "," << cluster.world_size() << "," << cell
                 << ".metrics.json\n";
        table.AddRow({alg, sparsity, std::to_string(nodes),
                      std::to_string(BytesOnWire(obs.metrics)),
                      FormatDouble(res.makespan, 6),
                      std::to_string(res.iterations_run)});
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\nwrote " << out_dir << "/manifest.csv\n";
  return 0;
}
