// Ablation study of the design decisions DESIGN.md §6 calls out — not a
// paper figure; it isolates each ingredient of PSRA-HGADMM:
//
//   A. Allreduce algorithm inside the WLG framework:
//      psr (paper) vs ring vs naive.
//   B. Sparse vs dense aggregate encoding.
//   C. Group Generator threshold sweep (grouping-overhead vs wait tradeoff).
//   D. Adaptive penalty (residual balancing) vs fixed rho.
#include <iostream>

#include "admm/psra_hgadmm.hpp"
#include "admm/reference.hpp"
#include "bench_util.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace psra;

  std::int64_t nodes = 8, wpn = 4, iterations = 50;
  std::string dataset = "news20";
  double scale = 0.0;
  CliParser cli("bench_ablation", "design-choice ablations for PSRA-HGADMM");
  cli.AddInt("nodes", &nodes, "simulated nodes");
  cli.AddInt("workers-per-node", &wpn, "workers per node");
  cli.AddInt("iterations", &iterations, "ADMM iterations");
  cli.AddString("dataset", &dataset, "dataset profile");
  cli.AddDouble("scale", &scale, "profile scale (0 = default)");
  std::string log_level = "warn";
  AddLogLevelFlag(cli, &log_level);
  if (!cli.Parse(argc, argv)) return 0;
  ApplyLogLevelFlag(log_level);

  admm::ClusterConfig cluster;
  cluster.num_nodes = static_cast<std::uint32_t>(nodes);
  cluster.workers_per_node = static_cast<std::uint32_t>(wpn);
  const auto problem = bench::MakeProblem(dataset, scale, cluster.world_size());

  admm::RunOptions opt;
  opt.max_iterations = static_cast<std::uint64_t>(iterations);
  opt.tron = bench::BenchTron();
  opt.eval_every = opt.max_iterations;

  bench::ReferenceCache refs;
  const double f_min = refs.Get(dataset, problem.train, problem.lambda);

  auto run = [&](const admm::PsraConfig& cfg, const admm::RunOptions& o) {
    auto res = admm::PsraHgAdmm(cfg).Run(problem, o);
    res.ApplyReference(f_min);
    return res;
  };
  auto row = [&](Table& t, const std::string& label, const admm::RunResult& r) {
    t.AddRow({label, Table::Cell(r.trace.back().relative_error, 4),
              Table::Cell(r.final_accuracy, 4),
              FormatDuration(r.total_comm_time),
              FormatDuration(r.SystemTime()),
              std::to_string(r.elements_sent)});
  };

  std::cout << "== A. Allreduce algorithm (dynamic grouping fixed) ==\n";
  {
    Table t({"allreduce", "rel_error", "accuracy", "comm_time", "system_time",
             "elements"});
    const std::pair<const char*, comm::AllreduceKind> kinds[] = {
        {"psr", comm::AllreduceKind::kPsr},
        {"ring", comm::AllreduceKind::kRing},
        {"naive", comm::AllreduceKind::kNaive},
    };
    for (const auto& [name, kind] : kinds) {
      admm::PsraConfig cfg;
      cfg.cluster = cluster;
      cfg.allreduce = kind;
      row(t, name, run(cfg, opt));
    }
    t.Print(std::cout);
  }

  std::cout << "\n== B. Sparse vs dense aggregate encoding ==\n";
  {
    Table t({"encoding", "rel_error", "accuracy", "comm_time", "system_time",
             "elements"});
    for (const bool sparse : {true, false}) {
      admm::PsraConfig cfg;
      cfg.cluster = cluster;
      cfg.sparse_comm = sparse;
      row(t, sparse ? "sparse (index,value)" : "dense", run(cfg, opt));
    }
    t.Print(std::cout);
  }

  std::cout << "\n== C. Group Generator threshold (paper default: nodes/2) ==\n";
  {
    Table t({"threshold", "rel_error", "accuracy", "comm_time", "system_time",
             "elements"});
    for (std::uint32_t thr = 1; thr <= cluster.num_nodes; thr *= 2) {
      admm::PsraConfig cfg;
      cfg.cluster = cluster;
      cfg.group_threshold = thr;
      row(t, std::to_string(thr), run(cfg, opt));
    }
    t.Print(std::cout);
  }

  std::cout << "\n== D. Adaptive penalty (residual balancing) vs fixed rho ==\n";
  {
    Table t({"penalty", "rel_error", "accuracy", "comm_time", "system_time",
             "elements"});
    admm::PsraConfig cfg;
    cfg.cluster = cluster;
    row(t, "fixed rho=1", run(cfg, opt));
    auto aopt = opt;
    aopt.adaptive_rho.enabled = true;
    row(t, "adaptive (mu=10, tau=2)", run(cfg, aopt));
    t.Print(std::cout);
  }

  std::cout << "\n== E. Wire-format options (fixed full-barrier hierarchy) ==\n";
  {
    Table t({"option", "rel_error", "accuracy", "comm_time", "system_time",
             "elements"});
    admm::PsraConfig base;
    base.cluster = cluster;
    base.grouping = admm::GroupingMode::kHierarchical;
    row(t, "fp64 (baseline)", run(base, opt));

    auto mp = base;
    mp.mixed_precision = true;
    row(t, "mixed precision (fp32 wire)", run(mp, opt));

    auto cen = base;
    cen.censor_threshold = 1.0;
    cen.censor_decay = 0.98;
    auto cen_res = run(cen, opt);
    row(t, "censored deltas (COLA-style)", cen_res);
    t.Print(std::cout);
    std::cout << "censored transmissions: " << cen_res.censored_sends << "\n";
  }

  std::cout << "\nReadings: (A) psr <= ring on comm time at equal accuracy;"
               "\n(B) sparse encoding moves fewer elements early on; (C) small"
               "\nthresholds cut waiting but slow convergence (partial"
               "\nconsensus), the paper's nodes/2 balances both; (D) adaptive"
               "\nrho trades a little comm for better conditioning.\n";
  return 0;
}
