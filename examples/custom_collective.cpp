// Using the collectives directly: build sparse vectors by hand, run
// Ring-Allreduce and PSR-Allreduce through the public comm API, and compare
// the modeled communication cost on different sparsity layouts (the
// scenario of paper Figures 1-2).
//
//   ./custom_collective [--workers 8] [--nnz 64]
#include <iostream>

#include "comm/collective.hpp"
#include "comm/group.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace psra;

  std::int64_t workers = 8, nnz = 64;
  CliParser cli("custom_collective",
                "drive Ring/PSR-Allreduce directly on sparse vectors");
  cli.AddInt("workers", &workers, "workers (one per node)");
  cli.AddInt("nnz", &nnz, "nonzeros per worker");
  if (!cli.Parse(argc, argv)) return 0;

  const auto n = static_cast<std::uint32_t>(workers);
  const auto c = static_cast<std::size_t>(nnz);
  const std::uint64_t dim = static_cast<std::uint64_t>(n) * c * 2;

  // One worker per node: every link is inter-node, like leaders in WLG.
  simnet::Topology topo(n, 1);
  simnet::CostModel cost;  // default TH2-Express-like parameters
  std::vector<simnet::Rank> members(n);
  for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
  comm::GroupComm group(&topo, &cost, members);

  auto make_layout = [&](const std::string& kind) {
    Rng rng(7);
    std::vector<linalg::SparseVector> inputs;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<linalg::SparseVector::Index> idx;
      if (kind == "uniform") {
        for (std::size_t k = 0; k < c; ++k) {
          idx.push_back(k * (dim / c) % dim);
        }
      } else if (kind == "own-block") {
        const auto [lo, hi] = group.BlockRange(dim, i);
        for (std::size_t k = 0; k < c && lo + k < hi; ++k) idx.push_back(lo + k);
      } else {  // concentrated: everything in block 0
        for (std::size_t k = 0; k < c; ++k) idx.push_back(k);
      }
      std::sort(idx.begin(), idx.end());
      idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
      std::vector<double> val(idx.size(), 1.0 + i);
      inputs.emplace_back(dim, std::move(idx), std::move(val));
    }
    return inputs;
  };

  const std::vector<simnet::VirtualTime> starts(n, 0.0);
  comm::AllreduceScratch scratch;
  Table table({"layout", "algorithm", "span", "elements", "messages"});
  for (const std::string layout : {"uniform", "own-block", "concentrated"}) {
    const auto inputs = make_layout(layout);
    for (const std::string alg_name : {"ring", "psr"}) {
      linalg::SparseVector sum;
      comm::CommStats stats;
      comm::MakeAllreduce(alg_name)->ReduceSparse(group, inputs, starts,
                                                  scratch, sum, stats);
      table.AddRow({layout, alg_name, FormatDuration(stats.Span(starts)),
                    std::to_string(stats.elements_sent),
                    std::to_string(stats.messages_sent)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nPSR-Allreduce's advantage appears on skewed layouts"
               " (concentrated blocks); uniform layouts tie, as the paper's"
               " Section 4.2 analysis predicts.\n";
  return 0;
}
