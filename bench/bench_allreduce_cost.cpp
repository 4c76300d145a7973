// Section 4.2 cost-model reproduction (supports Figures 1-2 and eq. 11-16):
// measured communication cost of Ring-Allreduce vs PSR-Allreduce across
// worker counts and sparsity layouts, checked against the paper's analytic
// bounds. theta_s is normalized to 1 so every number is in units of
// "sparse-element transfer times".
//
// Layouts (c = nnz per worker):
//   uniform      nonzeros spread evenly over all N blocks (paper best case)
//   own-block    each worker's nonzeros live in its own block (PSR T_sr = 0)
//   hot-overlap  all workers share the same c indices in block 0
//   hot-disjoint all nonzeros in block 0, disjoint across workers
//                (Ring's true worst case: partial sums grow as they travel)
#include <algorithm>
#include <iostream>

#include "comm/collective.hpp"
#include "comm/group.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace {

using namespace psra;
using linalg::SparseVector;

std::vector<SparseVector> MakeLayout(const std::string& kind, std::uint32_t n,
                                     std::size_t c, std::uint64_t dim,
                                     const comm::GroupComm& group) {
  std::vector<SparseVector> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<SparseVector::Index> idx;
    if (kind == "uniform") {
      // c/N (rounded) indices per block, same positions for everyone.
      const std::size_t per_block = std::max<std::size_t>(1, c / n);
      for (std::uint32_t b = 0; b < n; ++b) {
        const auto [lo, hi] = group.BlockRange(dim, b);
        for (std::size_t k = 0; k < per_block && lo + k < hi; ++k) {
          idx.push_back(lo + k);
        }
      }
    } else if (kind == "own-block") {
      const auto [lo, hi] = group.BlockRange(dim, i);
      for (std::size_t k = 0; k < c && lo + k < hi; ++k) idx.push_back(lo + k);
    } else if (kind == "hot-overlap") {
      for (std::size_t k = 0; k < c; ++k) idx.push_back(k);
    } else {  // hot-disjoint
      for (std::size_t k = 0; k < c; ++k) {
        idx.push_back(static_cast<std::uint64_t>(i) * c + k);
      }
    }
    std::vector<double> val(idx.size(), 1.0);
    out.emplace_back(dim, std::move(idx), std::move(val));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t nnz = 256;
  std::string workers_csv = "2,4,8,16,32,64";
  CliParser cli("bench_allreduce_cost",
                "Ring vs PSR Allreduce cost under the paper's sparse layouts");
  cli.AddInt("nnz", &nnz, "nonzeros per worker (the paper's c)");
  cli.AddString("workers", &workers_csv, "comma-separated worker counts");
  std::string log_level = "warn";
  AddLogLevelFlag(cli, &log_level);
  if (!cli.Parse(argc, argv)) return 0;
  ApplyLogLevelFlag(log_level);
  const auto c = static_cast<std::size_t>(nnz);

  // theta_s = 1: 16-byte sparse elements over a 16 B/s link, zero latency.
  simnet::CostModelConfig cfg;
  cfg.net_bandwidth_bytes_per_s = 16.0;
  cfg.bus_bandwidth_bytes_per_s = 16.0;
  cfg.net_latency_s = 0.0;
  cfg.bus_latency_s = 0.0;
  const simnet::CostModel cost(cfg);

  Table table({"layout", "N", "T_ring", "T_psr", "psr/ring", "bound_lo",
               "ring_bound_hi", "psr_bound_hi"});

  for (const std::string layout :
       {"uniform", "own-block", "hot-overlap", "hot-disjoint"}) {
    for (const auto& wtok : Split(workers_csv, ',')) {
      const auto n = static_cast<std::uint32_t>(ParseInt(wtok));
      const simnet::Topology topo(n, 1);
      std::vector<simnet::Rank> members(n);
      for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
      const comm::GroupComm group(&topo, &cost, members);
      // hot-disjoint needs all n*c distinct indices to fit inside block 0
      // (size dim/n), i.e. dim >= n^2 * c.
      const std::uint64_t dim =
          layout == "hot-disjoint"
              ? static_cast<std::uint64_t>(n) * n * c * 2
              : std::max<std::uint64_t>(static_cast<std::uint64_t>(n) * c * 2,
                                        static_cast<std::uint64_t>(n));

      const auto inputs = MakeLayout(layout, n, c, dim, group);
      const std::vector<simnet::VirtualTime> starts(n, 0.0);

      comm::AllreduceScratch scratch;
      linalg::SparseVector sum;
      comm::CommStats ring, psr;
      comm::MakeAllreduce("ring")->ReduceSparse(group, inputs, starts, scratch,
                                                sum, ring);
      comm::MakeAllreduce("psr")->ReduceSparse(group, inputs, starts, scratch,
                                               sum, psr);
      const double cd = static_cast<double>(c);
      const double nd = static_cast<double>(n);
      table.AddRow({layout, std::to_string(n),
                    Table::Cell(ring.all_done, 6),
                    Table::Cell(psr.all_done, 6),
                    Table::Cell(psr.all_done /
                                    std::max(1e-12, ring.all_done),
                                3),
                    Table::Cell(2.0 * cd * (nd - 1) / nd, 6),   // eq. 13/16 lo
                    Table::Cell(1.5 * cd * nd * (nd - 1), 6),   // eq. 13 hi
                    Table::Cell(cd * nd, 6)});                  // eq. 16 hi
    }
  }
  table.Print(std::cout);
  std::cout <<
      "\nT in units of theta_s (one sparse element transfer). bound_lo is the"
      "\nshared best case 2c*theta*(N-1)/N; ring_bound_hi = 1.5cN(N-1)*theta"
      "\n(eq. 13); psr_bound_hi = cN*theta (eq. 16, overlap worst case)."
      "\nShapes to check: uniform ties; PSR wins on hot layouts and the gap"
      "\ngrows ~N; PSR scatter cost is zero for own-block (eq. 14).\n";
  return 0;
}
