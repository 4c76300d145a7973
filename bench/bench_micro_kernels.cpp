// Engineering micro-benchmarks (google-benchmark): host throughput of the
// numeric kernels and collectives. These are not paper figures; they guard
// against performance regressions in the building blocks.
//
// Invoked with --kernels-out <path> this binary instead runs the gated
// solver-kernel microbench (DESIGN.md §14): blocked-vs-scalar ratios for the
// linalg kernels and the hierarchical group's sparse collective, plus the
// Gram-vs-CG x-update comparison on a tall url_like shard, written as
// BENCH_kernels.json and diffed in CI like BENCH_hotpath.json. All other
// arguments delegate to google-benchmark.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "comm/collective.hpp"
#include "comm/group.hpp"
#include "data/synthetic.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/sparse_vector.hpp"
#include "simnet/cost_model.hpp"
#include "simnet/topology.hpp"
#include "solver/logistic.hpp"
#include "solver/tron.hpp"
#include "support/rng.hpp"

namespace {

using namespace psra;

void BM_DenseAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::DenseVector x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    linalg::Axpy(0.9, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseAxpy)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_DenseDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::DenseVector x(n, 1.5), y(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Dot(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DenseDot)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_SoftThreshold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  linalg::DenseVector x(n), out(n);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto _ : state) {
    linalg::SoftThreshold(x, 0.5, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SoftThreshold)->Arg(1 << 14);

void BM_CsrMultiply(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_features = 4096;
  spec.num_train = static_cast<std::uint64_t>(state.range(0));
  spec.num_test = 1;
  spec.mean_row_nnz = 32;
  const auto gen = data::GenerateSynthetic(spec);
  linalg::DenseVector x(spec.num_features, 0.5), out(spec.num_train);
  for (auto _ : state) {
    gen.train.features().Multiply(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.train.nnz()));
}
BENCHMARK(BM_CsrMultiply)->Arg(512)->Arg(4096);

void BM_TronSolve(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_features = 1024;
  spec.num_train = 256;
  spec.num_test = 1;
  spec.mean_row_nnz = 24;
  const auto gen = data::GenerateSynthetic(spec);
  solver::ProximalLogistic f(&gen.train, 1.0);
  linalg::DenseVector v(spec.num_features, 0.01), z(spec.num_features, 0.0);
  f.SetIterationTerms(v, z);
  solver::TronOptions opt;
  opt.max_iterations = 10;
  opt.max_cg_iterations = 10;
  for (auto _ : state) {
    linalg::DenseVector x(spec.num_features, 0.0);
    const auto res = solver::TronMinimize(f, x, opt);
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_TronSolve);

template <comm::AllreduceKind kKind>
void BM_SparseAllreduce(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::size_t c = 512;
  const std::uint64_t dim = n * c * 2;
  simnet::Topology topo(n, 1);
  simnet::CostModel cost;
  std::vector<simnet::Rank> members(n);
  for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
  comm::GroupComm group(&topo, &cost, members);

  Rng rng(3);
  std::vector<linalg::SparseVector> inputs;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto picks = rng.SampleWithoutReplacement(dim, c);
    std::vector<linalg::SparseVector::Index> idx(picks.begin(), picks.end());
    std::vector<double> val(c, 1.0);
    inputs.emplace_back(dim, std::move(idx), std::move(val));
  }
  const std::vector<simnet::VirtualTime> starts(n, 0.0);
  const auto alg = comm::MakeAllreduce(kKind);
  comm::AllreduceScratch scratch;
  linalg::SparseVector sum;
  comm::CommStats stats;
  for (auto _ : state) {
    alg->ReduceSparse(group, inputs, starts, scratch, sum, stats);
    benchmark::DoNotOptimize(stats.all_done);
  }
}
BENCHMARK(BM_SparseAllreduce<comm::AllreduceKind::kRing>)->Arg(8)->Arg(32);
BENCHMARK(BM_SparseAllreduce<comm::AllreduceKind::kPsr>)->Arg(8)->Arg(32);

void BM_LogisticGradient(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.num_features = 4096;
  spec.num_train = 1024;
  spec.num_test = 1;
  spec.mean_row_nnz = 32;
  const auto gen = data::GenerateSynthetic(spec);
  solver::ProximalLogistic f(&gen.train, 1.0);
  linalg::DenseVector v(spec.num_features, 0.01), z(spec.num_features, 0.0);
  f.SetIterationTerms(v, z);
  linalg::DenseVector x(spec.num_features, 0.1), grad(spec.num_features);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ValueAndGradient(x, grad));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gen.train.nnz()));
}
BENCHMARK(BM_LogisticGradient);

// ---------------------------------------------------------------------------
// Gated solver-kernel microbench (--kernels-out): emits BENCH_kernels.json.
// ---------------------------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` seconds for one call of `fn`, where each timed sample runs
/// `inner` calls back to back (so sub-microsecond kernels still get a
/// multi-millisecond sample).
template <typename Fn>
double TimeBest(int reps, int inner, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = NowSeconds();
    for (int k = 0; k < inner; ++k) fn();
    const double dt = (NowSeconds() - t0) / inner;
    best = std::min(best, dt);
  }
  return best;
}

/// A raw copy of the CSR arrays so the scalar reference loops run over plain
/// pointers — the same access pattern the pre-blocking CsrMatrix kernels had.
struct RawCsr {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> rp;
  std::vector<std::uint64_t> ci;
  std::vector<double> va;
};

RawCsr ExtractRaw(const linalg::CsrMatrix& m) {
  RawCsr r;
  r.rows = static_cast<std::size_t>(m.rows());
  r.cols = static_cast<std::size_t>(m.cols());
  r.rp.reserve(r.rows + 1);
  r.rp.push_back(0);
  for (std::uint64_t row = 0; row < m.rows(); ++row) {
    const auto idx = m.RowIndices(row);
    const auto val = m.RowValues(row);
    r.ci.insert(r.ci.end(), idx.begin(), idx.end());
    r.va.insert(r.va.end(), val.begin(), val.end());
    r.rp.push_back(r.ci.size());
  }
  return r;
}

void ScalarCsrMultiply(const RawCsr& m, std::span<const double> x,
                       std::span<double> out) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    double acc = 0.0;
    for (std::size_t k = m.rp[r]; k < m.rp[r + 1]; ++k) {
      acc += m.va[k] * x[static_cast<std::size_t>(m.ci[k])];
    }
    out[r] = acc;
  }
}

void ScalarCsrTransposeMultiplyAdd(const RawCsr& m, std::span<const double> v,
                                   std::span<double> out) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (std::size_t k = m.rp[r]; k < m.rp[r + 1]; ++k) {
      out[static_cast<std::size_t>(m.ci[k])] += vr * m.va[k];
    }
  }
}

struct KernelRow {
  std::string name;
  double scalar_s = 0.0;
  double blocked_s = 0.0;
  double ratio() const { return blocked_s > 0 ? scalar_s / blocked_s : 0.0; }
};

/// Best-of-`reps` seconds of the scalar reference and the blocked kernel of
/// one row, each sample as in TimeBest. The two sides' reps interleave, and
/// the side that goes first alternates, so a noisy stretch of the host lands
/// on both sides instead of on one side's reps.
template <typename Scalar, typename Blocked>
void TimeRow(KernelRow& row, int reps, int inner, Scalar&& scalar,
             Blocked&& blocked) {
  row.scalar_s = 1e300;
  row.blocked_s = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    for (int side = 0; side < 2; ++side) {
      if ((side + rep) % 2 == 0) {
        row.scalar_s = std::min(row.scalar_s, TimeBest(1, inner, scalar));
      } else {
        row.blocked_s = std::min(row.blocked_s, TimeBest(1, inner, blocked));
      }
    }
  }
}

int RunKernelGate(const std::string& out_path, bool quick) {
  const int reps = quick ? 9 : 15;
  std::vector<KernelRow> rows;

  // -- CSR kernels on a url_tall-shaped shard (tall, ~12 nnz/row). --------
  data::SyntheticSpec csr_spec;
  csr_spec.name = "url_tall_shard";
  csr_spec.num_features = 256;
  csr_spec.num_train = quick ? 8192 : 24576;
  csr_spec.num_test = 1;
  csr_spec.mean_row_nnz = 12.0;
  csr_spec.feature_skew = 1.2;
  csr_spec.seed = 46;
  const auto gen = data::GenerateSynthetic(csr_spec);
  const auto& mat = gen.train.features();
  const RawCsr raw = ExtractRaw(mat);
  const auto nrows = static_cast<std::size_t>(mat.rows());
  const auto ncols = static_cast<std::size_t>(mat.cols());

  {
    linalg::DenseVector x(ncols, 0.5), out_s(nrows), out_b(nrows);
    KernelRow k{"csr_multiply"};
    TimeRow(k, reps, 50, [&] { ScalarCsrMultiply(raw, x, out_s); },
            [&] { mat.Multiply(x, out_b); });
    rows.push_back(k);
  }
  {
    linalg::DenseVector v(nrows, 0.25), out_s(ncols, 0.0), out_b(ncols, 0.0);
    KernelRow k{"csr_transpose_multiply_add"};
    TimeRow(k, reps, 50, [&] { ScalarCsrTransposeMultiplyAdd(raw, v, out_s); },
            [&] { mat.TransposeMultiplyAdd(v, out_b); });
    rows.push_back(k);
  }

  // -- Fused axpy + ||y||^2 vs the separate Axpy/Dot pair. ----------------
  {
    const std::size_t n = 1 << 16;
    linalg::DenseVector x(n, 1e-8), y(n, 0.5);
    double sink = 0.0;
    KernelRow k{"fused_axpy_normsq"};
    TimeRow(
        k, reps, 200,
        [&] {
          linalg::Axpy(1e-9, x, y);
          sink += linalg::Dot(y, y);
        },
        [&] { sink += linalg::AxpyNormSq(1e-9, x, y); });
    benchmark::DoNotOptimize(sink);
    rows.push_back(k);
  }

  // -- The group collective of a news20 hierarchical run: 8 node leaders'
  //    aggregates over 13551 columns, each about a quarter full, their sum
  //    about three quarters. Scalar is the host work of packing each input,
  //    the SparseVector collective and expanding its sum; blocked is the
  //    collective over the dense inputs. ------------------------------------
  {
    const std::uint32_t n = 8;
    const std::size_t dim = 13551;
    const simnet::Topology topo(n, 1);
    const simnet::CostModel cost;
    std::vector<simnet::Rank> members(n);
    for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
    const comm::GroupComm group(&topo, &cost, members);
    Rng rng(13551);
    std::vector<linalg::DenseVector> aggs(n, linalg::DenseVector(dim, 0.0));
    for (std::size_t c = 0; c < dim; ++c) {
      const double fill = rng.NextDouble(0.0, 0.49);
      for (auto& a : aggs) {
        if (rng.NextBool(fill)) a[c] = rng.NextGaussian();
      }
    }
    const std::vector<simnet::VirtualTime> starts(n, 0.0);
    const auto alg = comm::MakeAllreduce(comm::AllreduceKind::kPsr);
    comm::AllreduceScratch packed_scratch, dense_scratch;
    std::vector<linalg::SparseVector> packs(n);
    linalg::SparseVector sparse_sum;
    linalg::DenseVector packed_out, dense_out;
    comm::CommStats stats;
    std::size_t sink = 0;
    KernelRow k{"psr_sparse_collective"};
    TimeRow(
        k, reps, 20,
        [&] {
          for (std::uint32_t i = 0; i < n; ++i) {
            packs[i].AssignFromDense(aggs[i]);
          }
          alg->ReduceSparse(group, packs, starts, packed_scratch, sparse_sum,
                            stats);
          sparse_sum.ToDense(packed_out);
          sink += sparse_sum.nnz();
        },
        [&] {
          sink += alg->ReduceSparse(group, aggs, starts, dense_scratch,
                                    dense_out, stats);
        });
    benchmark::DoNotOptimize(sink);
    rows.push_back(k);
  }

  // -- x-update on the tall shard: the logistic TRON solve with the
  //    matrix-free Hessian vs the Gram-accelerated one, reported as a
  //    tripwire ratio. ------------------------------------------------------
  solver::TronOptions topt;
  topt.max_iterations = 10;
  topt.max_cg_iterations = 10;
  topt.gradient_tolerance = 1e-2;
  linalg::DenseVector v(ncols, 0.01), z(ncols, 0.0), x(ncols, 0.0);
  solver::TronWorkspace tws;
  const int solve_reps = quick ? 3 : 8;

  solver::ProximalLogistic f_cg(&gen.train, 1.0);
  f_cg.SetIterationTerms(v, z);
  const double tron_cg_solve_s = TimeBest(solve_reps, 1, [&] {
    linalg::SetZero(x);
    solver::TronMinimize(f_cg, x, topt, nullptr, tws);
  });

  solver::ProximalLogistic f_gram(&gen.train, 1.0);
  f_gram.SetUseGramHessian(true);
  f_gram.SetIterationTerms(v, z);
  const double tron_gram_solve_s = TimeBest(solve_reps, 1, [&] {
    linalg::SetZero(x);
    solver::TronMinimize(f_gram, x, topt, nullptr, tws);
  });

  const double tron_gram_over_cg =
      tron_gram_solve_s > 0 ? tron_cg_solve_s / tron_gram_solve_s : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out.setf(std::ios::fixed);
  out.precision(6);
  out << "{\n";
  out << "  \"benchmark\": \"kernels\",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"config\": {\"shard_rows\": " << nrows
      << ", \"shard_cols\": " << ncols
      << ", \"tron_outer\": " << topt.max_iterations
      << ", \"tron_cg\": " << topt.max_cg_iterations << "},\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& k = rows[i];
    out << "    {\"name\": \"" << k.name << "\", \"scalar_us\": "
        << k.scalar_s * 1e6 << ", \"blocked_us\": " << k.blocked_s * 1e6
        << ", \"blocked_over_scalar\": " << k.ratio() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"xupdate\": {\n";
  out << "    \"rows\": " << nrows << ",\n";
  out << "    \"cols\": " << ncols << ",\n";
  out << "    \"tron_cg_solve_ms\": " << tron_cg_solve_s * 1e3 << ",\n";
  out << "    \"tron_gram_solve_ms\": " << tron_gram_solve_s * 1e3 << "\n";
  out << "  },\n";
  out << "  \"tron_gram_over_cg\": " << tron_gram_over_cg << "\n";
  out << "}\n";
  out.close();

  std::cout << "kernel gate: tron_gram_over_cg=" << tron_gram_over_cg;
  for (const auto& k : rows) {
    std::cout << " " << k.name << "=" << k.ratio();
  }
  std::cout << " -> " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string kernels_out;
  bool quick = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernels-out" && i + 1 < argc) {
      kernels_out = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!kernels_out.empty()) {
    return RunKernelGate(kernels_out, quick);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
