// Tests for the collectives: correctness of every allreduce algorithm and
// the communication-cost properties the paper derives in Section 4.2
// (eq. 11-16). Layouts used:
//   uniform   — every worker has q nonzeros in every block (same indices
//               across workers), so block sizes never change during a reduce;
//   own       — worker i's nonzeros lie only in block i (PSR best case:
//               T_psr-sr = 0);
//   hot       — all workers share the same q indices inside block 0
//               (paper's "concentrated" worst case with overlap);
//   disjoint  — all nonzeros in block 0 but disjoint across workers (partial
//               sums grow while circulating: Ring's true worst case).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>

#include "comm/collective.hpp"
#include "comm/group.hpp"
#include "comm/hierarchical.hpp"
#include "comm/intranode.hpp"
#include "simnet/fault.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::comm {
namespace {

using linalg::DenseVector;
using linalg::SparseVector;
using simnet::Link;
using simnet::Rank;
using simnet::Topology;
using simnet::VirtualTime;

/// One worker per node -> every pair is inter-node; theta_s == 1 exactly.
struct Fixture {
  explicit Fixture(std::uint32_t n)
      : topo(n, 1), cost(MakeConfig()), group(MakeGroup(n)) {}

  static simnet::CostModelConfig MakeConfig() {
    simnet::CostModelConfig cfg;
    cfg.net_bandwidth_bytes_per_s = 16.0;  // theta_s = (8+8)/16 = 1 s/elem
    cfg.bus_bandwidth_bytes_per_s = 160.0;
    cfg.net_latency_s = 0.0;
    cfg.bus_latency_s = 0.0;
    return cfg;
  }

  GroupComm MakeGroup(std::uint32_t n) {
    std::vector<Rank> members(n);
    for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
    return GroupComm(&topo, &cost, members);
  }

  Topology topo;
  simnet::CostModel cost;
  GroupComm group;
};

std::vector<VirtualTime> ZeroStarts(std::size_t n) {
  return std::vector<VirtualTime>(n, 0.0);
}

// Block b of worker i spans [dim*b/N, dim*(b+1)/N). Layout builders place q
// nonzeros per described region; dim = N * block elements.
std::vector<SparseVector> UniformLayout(std::uint32_t n, std::uint64_t block,
                                        std::uint32_t q) {
  const std::uint64_t dim = static_cast<std::uint64_t>(n) * block;
  std::vector<SparseVector> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<SparseVector::Index> idx;
    std::vector<double> val;
    for (std::uint32_t b = 0; b < n; ++b) {
      for (std::uint32_t k = 0; k < q; ++k) {
        idx.push_back(static_cast<std::uint64_t>(b) * block + k);
        val.push_back(1.0 + i);
      }
    }
    out.emplace_back(dim, std::move(idx), std::move(val));
  }
  return out;
}

std::vector<SparseVector> OwnBlockLayout(std::uint32_t n, std::uint64_t block,
                                         std::uint32_t q) {
  const std::uint64_t dim = static_cast<std::uint64_t>(n) * block;
  std::vector<SparseVector> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<SparseVector::Index> idx;
    std::vector<double> val;
    for (std::uint32_t k = 0; k < q; ++k) {
      idx.push_back(static_cast<std::uint64_t>(i) * block + k);
      val.push_back(2.0);
    }
    out.emplace_back(dim, std::move(idx), std::move(val));
  }
  return out;
}

std::vector<SparseVector> HotBlockLayout(std::uint32_t n, std::uint64_t block,
                                         std::uint32_t q) {
  const std::uint64_t dim = static_cast<std::uint64_t>(n) * block;
  std::vector<SparseVector> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<SparseVector::Index> idx;
    std::vector<double> val;
    for (std::uint32_t k = 0; k < q; ++k) {
      idx.push_back(k);  // same q indices in block 0 for everyone
      val.push_back(1.0);
    }
    out.emplace_back(dim, std::move(idx), std::move(val));
  }
  return out;
}

std::vector<SparseVector> DisjointBlockLayout(std::uint32_t n,
                                              std::uint64_t block,
                                              std::uint32_t q) {
  const std::uint64_t dim = static_cast<std::uint64_t>(n) * block;
  std::vector<SparseVector> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<SparseVector::Index> idx;
    std::vector<double> val;
    for (std::uint32_t k = 0; k < q; ++k) {
      idx.push_back(static_cast<std::uint64_t>(i) * q + k);  // in block 0
      val.push_back(1.0);
    }
    out.emplace_back(dim, std::move(idx), std::move(val));
  }
  return out;
}

DenseVector SumDense(const std::vector<DenseVector>& inputs) {
  DenseVector sum(inputs[0].size(), 0.0);
  for (const auto& v : inputs) linalg::Axpy(1.0, v, sum);
  return sum;
}

/// One collective on a fresh scratch: returns its stats and, through `sum`
/// when given, the group sum.
template <typename V>
CommStats Reduce(AllreduceKind kind, const GroupComm& group,
                 const std::vector<V>& inputs,
                 std::span<const VirtualTime> starts, V* sum = nullptr) {
  AllreduceScratch scratch;
  V out;
  CommStats stats;
  if constexpr (std::is_same_v<V, SparseVector>) {
    MakeAllreduce(kind)->ReduceSparse(group, inputs, starts, scratch, out,
                                      stats);
  } else {
    MakeAllreduce(kind)->ReduceDense(group, inputs, starts, scratch, out,
                                     stats);
  }
  if (sum != nullptr) *sum = std::move(out);
  return stats;
}

// ------------------------------------------------------------ GroupComm ----

TEST(GroupComm, RankMappingAndBlocks) {
  Fixture f(4);
  EXPECT_EQ(f.group.size(), 4u);
  EXPECT_EQ(f.group.GlobalRank(2), 2u);
  EXPECT_EQ(f.group.LocalRank(3), 3u);
  EXPECT_FALSE(f.group.Contains(99));
  const auto [lo, hi] = f.group.BlockRange(10, 1);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 5u);
}

TEST(GroupComm, RejectsDuplicatesAndStrangers) {
  Fixture f(4);
  EXPECT_THROW(GroupComm(&f.topo, &f.cost, {0, 0}), InvalidArgument);
  EXPECT_THROW(GroupComm(&f.topo, &f.cost, {9}), InvalidArgument);
  EXPECT_THROW(f.group.LocalRank(7), InvalidArgument);
}

TEST(GroupComm, SubsetGroupUsesGlobalRanks) {
  const Topology topo(4, 2);
  const simnet::CostModel cost;
  const GroupComm g(&topo, &cost, {1, 6, 0});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.GlobalRank(1), 6u);
  EXPECT_EQ(g.LinkBetween(0, 2), Link::kIntraNode);  // ranks 1 and 0: node 0
  EXPECT_EQ(g.LinkBetween(0, 1), Link::kInterNode);  // ranks 1 and 6
}

// --------------------------------------------------- correctness (all) ----

class AllreduceCorrectness
    : public ::testing::TestWithParam<std::tuple<AllreduceKind, int>> {};

TEST_P(AllreduceCorrectness, DenseOutputsEqualSum) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));

  Rng rng(static_cast<std::uint64_t>(n) * 7 + 1);
  std::vector<DenseVector> inputs(n);
  for (auto& v : inputs) {
    v.resize(23);
    for (auto& e : v) e = rng.NextGaussian();
  }
  const auto expected = SumDense(inputs);

  DenseVector out;
  const auto stats = Reduce(kind, f.group, inputs, ZeroStarts(n), &out);
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-12);
  }
  ASSERT_EQ(stats.finish_times.size(), static_cast<std::size_t>(n));
  for (auto ft : stats.finish_times) EXPECT_GE(ft, 0.0);
  EXPECT_GE(stats.all_done, stats.scatter_reduce_done);
}

TEST_P(AllreduceCorrectness, SparseOutputsEqualSum) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));

  Rng rng(static_cast<std::uint64_t>(n) * 13 + 2);
  const std::uint64_t dim = 40;
  std::vector<SparseVector> inputs;
  DenseVector expected(dim, 0.0);
  for (int i = 0; i < n; ++i) {
    DenseVector d(dim, 0.0);
    for (auto& e : d) {
      if (rng.NextBool(0.3)) e = rng.NextGaussian();
    }
    linalg::Axpy(1.0, d, expected);
    inputs.push_back(SparseVector::FromDense(d));
  }

  SparseVector out;
  Reduce(kind, f.group, inputs, ZeroStarts(n), &out);
  const auto dense = out.ToDense();
  ASSERT_EQ(dense.size(), dim);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(dense[i], expected[i], 1e-12);
  }
}

TEST_P(AllreduceCorrectness, RespectsStartTimes) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));
  std::vector<DenseVector> inputs(n, DenseVector(8, 1.0));
  std::vector<VirtualTime> starts(n, 0.0);
  starts[0] = 100.0;  // one late worker delays everyone's completion
  const auto stats = Reduce(kind, f.group, inputs, starts);
  if (n > 1) {
    EXPECT_GE(stats.all_done, 100.0);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(stats.finish_times[i], starts[i]);
  }
}

// A scratch and output buffers that already served other shapes (the
// engine's steady-state pattern) must reproduce a fresh call's sum and stats
// bitwise. The names recall the allocating RunDense/RunSparse entry points
// these once compared against; a call on a fresh scratch takes their place.
TEST_P(AllreduceCorrectness, ReduceDenseMatchesRunDense) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));
  const auto alg = MakeAllreduce(kind);

  Rng rng(static_cast<std::uint64_t>(n) * 19 + 3);
  std::vector<DenseVector> inputs(n);
  for (auto& v : inputs) {
    v.resize(23);
    for (auto& e : v) e = rng.NextGaussian();
  }
  const auto starts = ZeroStarts(n);
  DenseVector want;
  const auto want_stats = Reduce(kind, f.group, inputs, starts, &want);

  AllreduceScratch scratch;
  DenseVector sum;
  CommStats stats;
  const Fixture other(9);
  const std::vector<DenseVector> wide(9, DenseVector(41, -1.5));
  alg->ReduceDense(other.group, wide, ZeroStarts(9), scratch, sum, stats);
  for (int pass = 0; pass < 2; ++pass) {  // second pass reuses warm buffers
    alg->ReduceDense(f.group, inputs, starts, scratch, sum, stats);
    EXPECT_EQ(sum, want);
    EXPECT_EQ(stats, want_stats);
  }
}

TEST_P(AllreduceCorrectness, ReduceSparseMatchesRunSparse) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));
  const auto alg = MakeAllreduce(kind);

  Rng rng(static_cast<std::uint64_t>(n) * 23 + 5);
  const std::uint64_t dim = 40;
  std::vector<SparseVector> inputs;
  for (int i = 0; i < n; ++i) {
    DenseVector d(dim, 0.0);
    for (auto& e : d) {
      if (rng.NextBool(0.3)) e = rng.NextGaussian();
    }
    inputs.push_back(SparseVector::FromDense(d));
  }
  const auto starts = ZeroStarts(n);
  SparseVector want;
  const auto want_stats = Reduce(kind, f.group, inputs, starts, &want);

  AllreduceScratch scratch;
  SparseVector sum;
  CommStats stats;
  const Fixture other(9);
  const std::vector<SparseVector> wide(
      9, SparseVector(77, {0, 5, 76}, {1.0, -2.0, 3.0}));
  alg->ReduceSparse(other.group, wide, ZeroStarts(9), scratch, sum, stats);
  for (int pass = 0; pass < 2; ++pass) {
    alg->ReduceSparse(f.group, inputs, starts, scratch, sum, stats);
    EXPECT_EQ(sum, want);
    EXPECT_EQ(stats, want_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, AllreduceCorrectness,
    ::testing::Combine(::testing::Values(AllreduceKind::kNaive,
                                         AllreduceKind::kRing,
                                         AllreduceKind::kPsr),
                       ::testing::Values(1, 2, 3, 5, 8, 16)));

// ------------------------------------------------ paper cost analysis ----

// theta_s == 1, latency == 0 in the fixture, so spans are exact element
// counts. q nonzeros per worker-block; c per worker as noted.

TEST(CostAnalysis, UniformLayoutBothAlgorithmsHitBestCase) {
  // c = N*q per worker; best case T = 2 c theta (N-1)/N = 2 q (N-1).
  const std::uint32_t n = 4, q = 5;
  Fixture f(n);
  const auto inputs = UniformLayout(n, 16, q);
  const double best = 2.0 * q * (n - 1);

  const auto ring = Reduce(AllreduceKind::kRing, f.group, inputs, ZeroStarts(n));
  const auto psr = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.all_done, best, 1e-9);
  EXPECT_NEAR(psr.all_done, best, 1e-9);
}

TEST(CostAnalysis, OwnBlockLayoutGivesPsrZeroScatterCost) {
  // Paper eq. 14 best case: every worker's nonzeros are in its own block.
  // Allgather: every owner serializes its block to n-1 peers. At q = 4 of 8
  // (half fill, a tie) the block stays sparse, q elements at theta_s = 1;
  // at q = 6 it travels dense, 8 values at theta_d = 0.5.
  const std::uint32_t n = 4, block = 8;
  Fixture f(n);
  for (const auto& [q, per_send] : {std::pair{4u, 4.0}, std::pair{6u, 4.0}}) {
    SCOPED_TRACE(q);
    const auto inputs = OwnBlockLayout(n, block, q);
    const auto psr =
        Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));
    EXPECT_NEAR(psr.scatter_reduce_done, 0.0, 1e-12);
    EXPECT_NEAR(psr.all_done, per_send * (n - 1), 1e-9);
    EXPECT_EQ(psr.elements_sent, (q == 4 ? q : block) * n * (n - 1));
  }
}

TEST(CostAnalysis, HotBlockLayoutMatchesPaperWorstCaseBound) {
  // Overlapping concentration: c = q. Paper eq. 16 upper bound: c*N*theta.
  const std::uint32_t n = 5, q = 8;
  Fixture f(n);
  const auto inputs = HotBlockLayout(n, 16, q);

  const auto psr = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(psr.all_done, static_cast<double>(q) * n, 1e-9);

  const auto ring = Reduce(AllreduceKind::kRing, f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.all_done, 2.0 * q * (n - 1), 1e-9);

  // PSR beats Ring whenever N > 2 (paper's conclusion).
  EXPECT_LT(psr.all_done, ring.all_done);
}

TEST(CostAnalysis, DisjointBlockLayoutIsRingsWorstCase) {
  // Disjoint concentration: partial sums grow as they circulate.
  // Ring scatter-reduce: q * N(N-1)/2; allgather: (N-1) hops of the N*q
  // entry block. With the block twice that wide the reduced block sits at
  // half fill, a tie, so it stays sparse: allgather q * N(N-1), total
  // 1.5 * q * N * (N-1) — paper eq. 13's upper bound with c = q.
  const std::uint32_t n = 4, q = 3;
  Fixture f(n);
  const double nq = static_cast<double>(n) * q;
  {
    const auto inputs = DisjointBlockLayout(n, 2 * n * q, q);
    const auto ring =
        Reduce(AllreduceKind::kRing, f.group, inputs, ZeroStarts(n));
    EXPECT_NEAR(ring.all_done, 1.5 * q * n * (n - 1), 1e-9);
    const auto psr = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));
    // PSR: scatter q (parallel direct sends), allgather (n-1) * N*q
    // serialized.
    EXPECT_NEAR(psr.all_done, q + (n - 1) * nq, 1e-9);
    EXPECT_LT(psr.all_done, ring.all_done);
  }
  // With the block exactly N*q wide the reduced block is full, so the
  // allgather ships it dense: N*q values at theta_d = 0.5 per hop. The
  // scatter-reduce phases stay sparse and keep their cost.
  const auto inputs = DisjointBlockLayout(n, n * q, q);
  const auto ring = Reduce(AllreduceKind::kRing, f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.all_done, q * n * (n - 1) / 2.0 + (n - 1) * nq * 0.5,
              1e-9);
  const auto psr = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(psr.all_done, q + (n - 1) * nq * 0.5, 1e-9);
  EXPECT_LT(psr.all_done, ring.all_done);
}

TEST(CostAnalysis, DensePsrAndRingAreEquivalent) {
  // With dense payloads every block is d/N values; the paper's advantage is
  // sparse-only. Both algorithms: span = 2 (N-1) * (d/N) * theta_d.
  const std::uint32_t n = 4;
  Fixture f(n);
  const std::size_t dim = 32;
  std::vector<DenseVector> inputs(n, DenseVector(dim, 1.0));
  const double theta_d = 0.5;  // 8 bytes / 16 B/s
  const double expect = 2.0 * (n - 1) * (dim / n) * theta_d;

  const auto ring = Reduce(AllreduceKind::kRing, f.group, inputs, ZeroStarts(n));
  const auto psr = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.all_done, expect, 1e-9);
  EXPECT_NEAR(psr.all_done, expect, 1e-9);
}

/// Property sweep: for random sparse inputs with exactly c nonzeros per
/// worker, both algorithms respect the paper's bound structure and PSR never
/// loses to Ring by more than rounding.
class CostBoundsProperty : public ::testing::TestWithParam<int> {};

TEST_P(CostBoundsProperty, PaperBoundsHold) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 31);
  const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.NextBelow(7));
  const std::uint64_t dim = n * (8 + rng.NextBelow(8));
  const std::size_t c = 4 + static_cast<std::size_t>(rng.NextBelow(12));
  Fixture f(n);

  std::vector<SparseVector> inputs;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto picks = rng.SampleWithoutReplacement(dim, c);
    std::vector<SparseVector::Index> idx(picks.begin(), picks.end());
    std::vector<double> val(c, 1.0);
    inputs.emplace_back(dim, std::move(idx), std::move(val));
  }

  const auto ring = Reduce(AllreduceKind::kRing, f.group, inputs, ZeroStarts(n));
  const auto psr = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(n));

  const double cd = static_cast<double>(c);
  // eq. 13: 2c(N-1)/N <= T_ring <= 1.5cN(N-1)
  EXPECT_GE(ring.all_done, 2.0 * cd * (n - 1) / n - 1e-9);
  EXPECT_LE(ring.all_done, 1.5 * cd * n * (n - 1) + 1e-9);
  // eq. 16 lower bound also applies to PSR, and PSR always stays within
  // Ring's worst-case envelope (the paper's headline comparison).
  EXPECT_GE(psr.all_done, 2.0 * cd * (n - 1) / n - 1e-9);
  EXPECT_LE(psr.all_done, 1.5 * cd * n * (n - 1) + 1e-9);

  // Both moved every element at least once.
  EXPECT_GT(ring.elements_sent, 0u);
  EXPECT_GT(psr.elements_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostBoundsProperty, ::testing::Range(0, 20));

TEST(CostAnalysis, NaiveSerializesThroughRoot) {
  const std::uint32_t n = 4;
  Fixture f(n);
  std::vector<DenseVector> inputs(n, DenseVector(10, 1.0));
  const auto res = Reduce(AllreduceKind::kNaive, f.group, inputs, ZeroStarts(n));
  const double theta_d = 0.5;
  // Gather: parallel 10-elem sends (5 s). Broadcast: 3 serialized sends.
  EXPECT_NEAR(res.scatter_reduce_done, 10 * theta_d, 1e-9);
  EXPECT_NEAR(res.all_done, 10 * theta_d + 3 * 10 * theta_d, 1e-9);
}

TEST(CostAnalysis, SingleMemberIsFree) {
  Fixture f(1);
  std::vector<DenseVector> inputs(1, DenseVector(10, 2.0));
  for (auto kind : {AllreduceKind::kNaive, AllreduceKind::kRing,
                    AllreduceKind::kPsr}) {
    const std::vector<VirtualTime> starts{5.0};
    DenseVector sum;
    const auto res = Reduce(kind, f.group, inputs, starts, &sum);
    EXPECT_DOUBLE_EQ(res.all_done, 5.0) << MakeAllreduce(kind)->Name();
    EXPECT_EQ(res.elements_sent, 0u);
    EXPECT_EQ(sum, inputs[0]);
  }
}

/// Property: with randomized start times every algorithm still produces the
/// correct sum, nobody finishes before their own start, and completion is
/// gated by the latest participant.
class RandomStartProperty
    : public ::testing::TestWithParam<std::tuple<AllreduceKind, int>> {};

TEST_P(RandomStartProperty, CorrectAndCausal) {
  const auto [kind, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 501);
  const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.NextBelow(9));
  Fixture f(n);

  const std::uint64_t dim = 30;
  std::vector<DenseVector> inputs(n);
  std::vector<VirtualTime> starts(n);
  DenseVector expected(dim, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    inputs[i].resize(dim);
    for (auto& e : inputs[i]) e = rng.NextGaussian();
    linalg::Axpy(1.0, inputs[i], expected);
    starts[i] = rng.NextDouble(0.0, 50.0);
  }

  DenseVector sum;
  const auto res = Reduce(kind, f.group, inputs, starts, &sum);
  const double max_start = *std::max_element(starts.begin(), starts.end());
  EXPECT_GE(res.all_done, max_start);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_GE(res.finish_times[i], starts[i]);
  }
  for (std::size_t k = 0; k < dim; ++k) {
    EXPECT_NEAR(sum[k], expected[k], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, RandomStartProperty,
    ::testing::Combine(::testing::Values(AllreduceKind::kNaive,
                                         AllreduceKind::kRing,
                                         AllreduceKind::kPsr),
                       ::testing::Range(0, 6)));

TEST(Collective, InputValidation) {
  Fixture f(3);
  std::vector<DenseVector> two(2, DenseVector(4, 1.0));
  EXPECT_THROW(Reduce(AllreduceKind::kRing, f.group, two, ZeroStarts(3)),
               InvalidArgument);
  std::vector<DenseVector> ragged{DenseVector(4, 1.0), DenseVector(5, 1.0),
                                  DenseVector(4, 1.0)};
  EXPECT_THROW(Reduce(AllreduceKind::kRing, f.group, ragged, ZeroStarts(3)),
               InvalidArgument);
  EXPECT_THROW(MakeAllreduce("bogus"), InvalidArgument);
  EXPECT_EQ(MakeAllreduce("PSR")->kind(), AllreduceKind::kPsr);
  // Only the schedule-backed algorithms (naive, ring, psr) have names.
  EXPECT_THROW(MakeAllreduce("tree"), InvalidArgument);
}

// ------------------------------------------------------------ intranode ----

TEST(IntraNode, ReduceToLeaderSumsAndTimes) {
  const Topology topo(1, 4);
  simnet::CostModelConfig cfg = Fixture::MakeConfig();
  const simnet::CostModel cost(cfg);
  const GroupComm g(&topo, &cost, {0, 1, 2, 3});

  std::vector<DenseVector> inputs(4, DenseVector(16, 1.0));
  ReduceResult res;
  ReduceToLeader(g, 0, inputs, ZeroStarts(4), res);
  EXPECT_EQ(res.value, DenseVector(16, 4.0));
  // Bus theta_d = 8/160 = 0.05; three parallel 16-element sends.
  EXPECT_NEAR(res.leader_ready, 16 * 0.05, 1e-9);
  EXPECT_EQ(res.messages_sent, 3u);
}

TEST(IntraNode, BroadcastSerializesFromLeader) {
  const Topology topo(1, 3);
  const simnet::CostModel cost(Fixture::MakeConfig());
  const GroupComm g(&topo, &cost, {0, 1, 2});
  BroadcastResult res;
  BroadcastFromLeader(g, 0, 16, 10.0, res);
  const double t = 16 * 0.05;
  EXPECT_NEAR(res.finish_times[1], 10.0 + t, 1e-9);
  EXPECT_NEAR(res.finish_times[2], 10.0 + 2 * t, 1e-9);
  EXPECT_NEAR(res.finish_times[0], 10.0 + 2 * t, 1e-9);
}

TEST(IntraNode, LeaderStartGatesReduce) {
  const Topology topo(1, 2);
  const simnet::CostModel cost(Fixture::MakeConfig());
  const GroupComm g(&topo, &cost, {0, 1});
  std::vector<DenseVector> inputs(2, DenseVector(4, 1.0));
  std::vector<VirtualTime> starts{50.0, 0.0};
  ReduceResult res;
  ReduceToLeader(g, 0, inputs, starts, res);
  EXPECT_GE(res.leader_ready, 50.0);
}

TEST(IntraNode, SparseReducePricesEachMemberByTheRule) {
  // Bus theta_d = 8/160 = 0.05, theta_s = 0.1. Member 1 holds 4 of 16
  // entries (below half fill: 4 sparse elements, 0.4 s), member 2 holds 12
  // (above: 16 dense values, 0.8 s). The sum is the dense reduce's, bitwise.
  const Topology topo(1, 3);
  const simnet::CostModel cost(Fixture::MakeConfig());
  const GroupComm g(&topo, &cost, {0, 1, 2});
  std::vector<DenseVector> inputs(3, DenseVector(16, 0.0));
  for (std::size_t k = 0; k < 16; ++k) inputs[0][k] = 0.5;
  for (std::size_t k = 0; k < 4; ++k) inputs[1][3 * k] = 1.0 + k;
  for (std::size_t k = 0; k < 12; ++k) inputs[2][k] = -2.0 - k;
  ReduceResult dense, sparse;
  ReduceToLeader(g, 0, inputs, ZeroStarts(3), dense);
  ReduceToLeader(g, 0, inputs, ZeroStarts(3), sparse, /*sparse=*/true);
  EXPECT_EQ(sparse.value, dense.value);
  EXPECT_NEAR(sparse.finish_times[1], 4 * 0.1, 1e-12);
  EXPECT_NEAR(sparse.finish_times[2], 16 * 0.05, 1e-12);
  EXPECT_NEAR(sparse.leader_ready, 16 * 0.05, 1e-12);
  EXPECT_EQ(sparse.elements_sent, 4u + 16u);
  EXPECT_EQ(sparse.messages_sent, 2u);
  EXPECT_EQ(sparse.bytes_sent, 4u * 16u + 16u * 8u);
  // Without sparse comm both members ship 16 dense values.
  EXPECT_NEAR(dense.finish_times[1], 16 * 0.05, 1e-12);
  EXPECT_EQ(dense.bytes_sent, 2u * 16u * 8u);
}

TEST(IntraNode, SparseBroadcastTakesTheCheaperEncoding) {
  const Topology topo(1, 3);
  const simnet::CostModel cost(Fixture::MakeConfig());
  const GroupComm g(&topo, &cost, {0, 1, 2});
  BroadcastResult res;
  // 7 of 16 entries: sparse, 7 * theta_s = 0.7 s per message.
  BroadcastFromLeader(g, 0, 16, 10.0, res, 7);
  EXPECT_NEAR(res.finish_times[2], 10.0 + 2 * 7 * 0.1, 1e-9);
  EXPECT_EQ(res.elements_sent, 2u * 7u);
  EXPECT_EQ(res.bytes_sent, 2u * 7u * 16u);
  // 9 of 16: dense, 16 * theta_d = 0.8 s per message.
  BroadcastFromLeader(g, 0, 16, 10.0, res, 9);
  EXPECT_NEAR(res.finish_times[2], 10.0 + 2 * 16 * 0.05, 1e-9);
  EXPECT_EQ(res.elements_sent, 2u * 16u);
  EXPECT_EQ(res.bytes_sent, 2u * 16u * 8u);
}

// ------------------------------------------------------- encoding rule ----

TEST(EncodingRule, BreakEvenIsHalfFillInFp64AndAThirdInMixedPrecision) {
  const ElemPricing fp64;  // 8-byte values, 8-byte indices
  EXPECT_EQ(fp64.Cheaper(49, 100), (Encoding{true, 49}));
  EXPECT_EQ(fp64.Cheaper(50, 100), (Encoding{true, 50}));  // a tie stays
  EXPECT_EQ(fp64.Cheaper(51, 100), (Encoding{false, 100}));
  EXPECT_EQ(fp64.Cheaper(0, 0), (Encoding{true, 0}));
  const ElemPricing mixed{4, 8};  // fp32 values on inter-node links
  EXPECT_EQ(mixed.Cheaper(32, 99), (Encoding{true, 32}));
  EXPECT_EQ(mixed.Cheaper(33, 99), (Encoding{true, 33}));  // 396 == 396
  EXPECT_EQ(mixed.Cheaper(34, 99), (Encoding{false, 99}));

  // The simulator applies it: a PSR allgather block of 2 entries over 5
  // coordinates (40% fill) stays sparse in fp64 and goes dense with 4-byte
  // values. Rank 0 holds the entries, rank 1 nothing.
  const std::vector<SparseVector> inputs{SparseVector(10, {1, 3}, {1.0, 2.0}),
                                         SparseVector(10, {}, {})};
  Fixture f(2);
  const auto full = Reduce(AllreduceKind::kPsr, f.group, inputs, ZeroStarts(2));
  EXPECT_EQ(full.elements_sent, 2u);
  EXPECT_EQ(full.bytes_sent, 2u * 16u);
  simnet::CostModelConfig cfg = Fixture::MakeConfig();
  cfg.value_bytes = 4;
  const simnet::CostModel cost(cfg);
  const GroupComm mixed_group(&f.topo, &cost, {0, 1});
  const auto half =
      Reduce(AllreduceKind::kPsr, mixed_group, inputs, ZeroStarts(2));
  EXPECT_EQ(half.elements_sent, 5u);
  EXPECT_EQ(half.bytes_sent, 5u * 4u);
}

// --------------------------------------------- charged bytes vs time ----
// Every message is charged time for the bytes it books: with link
// bandwidth B and latency L, bytes = (transfer time - L) * B. Bandwidths
// and latencies are powers of two, so the identities hold exactly.

simnet::CostModelConfig ChargeConfig() {
  simnet::CostModelConfig cfg;
  cfg.net_bandwidth_bytes_per_s = 16.0;
  cfg.net_latency_s = 0.25;
  cfg.bus_bandwidth_bytes_per_s = 128.0;
  cfg.bus_latency_s = 0.125;
  cfg.rack_bandwidth_bytes_per_s = 8.0;
  cfg.rack_latency_s = 0.5;
  return cfg;
}

/// Two members, each with `q` entries at offsets 0..q-1 of both 4-wide
/// blocks, so every phase's two sends (one for naive) match in size.
std::vector<SparseVector> MirroredInputs(std::uint32_t q) {
  std::vector<SparseVector> out;
  for (int i = 0; i < 2; ++i) {
    std::vector<SparseVector::Index> idx;
    std::vector<double> val;
    for (std::uint64_t b = 0; b < 2; ++b) {
      for (std::uint64_t k = 0; k < q; ++k) {
        idx.push_back(4 * b + k);
        val.push_back(1.0 + i);
      }
    }
    out.emplace_back(8, std::move(idx), std::move(val));
  }
  return out;
}

TEST(ChargedBytes, ScheduleSendsInEveryPhase) {
  const Topology topo(2, 1);
  const simnet::CostModel cost(ChargeConfig());
  const GroupComm g(&topo, &cost, {0, 1});
  for (const auto kind : {AllreduceKind::kPsr, AllreduceKind::kRing,
                          AllreduceKind::kNaive}) {
    // psr and ring send once per member per phase, in parallel; naive sends
    // once per phase.
    const double senders = kind == AllreduceKind::kNaive ? 1.0 : 2.0;
    auto check = [&](const CommStats& st, const char* what) {
      SCOPED_TRACE(std::string(MakeAllreduce(kind)->Name()) + " " + what);
      EXPECT_EQ((st.all_done - 0.25 * static_cast<double>(st.rounds)) * 16.0 *
                    senders,
                static_cast<double>(st.bytes_sent));
    };
    // Below half fill every send stays sparse; at 3 of 4 the store phase
    // ships the reduced blocks dense; dense payloads are dense throughout.
    check(Reduce(kind, g, MirroredInputs(1), ZeroStarts(2)), "sparse 1/4");
    check(Reduce(kind, g, MirroredInputs(3), ZeroStarts(2)), "sparse 3/4");
    const std::vector<DenseVector> dense(2, DenseVector(8, 1.0));
    check(Reduce(kind, g, dense, ZeroStarts(2)), "dense");
  }
}

TEST(ChargedBytes, IntraNodeReduceAndBroadcast) {
  const Topology topo(1, 4);
  const simnet::CostModel cost(ChargeConfig());
  const GroupComm g(&topo, &cost, {0, 1, 2, 3});
  // Member 1 is full (dense send), member 2 holds one entry (sparse) and
  // member 3 none (an empty sparse send, latency only).
  std::vector<DenseVector> inputs(4, DenseVector(16, 0.0));
  for (std::size_t k = 0; k < 16; ++k) inputs[1][k] = 1.0;
  inputs[2][5] = 2.0;
  const std::vector<VirtualTime> starts{0.0, 1.0, 2.0, 3.0};
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    ReduceResult red;
    ReduceToLeader(g, 0, inputs, starts, red, sparse);
    double charged = 0.0;
    for (GroupRank m = 1; m < 4; ++m) {
      charged += (red.finish_times[m] - starts[m] - 0.125) * 128.0;
    }
    EXPECT_EQ(charged, static_cast<double>(red.bytes_sent));
    for (const std::optional<std::size_t> nnz :
         {std::optional<std::size_t>(), std::optional<std::size_t>(3),
          std::optional<std::size_t>(12)}) {
      BroadcastResult bc;
      BroadcastFromLeader(g, 0, 16, 1.0, bc, nnz);
      EXPECT_EQ((bc.finish_times[0] - 1.0 - 3 * 0.125) * 128.0,
                static_cast<double>(bc.bytes_sent));
    }
  }
}

TEST(ChargedBytes, RackRedistribution) {
  // 2 racks of 2 nodes: each rack leader sends the global sum to its one
  // peer after the root stage. The test replays the rack and root stages to
  // find when the leader starts sending.
  const Topology topo(4, 1, 2);
  const simnet::CostModel cost(ChargeConfig());
  const std::vector<Rank> members{0, 1, 2, 3};
  MultiLevelAllreduce ml(&topo, &cost, members);
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  for (const std::uint32_t q : {1u, 6u}) {  // 2 or 6 of 8 entries in the sum
    SCOPED_TRACE(q);
    std::vector<SparseVector> inputs;
    for (int i = 0; i < 4; ++i) {
      std::vector<SparseVector::Index> idx;
      std::vector<double> val;
      for (std::uint64_t k = 0; k < q; ++k) {
        idx.push_back(k);
        val.push_back(1.0);
      }
      inputs.emplace_back(8, std::move(idx), std::move(val));
    }
    const auto starts = ZeroStarts(4);
    AllreduceScratch scratch;
    SparseVector sum;
    CommStats stats;
    ml.ReduceSparse(*alg, inputs, starts, scratch, sum, stats);

    std::vector<SparseVector> rack_sums(2);
    std::vector<VirtualTime> root_starts(2);
    CommStats st;
    for (int r = 0; r < 2; ++r) {
      const GroupComm rack(&topo, &cost, {members[2 * r], members[2 * r + 1]});
      alg->ReduceSparse(rack,
                        std::span<const SparseVector>(inputs).subspan(2 * r, 2),
                        std::span<const VirtualTime>(starts).subspan(2 * r, 2),
                        scratch, rack_sums[r], st);
      root_starts[r] = st.finish_times[0];
    }
    const GroupComm root(&topo, &cost, {0, 2});
    SparseVector root_sum;
    alg->ReduceSparse(root, rack_sums, root_starts, scratch, root_sum, st);
    EXPECT_EQ(root_sum, sum);
    for (int r = 0; r < 2; ++r) {
      const double sent = stats.finish_times[2 * r] - st.finish_times[r];
      EXPECT_EQ((sent - 0.25) * 16.0,
                static_cast<double>(ml.redistribution_bytes()) / 2.0);
    }
    const Encoding e = ElemPricing{}.Cheaper(q, 8);
    EXPECT_EQ(ml.redistribution_bytes(),
              2 * e.elements * (e.sparse ? 16u : 8u));
  }
}

// ------------------------------------------------ fault-tolerant reduce ----

std::vector<DenseVector> RampInputs(std::size_t n, std::size_t dim) {
  std::vector<DenseVector> inputs(n, DenseVector(dim, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < dim; ++k) {
      inputs[i][k] = static_cast<double>(i + 1) + 0.25 * static_cast<double>(k);
    }
  }
  return inputs;
}

TEST(FaultyReduce, NullOrEmptyPlanIsExactlyThePlainPath) {
  const Fixture f(4);
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  const auto inputs = RampInputs(4, 6);
  const auto starts = ZeroStarts(4);

  AllreduceScratch scratch;
  DenseVector plain_sum;
  CommStats plain_stats;
  alg->ReduceDense(f.group, inputs, starts, scratch, plain_sum, plain_stats);

  FaultContext fc;  // null plan
  DenseVector sum;
  CommStats stats;
  alg->ReduceDense(f.group, inputs, starts, scratch, sum, stats, &fc);
  EXPECT_EQ(sum, plain_sum);
  EXPECT_EQ(stats, plain_stats);
  EXPECT_TRUE(fc.excluded.empty());
  EXPECT_EQ(fc.dropped_messages, 0u);

  const simnet::FaultPlan empty_plan;  // empty plan behaves the same
  fc.plan = &empty_plan;
  alg->ReduceDense(f.group, inputs, starts, scratch, sum, stats, &fc);
  EXPECT_EQ(sum, plain_sum);
  EXPECT_EQ(stats, plain_stats);
}

TEST(FaultyReduce, ResolvedDropsKeepTheSumAndDelayTheFinish) {
  const Fixture f(4);
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  const auto inputs = RampInputs(4, 6);
  const auto starts = ZeroStarts(4);

  AllreduceScratch scratch;
  DenseVector plain_sum;
  CommStats plain_stats;
  alg->ReduceDense(f.group, inputs, starts, scratch, plain_sum, plain_stats);

  simnet::FaultConfig cfg;
  cfg.message_drop_probability = 0.4;
  cfg.max_retries = 32;  // effectively always resolves
  cfg.retry_timeout_s = 1.0;
  const simnet::FaultPlan plan(cfg);
  FaultContext fc;
  fc.plan = &plan;
  fc.iteration = 1;

  // Scan iterations until one actually draws a drop on channel 0.
  DenseVector sum;
  CommStats stats;
  bool saw_drop = false;
  for (std::uint64_t it = 1; it <= 32 && !saw_drop; ++it) {
    fc.iteration = it;
    fc.channel = 0;
    const std::size_t before = fc.dropped_messages;
    alg->ReduceDense(f.group, inputs, starts, scratch, sum, stats, &fc);
    ASSERT_TRUE(fc.excluded.empty());
    EXPECT_EQ(sum, plain_sum);  // retries leave the arithmetic untouched
    if (fc.dropped_messages > before) {
      saw_drop = true;
      // Every member observed at least one full retry timeout.
      for (GroupRank g = 0; g < f.group.size(); ++g) {
        EXPECT_GE(stats.finish_times[g],
                  plain_stats.finish_times[g] + cfg.retry_timeout_s);
      }
      EXPECT_GT(fc.retries, 0u);
    }
  }
  EXPECT_TRUE(saw_drop) << "p=0.4 never dropped in 32 iterations";
}

TEST(FaultyReduce, ExhaustedRetriesDegradeToSurvivors) {
  const Fixture f(4);
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  const auto inputs = RampInputs(4, 6);
  const auto starts = ZeroStarts(4);

  simnet::FaultConfig cfg;
  cfg.message_drop_probability = 0.6;
  cfg.max_retries = 0;  // first drop is final: degrade immediately
  cfg.retry_timeout_s = 1.0;
  const simnet::FaultPlan plan(cfg);
  FaultContext fc;
  fc.plan = &plan;

  AllreduceScratch scratch;
  DenseVector sum;
  CommStats stats;
  bool saw_exclusion = false;
  for (std::uint64_t it = 1; it <= 32 && !saw_exclusion; ++it) {
    fc.iteration = it;
    fc.channel = 0;
    alg->ReduceDense(f.group, inputs, starts, scratch, sum, stats, &fc);
    if (fc.excluded.empty() || fc.excluded.size() >= f.group.size()) continue;
    saw_exclusion = true;

    // The sum covers exactly the survivors.
    DenseVector expect(inputs[0].size(), 0.0);
    std::size_t next_ex = 0;
    for (GroupRank g = 0; g < f.group.size(); ++g) {
      if (next_ex < fc.excluded.size() && fc.excluded[next_ex] == g) {
        ++next_ex;
        // Excluded members finish at their timeout-adjusted start, and the
        // collective still reports a finish time for them.
        EXPECT_GE(stats.finish_times[g], cfg.retry_timeout_s);
        continue;
      }
      for (std::size_t k = 0; k < expect.size(); ++k) {
        expect[k] += inputs[g][k];
      }
    }
    ASSERT_EQ(sum.size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_DOUBLE_EQ(sum[k], expect[k]) << "component " << k;
    }
    EXPECT_EQ(stats.finish_times.size(), f.group.size());
  }
  EXPECT_TRUE(saw_exclusion) << "p=0.6 with no retries never excluded anyone";
}

TEST(FaultyReduce, SparseAndDenseFaultyPathsAgree) {
  const Fixture f(4);
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  const auto dense_inputs = RampInputs(4, 6);
  std::vector<SparseVector> sparse_inputs(4);
  for (std::size_t i = 0; i < 4; ++i) {
    sparse_inputs[i].AssignFromDense(dense_inputs[i]);
  }
  const auto starts = ZeroStarts(4);

  simnet::FaultConfig cfg;
  cfg.message_drop_probability = 0.5;
  cfg.max_retries = 1;
  const simnet::FaultPlan plan(cfg);

  AllreduceScratch scratch;
  for (std::uint64_t it = 1; it <= 8; ++it) {
    FaultContext fd;
    fd.plan = &plan;
    fd.iteration = it;
    DenseVector dsum;
    CommStats dstats;
    alg->ReduceDense(f.group, dense_inputs, starts, scratch, dsum, dstats,
                     &fd);

    FaultContext fs;
    fs.plan = &plan;
    fs.iteration = it;
    SparseVector ssum;
    CommStats sstats;
    alg->ReduceSparse(f.group, sparse_inputs, starts, scratch, ssum, sstats,
                      &fs);

    // Identical fault draws -> identical exclusions and identical sums.
    EXPECT_EQ(fd.excluded, fs.excluded) << "iteration " << it;
    DenseVector ssum_dense;
    ssum.ToDense(ssum_dense);
    ASSERT_EQ(ssum_dense.size(), dsum.size());
    for (std::size_t k = 0; k < dsum.size(); ++k) {
      EXPECT_DOUBLE_EQ(ssum_dense[k], dsum[k]) << "component " << k;
    }
  }
}

// --------------------------------- PSR sparse fold vs the merge chain ----

/// `v` without its +0.0 entries; -0.0 entries stay (the canonical block).
SparseVector WithoutPositiveZeros(const SparseVector& v) {
  std::vector<SparseVector::Index> idx;
  std::vector<double> val;
  for (std::size_t k = 0; k < v.nnz(); ++k) {
    if (std::bit_cast<std::uint64_t>(v.values()[k]) != 0) {
      idx.push_back(v.indices()[k]);
      val.push_back(v.values()[k]);
    }
  }
  return SparseVector(v.dim(), std::move(idx), std::move(val));
}

/// The PSR sparse reduce as a pairwise merge chain: every block starts from
/// member 0's slice and SumInto-merges the other members' slices in
/// ascending order, then drops its cancellations to +0.0. Timing follows
/// the sender-serialized PSR schedule (DESIGN.md §2); empty sparse payloads
/// are not sent, scatter slices travel sparse, and each reduced block
/// travels in the cheaper encoding for its nnz.
void ChainPsrSparse(const GroupComm& group,
                    std::span<const SparseVector> inputs,
                    std::span<const VirtualTime> starts, SparseVector& sum,
                    std::vector<std::size_t>& block_nnz, CommStats& st) {
  const GroupRank n = group.size();
  const std::uint64_t dim = inputs[0].dim();
  std::vector<SparseVector> blocks(n);
  block_nnz.assign(n, 0);
  for (GroupRank j = 0; j < n; ++j) {
    const auto [lo, hi] = group.BlockRange(dim, j);
    inputs[0].SliceInto(lo, hi, blocks[j]);
    for (GroupRank i = 1; i < n; ++i) {
      SparseVector slice, merged;
      inputs[i].SliceInto(lo, hi, slice);
      SparseVector::SumInto(blocks[j], slice, merged);
      blocks[j] = merged;
    }
    blocks[j] = WithoutPositiveZeros(blocks[j]);
    block_nnz[j] = blocks[j].nnz();
  }
  sum = SparseVector::ConcatDisjoint(blocks);

  st.Reset(n);
  if (n == 1) {
    st.finish_times[0] = st.all_done = st.scatter_reduce_done = starts[0];
    return;
  }
  const ElemPricing pr = group.pricing();
  auto send = [&](GroupRank a, GroupRank b, Encoding e, VirtualTime& clock) {
    const simnet::Link link = group.LinkBetween(a, b);
    clock += e.sparse ? group.cost_model().SparseTransferTime(link, e.elements)
                      : group.cost_model().DenseTransferTime(link, e.elements);
    st.CountSend(e.elements, pr.PerElement(e.sparse));
  };
  std::vector<VirtualTime> ready(starts.begin(), starts.end()), sr_done(n);
  for (GroupRank i = 0; i < n; ++i) {
    VirtualTime clock = starts[i];
    for (GroupRank j = 0; j < n; ++j) {
      const auto [lo, hi] = group.BlockRange(dim, j);
      const std::size_t elems = inputs[i].CountInRange(lo, hi);
      if (j == i || elems == 0) continue;
      send(i, j, Encoding{true, elems}, clock);
      ready[j] = std::max(ready[j], clock);
    }
    sr_done[i] = clock;
  }
  st.scatter_reduce_done = *std::max_element(ready.begin(), ready.end());
  std::vector<VirtualTime> arrival(n), ag_done(n);
  for (GroupRank m = 0; m < n; ++m) arrival[m] = std::max(ready[m], sr_done[m]);
  for (GroupRank j = 0; j < n; ++j) {
    VirtualTime clock = std::max(ready[j], sr_done[j]);
    const auto [lo, hi] = group.BlockRange(dim, j);
    for (GroupRank m = 0; m < n; ++m) {
      if (m == j || block_nnz[j] == 0) continue;
      send(j, m, pr.Cheaper(block_nnz[j], hi - lo), clock);
      arrival[m] = std::max(arrival[m], clock);
    }
    ag_done[j] = clock;
  }
  st.rounds = 2;
  for (GroupRank m = 0; m < n; ++m) {
    st.finish_times[m] = std::max(arrival[m], ag_done[m]);
  }
  st.all_done = *std::max_element(st.finish_times.begin(),
                                  st.finish_times.end());
}

void ExpectMatchesChain(const GroupComm& group,
                        std::span<const SparseVector> inputs,
                        std::span<const VirtualTime> starts,
                        const SparseVector& sum, const CommStats& stats) {
  SparseVector want;
  std::vector<std::size_t> want_nnz;
  CommStats want_stats;
  ChainPsrSparse(group, inputs, starts, want, want_nnz, want_stats);
  EXPECT_EQ(sum.dim(), want.dim());
  ASSERT_EQ(sum.nnz(), want.nnz());
  EXPECT_TRUE(std::equal(sum.indices().begin(), sum.indices().end(),
                         want.indices().begin()));
  EXPECT_TRUE(std::equal(sum.values().begin(), sum.values().end(),
                         want.values().begin(), [](double a, double b) {
                           return std::bit_cast<std::uint64_t>(a) ==
                                  std::bit_cast<std::uint64_t>(b);
                         }))
      << "value bits differ";
  for (GroupRank j = 0; j < group.size(); ++j) {
    const auto [lo, hi] = group.BlockRange(sum.dim(), j);
    EXPECT_EQ(sum.CountInRange(lo, hi), want_nnz[j]) << "block " << j;
  }
  EXPECT_EQ(stats, want_stats);
}

/// Random inputs mixing Gaussian values, exact cancellations (two members
/// hold +c and -c, the sum is +0.0 and the reduced block drops it) and lone
/// -0.0s (which stay entries).
std::vector<SparseVector> RandomFoldInputs(Rng& rng, std::uint32_t n,
                                           std::uint64_t dim, double density) {
  std::vector<DenseVector> dense(n, DenseVector(dim, 0.0));
  std::vector<std::vector<bool>> present(n, std::vector<bool>(dim, false));
  for (std::uint64_t k = 0; k < dim; ++k) {
    const double kind = rng.NextDouble(0.0, 1.0);
    if (kind < 0.15 && n >= 2) {
      const auto a = static_cast<std::uint32_t>(rng.NextBelow(n));
      const auto b =
          static_cast<std::uint32_t>((a + 1 + rng.NextBelow(n - 1)) % n);
      const double c = rng.NextGaussian();
      dense[a][k] = c;
      dense[b][k] = -c;
      present[a][k] = present[b][k] = true;
    } else if (kind < 0.2) {
      const auto a = static_cast<std::uint32_t>(rng.NextBelow(n));
      dense[a][k] = -0.0;
      present[a][k] = true;
    } else {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (rng.NextBool(density)) {
          dense[i][k] = rng.NextGaussian();
          present[i][k] = true;
        }
      }
    }
  }
  std::vector<SparseVector> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<SparseVector::Index> idx;
    std::vector<double> val;
    for (std::uint64_t k = 0; k < dim; ++k) {
      if (present[i][k]) {
        idx.push_back(k);
        val.push_back(dense[i][k]);
      }
    }
    out.emplace_back(dim, std::move(idx), std::move(val));
  }
  return out;
}

std::vector<VirtualTime> RandomStarts(Rng& rng, std::size_t n) {
  std::vector<VirtualTime> starts(n);
  for (auto& t : starts) t = rng.NextDouble(0.0, 5.0);
  return starts;
}

TEST(PsrSparseFold, MatchesTheMergeChainOnRandomInputs) {
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  Rng rng(2024);
  AllreduceScratch scratch;  // shared across shapes, like an engine's
  for (std::uint32_t n = 1; n <= 9; ++n) {
    const Fixture f(n);
    // dim < n leaves some blocks empty; most dims are not multiples of n.
    for (const std::uint64_t dim : {std::uint64_t{1}, std::uint64_t{n / 2 + 1},
                                    std::uint64_t{29}, std::uint64_t{64},
                                    std::uint64_t{301}}) {
      for (const double density : {0.05, 0.4, 0.9}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " dim=" << dim
                                          << " density=" << density);
        const auto inputs = RandomFoldInputs(rng, n, dim, density);
        const auto starts = RandomStarts(rng, n);
        SparseVector sum(7, {3}, {1.0});  // stale contents are replaced
        CommStats stats;
        alg->ReduceSparse(f.group, inputs, starts, scratch, sum, stats);
        ExpectMatchesChain(f.group, inputs, starts, sum, stats);
      }
    }
  }
}

TEST(PsrSparseFold, EmptyAndDisjointInputsMatchTheMergeChain) {
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  AllreduceScratch scratch;
  for (std::uint32_t n = 1; n <= 9; ++n) {
    const Fixture f(n);
    const auto starts = ZeroStarts(n);
    const std::vector<SparseVector> empty(n, SparseVector(37, {}, {}));
    SparseVector sum;
    CommStats stats;
    alg->ReduceSparse(f.group, empty, starts, scratch, sum, stats);
    EXPECT_TRUE(sum.empty());
    ExpectMatchesChain(f.group, empty, starts, sum, stats);

    // Disjoint supports: member i owns indices i, i + n, i + 2n, ...
    std::vector<SparseVector> disjoint;
    const std::uint64_t dim = 5 * n + 3;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<SparseVector::Index> idx;
      std::vector<double> val;
      for (std::uint64_t k = i; k < dim; k += n) {
        idx.push_back(k);
        val.push_back(0.5 + static_cast<double>(k));
      }
      disjoint.emplace_back(dim, std::move(idx), std::move(val));
    }
    alg->ReduceSparse(f.group, disjoint, starts, scratch, sum, stats);
    EXPECT_EQ(sum.nnz(), dim);
    ExpectMatchesChain(f.group, disjoint, starts, sum, stats);
  }
}

TEST(PsrSparseFold, FaultyEntryMatchesTheMergeChain) {
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  Rng rng(77);
  const Fixture f(6);
  const auto inputs = RandomFoldInputs(rng, 6, 83, 0.3);
  const auto starts = RandomStarts(rng, 6);
  AllreduceScratch scratch;

  // Empty plan: exactly the plain path.
  const simnet::FaultPlan empty_plan;
  FaultContext fc;
  fc.plan = &empty_plan;
  SparseVector sum;
  CommStats stats;
  alg->ReduceSparse(f.group, inputs, starts, scratch, sum, stats, &fc);
  ExpectMatchesChain(f.group, inputs, starts, sum, stats);

  // One member excluded: the survivors' reduce matches the chain over the
  // survivors at their timeout-adjusted starts.
  simnet::FaultConfig cfg;
  cfg.message_drop_probability = 0.15;
  cfg.max_retries = 0;
  const simnet::FaultPlan plan(cfg);
  FaultContext faulty;
  faulty.plan = &plan;
  bool saw_one = false;
  for (std::uint64_t it = 1; it <= 200 && !saw_one; ++it) {
    faulty.iteration = it;
    faulty.channel = 0;
    alg->ReduceSparse(f.group, inputs, starts, scratch, sum, stats, &faulty);
    if (faulty.excluded.size() != 1) continue;
    saw_one = true;
    const GroupComm sub(&f.topo, &f.cost, faulty.survivor_ranks);
    std::vector<SparseVector> survivors;
    for (GroupRank g = 0; g < f.group.size(); ++g) {
      if (g != faulty.excluded[0]) survivors.push_back(inputs[g]);
    }
    ExpectMatchesChain(sub, survivors, faulty.survivor_starts, sum,
                       faulty.sub_stats);
  }
  EXPECT_TRUE(saw_one) << "no iteration excluded exactly one member";
}

// ------------------------------------------------ multi-level allreduce ----

/// One worker per node, `racks` racks. Integer-valued inputs make every
/// summation order produce the identical double, so the recursive sum can
/// be compared bitwise against a flat collective.
struct RackFixture {
  RackFixture(std::uint32_t nodes, std::uint32_t racks)
      : topo(nodes, 1, racks),
        cost(Fixture::MakeConfig()),
        members(MakeMembers(nodes)),
        ml(&topo, &cost, members) {}

  static std::vector<Rank> MakeMembers(std::uint32_t n) {
    std::vector<Rank> m(n);
    for (std::uint32_t i = 0; i < n; ++i) m[i] = i;
    return m;
  }

  std::vector<DenseVector> IntegerInputs(std::size_t dim) const {
    std::vector<DenseVector> inputs(members.size());
    Rng rng(41);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      inputs[i].resize(dim);
      for (auto& e : inputs[i]) {
        e = static_cast<double>(rng.NextBelow(64)) - 31.0;
      }
    }
    return inputs;
  }

  Topology topo;
  simnet::CostModel cost;
  std::vector<Rank> members;
  MultiLevelAllreduce ml;
};

TEST(MultiLevel, DenseSumMatchesFlatCollective) {
  RackFixture f(8, 2);
  const auto inputs = f.IntegerInputs(24);
  const auto starts = ZeroStarts(8);
  const GroupComm flat(&f.topo, &f.cost, f.members);

  for (const auto kind : {AllreduceKind::kPsr, AllreduceKind::kRing}) {
    const auto alg = MakeAllreduce(kind);
    AllreduceScratch scratch;
    DenseVector want, sum;
    CommStats want_stats, stats;
    alg->ReduceDense(flat, inputs, starts, scratch, want, want_stats);
    for (int pass = 0; pass < 2; ++pass) {  // second pass reuses warm buffers
      f.ml.ReduceDense(*alg, inputs, starts, scratch, sum, stats);
      EXPECT_EQ(sum, want) << alg->Name();
      ASSERT_EQ(stats.finish_times.size(), 8u);
      for (const VirtualTime t : stats.finish_times) {
        EXPECT_GT(t, 0.0);
        EXPECT_LE(t, stats.all_done);
      }
    }
  }
}

TEST(MultiLevel, SparseSumMatchesFlatCollective) {
  RackFixture f(8, 4);
  const auto starts = ZeroStarts(8);
  std::vector<SparseVector> inputs;
  Rng rng(17);
  for (int i = 0; i < 8; ++i) {
    DenseVector d(40, 0.0);
    for (auto& e : d) {
      if (rng.NextBool(0.3)) e = static_cast<double>(rng.NextBelow(32)) - 15.0;
    }
    inputs.push_back(SparseVector::FromDense(d));
  }
  const GroupComm flat(&f.topo, &f.cost, f.members);

  for (const auto kind : {AllreduceKind::kPsr, AllreduceKind::kRing}) {
    const auto alg = MakeAllreduce(kind);
    AllreduceScratch scratch;
    SparseVector want, sum;
    CommStats want_stats, stats;
    alg->ReduceSparse(flat, inputs, starts, scratch, want, want_stats);
    f.ml.ReduceSparse(*alg, inputs, starts, scratch, sum, stats);
    EXPECT_EQ(sum, want) << alg->Name();
  }
}

TEST(MultiLevel, RedistributionAccountsLeaderToPeerTraffic) {
  // 8 members in 2 racks: each rack leader re-broadcasts the global sum to
  // its 3 rack peers, so stage 3 ships 2 * 3 * dim elements in 2 * 3
  // messages — and is reported separately from the collective stats.
  RackFixture f(8, 2);
  const auto inputs = f.IntegerInputs(10);
  const auto starts = ZeroStarts(8);
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  AllreduceScratch scratch;
  DenseVector sum;
  CommStats stats;
  f.ml.ReduceDense(*alg, inputs, starts, scratch, sum, stats);
  EXPECT_EQ(f.ml.redistribution_elements(), 2u * 3u * 10u);
  EXPECT_EQ(f.ml.redistribution_messages(), 2u * 3u);
  EXPECT_GT(stats.elements_sent, 0u);
}

TEST(MultiLevel, LateRackDelaysOnlyThatRacksStage) {
  // Rack 0 members start late; rack 1's stage-1 collective must finish on
  // its own clock (the recursion composes per-rack start times, it does not
  // impose a global barrier before stage 1).
  RackFixture f(4, 2);
  const auto inputs = f.IntegerInputs(6);
  std::vector<VirtualTime> starts = {5.0, 5.0, 0.0, 0.0};
  const auto alg = MakeAllreduce(AllreduceKind::kPsr);
  AllreduceScratch scratch;
  DenseVector sum;
  CommStats stats;
  f.ml.ReduceDense(*alg, inputs, starts, scratch, sum, stats);
  EXPECT_GE(stats.all_done, 5.0);  // gated by the late rack
  // Every member still ends at or after the late rack's sum arrives.
  for (const VirtualTime t : stats.finish_times) EXPECT_GE(t, 5.0);
}

// ------------------------- sparse payloads held dense vs their packs ----

/// What the engines used to hand the sparse collective: each input packed by
/// AssignFromDense (|v| > 0).
std::vector<SparseVector> Packs(const std::vector<DenseVector>& dense) {
  std::vector<SparseVector> out(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    out[i].AssignFromDense(dense[i]);
  }
  return out;
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

/// Dense inputs holding every value the packing rule treats specially:
/// ±0.0 and NaN (not packed), ±inf (packed, and inf - inf folds to NaN),
/// subnormals, exact cancellations (the sum is +0.0, which a completed
/// block drops but a ring partial still counts) and Gaussian values at
/// `density`. Member `zero` (if < n) holds only ±0.0.
std::vector<DenseVector> SpecialDenseInputs(Rng& rng, std::uint32_t n,
                                            std::uint64_t dim, double density,
                                            std::uint32_t zero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<DenseVector> in(n, DenseVector(dim, 0.0));
  for (std::uint64_t k = 0; k < dim; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.NextBelow(n));
    const auto b = static_cast<std::uint32_t>((a + 1) % n);
    const double kind = rng.NextDouble(0.0, 1.0);
    if (kind < 0.1) {
      const double c = rng.NextGaussian();
      in[a][k] = c;
      in[b][k] = b == a ? c : -c;
    } else if (kind < 0.15) {
      in[a][k] = -0.0;
    } else if (kind < 0.2) {
      in[a][k] = nan;
      in[b][k] = rng.NextGaussian();
    } else if (kind < 0.25) {
      in[a][k] = inf;
      in[b][k] = b == a ? inf : -inf;
    } else if (kind < 0.3) {
      in[a][k] = sub;
      in[b][k] = -3.0 * sub;
    } else {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (rng.NextBool(density)) in[i][k] = rng.NextGaussian();
      }
    }
  }
  if (zero < n) {
    for (std::uint64_t k = 0; k < dim; ++k) in[zero][k] = k % 2 ? -0.0 : 0.0;
  }
  return in;
}

/// The dense-held overload must give bitwise ToDense of what the
/// SparseVector overload gives on the inputs' packs, its nnz, and equal
/// stats and fault outcomes. Returns the fault context of the packs' run.
FaultContext ExpectMatchesPacks(const AllreduceAlgorithm& alg,
                                const GroupComm& group,
                                const std::vector<DenseVector>& inputs,
                                std::span<const VirtualTime> starts,
                                AllreduceScratch& scratch,
                                const simnet::FaultPlan* plan = nullptr,
                                std::uint64_t iteration = 0) {
  const std::vector<SparseVector> packs = Packs(inputs);
  FaultContext fs, fd;
  fs.plan = fd.plan = plan;
  fs.iteration = fd.iteration = iteration;
  fs.channel = fd.channel = 3;
  AllreduceScratch sparse_scratch;
  SparseVector want;
  CommStats want_stats;
  alg.ReduceSparse(group, packs, starts, sparse_scratch, want, want_stats,
                   &fs);
  DenseVector sum(3, 7.0);  // stale contents are replaced
  CommStats stats;
  const std::size_t nnz =
      alg.ReduceSparse(group, inputs, starts, scratch, sum, stats, &fd);
  EXPECT_TRUE(SameBits(sum, want.ToDense())) << "sum bits differ";
  EXPECT_EQ(nnz, want.nnz());
  EXPECT_EQ(stats, want_stats);
  EXPECT_EQ(fd.excluded, fs.excluded);
  EXPECT_EQ(fd.dropped_messages, fs.dropped_messages);
  EXPECT_EQ(fd.retries, fs.retries);
  EXPECT_EQ(fd.delayed_messages, fs.delayed_messages);
  return fs;
}

TEST(DenseHeldSparse, MatchesTheSparseOverloadOnPacks) {
  Rng rng(4242);
  for (const auto kind :
       {AllreduceKind::kPsr, AllreduceKind::kRing, AllreduceKind::kNaive}) {
    const auto alg = MakeAllreduce(kind);
    AllreduceScratch scratch;  // shared across shapes, like an engine's
    for (std::uint32_t n = 1; n <= 9; ++n) {
      const Fixture f(n);
      for (const std::uint64_t dim : {1, 7, 37, 301}) {
        for (const double density : {0.05, 0.4, 0.9}) {
          SCOPED_TRACE(::testing::Message()
                       << alg->Name() << " n=" << n << " dim=" << dim
                       << " density=" << density);
          const auto zero = static_cast<std::uint32_t>(rng.NextBelow(n + 1));
          const auto inputs = SpecialDenseInputs(rng, n, dim, density, zero);
          ExpectMatchesPacks(*alg, f.group, inputs, RandomStarts(rng, n),
                             scratch);
        }
      }
    }
  }
}

TEST(DenseHeldSparse, DisjointSupportsAndMixedPrecisionPricing) {
  // Value bytes of 4 on 8-byte indices move the dense/sparse break-even of
  // the store phases to a third of the block.
  simnet::CostModelConfig cfg = Fixture::MakeConfig();
  cfg.value_bytes = 4;
  for (const auto kind :
       {AllreduceKind::kPsr, AllreduceKind::kRing, AllreduceKind::kNaive}) {
    const auto alg = MakeAllreduce(kind);
    AllreduceScratch scratch;
    for (std::uint32_t n = 1; n <= 9; ++n) {
      const Topology topo(n, 1);
      for (const simnet::CostModel& cost :
           {simnet::CostModel(Fixture::MakeConfig()), simnet::CostModel(cfg)}) {
        std::vector<Rank> members(n);
        for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
        const GroupComm group(&topo, &cost, members);
        // Member i owns indices i, i + n, i + 2n, ...; a ring partial grows
        // as it travels.
        const std::uint64_t dim = 5 * n + 3;
        std::vector<DenseVector> inputs(n, DenseVector(dim, 0.0));
        for (std::uint64_t k = 0; k < dim; ++k) {
          inputs[k % n][k] = 0.5 + static_cast<double>(k);
        }
        SCOPED_TRACE(::testing::Message() << alg->Name() << " n=" << n);
        ExpectMatchesPacks(*alg, group, inputs, ZeroStarts(n), scratch);
      }
    }
  }
}

TEST(DenseHeldSparse, FaultsMatchTheSparseOverload) {
  // Delays, drops that resolve on retry, and drops that exclude members.
  simnet::FaultConfig delayed;
  delayed.message_delay_probability = 0.5;
  delayed.message_delay_s = 0.25;
  simnet::FaultConfig retried = delayed;
  retried.message_drop_probability = 0.3;
  retried.max_retries = 16;
  simnet::FaultConfig excluding = retried;
  excluding.max_retries = 0;
  Rng rng(99);
  for (const simnet::FaultConfig& cfg : {delayed, retried, excluding}) {
    const simnet::FaultPlan plan(cfg);
    for (const auto kind :
         {AllreduceKind::kPsr, AllreduceKind::kRing, AllreduceKind::kNaive}) {
      const auto alg = MakeAllreduce(kind);
      AllreduceScratch scratch;
      const Fixture f(6);
      std::size_t delays = 0, retries = 0, exclusions = 0;
      for (std::uint64_t it = 1; it <= 12; ++it) {
        SCOPED_TRACE(::testing::Message() << alg->Name() << " iteration "
                                          << it << " retries "
                                          << cfg.max_retries);
        const auto inputs = SpecialDenseInputs(rng, 6, 37, 0.4, 6);
        const FaultContext fc = ExpectMatchesPacks(
            *alg, f.group, inputs, RandomStarts(rng, 6), scratch, &plan, it);
        delays += fc.delayed_messages;
        retries += fc.retries;
        exclusions += fc.excluded.size();
      }
      EXPECT_GT(delays, 0u);
      EXPECT_EQ(retries > 0, cfg.message_drop_probability > 0.0 &&
                                 cfg.max_retries > 0);
      EXPECT_EQ(exclusions > 0, cfg.max_retries == 0);
    }
  }
}

TEST(FaultyReduce, ExcludingEveryMemberLeavesAnEmptySum) {
  // Every member drops on its only attempt (the largest drop probability a
  // plan accepts), and every message is late: the collective completes with
  // no survivors instead of aborting the run.
  simnet::FaultConfig cfg;
  cfg.message_drop_probability = std::nextafter(1.0, 0.0);
  cfg.max_retries = 0;
  cfg.retry_timeout_s = 1.0;
  cfg.message_delay_probability = 1.0;
  cfg.message_delay_s = 0.25;
  const simnet::FaultPlan plan(cfg);
  constexpr std::uint32_t kN = 4;
  constexpr std::size_t kDim = 9;
  const Fixture f(kN);
  const auto inputs = RampInputs(kN, kDim);
  const std::vector<SparseVector> packs = Packs(inputs);
  const std::vector<VirtualTime> starts{0.5, 0.0, 2.0, 1.25};
  const std::vector<GroupRank> everyone{0, 1, 2, 3};
  const DenseVector zero(kDim, 0.0);
  for (const auto kind :
       {AllreduceKind::kPsr, AllreduceKind::kRing, AllreduceKind::kNaive}) {
    const auto alg = MakeAllreduce(kind);
    SCOPED_TRACE(alg->Name());
    AllreduceScratch scratch;
    auto expect_no_survivors = [&](const FaultContext& fc,
                                   const CommStats& stats) {
      EXPECT_EQ(fc.excluded, everyone);
      EXPECT_EQ(fc.dropped_messages, kN);
      EXPECT_EQ(stats.elements_sent, 0u);
      EXPECT_EQ(stats.messages_sent, 0u);
      EXPECT_EQ(stats.bytes_sent, 0u);
      EXPECT_EQ(stats.rounds, 0u);
      ASSERT_EQ(stats.finish_times.size(), kN);
      for (GroupRank g = 0; g < kN; ++g) {
        EXPECT_EQ(stats.finish_times[g], starts[g] + 0.25 + 1.0) << g;
      }
      EXPECT_EQ(stats.all_done, 3.25);
    };
    auto context = [&] {
      FaultContext fc;
      fc.plan = &plan;
      fc.iteration = 1;
      return fc;
    };

    FaultContext fd = context();
    DenseVector dsum(3, 7.0);  // stale contents are replaced
    CommStats dstats;
    alg->ReduceDense(f.group, inputs, starts, scratch, dsum, dstats, &fd);
    EXPECT_TRUE(SameBits(dsum, zero));
    expect_no_survivors(fd, dstats);

    FaultContext fh = context();
    DenseVector hsum(3, 7.0);
    CommStats hstats;
    EXPECT_EQ(alg->ReduceSparse(f.group, inputs, starts, scratch, hsum,
                                hstats, &fh),
              0u);
    EXPECT_TRUE(SameBits(hsum, zero));
    expect_no_survivors(fh, hstats);

    FaultContext fs = context();
    SparseVector ssum = packs[0];
    CommStats sstats;
    alg->ReduceSparse(f.group, packs, starts, scratch, ssum, sstats, &fs);
    EXPECT_EQ(ssum.dim(), kDim);
    EXPECT_EQ(ssum.nnz(), 0u);
    expect_no_survivors(fs, sstats);
  }
}

TEST(DenseHeldSparse, CanonicalInputsMatchTheirBlockPacks) {
  // Completed sums: every value but +0.0 is an entry, NaN included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(5);
  for (const auto kind :
       {AllreduceKind::kPsr, AllreduceKind::kRing, AllreduceKind::kNaive}) {
    const auto alg = MakeAllreduce(kind);
    AllreduceScratch scratch;
    for (std::uint32_t n = 1; n <= 5; ++n) {
      const Fixture f(n);
      std::vector<DenseVector> inputs(n, DenseVector(23, 0.0));
      std::vector<SparseVector> packs(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        for (auto& e : inputs[i]) {
          const double kind_of = rng.NextDouble(0.0, 1.0);
          e = kind_of < 0.1 ? nan : kind_of < 0.5 ? rng.NextGaussian() : 0.0;
        }
        packs[i].AssignFromDenseBlock(23, 0, inputs[i]);
      }
      const auto starts = RandomStarts(rng, n);
      SparseVector want;
      CommStats want_stats;
      AllreduceScratch sparse_scratch;
      alg->ReduceSparse(f.group, packs, starts, sparse_scratch, want,
                        want_stats);
      DenseVector sum;
      CommStats stats;
      const std::size_t nnz =
          alg->ReduceSparse(f.group, inputs, starts, scratch, sum, stats,
                            nullptr, SparseEntries::kCanonical);
      SCOPED_TRACE(::testing::Message() << alg->Name() << " n=" << n);
      EXPECT_TRUE(SameBits(sum, want.ToDense()));
      EXPECT_EQ(nnz, want.nnz());
      EXPECT_EQ(stats, want_stats);
    }
  }
}

TEST(DenseHeldSparse, MultiLevelMatchesTheSparseOverloadOnPacks) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(8);
  for (const std::uint32_t racks : {2u, 3u}) {
    RackFixture f(3 * racks, racks);  // three node leaders per rack
    const auto n = static_cast<std::uint32_t>(f.members.size());
    for (const auto kind :
         {AllreduceKind::kPsr, AllreduceKind::kRing, AllreduceKind::kNaive}) {
      const auto alg = MakeAllreduce(kind);
      AllreduceScratch scratch;
      for (const double density : {0.05, 0.4, 0.9}) {
        SCOPED_TRACE(::testing::Message() << alg->Name() << " racks="
                                          << racks << " density=" << density);
        auto inputs = SpecialDenseInputs(rng, n, 41, density, n);
        // Rule 5: inf - inf inside rack 0 leaves a NaN in its sum, which
        // the root stage must carry, next to another rack's value.
        inputs[0][5] = inf;
        inputs[1][5] = -inf;
        inputs[2][5] = 0.0;
        inputs[3][5] = 2.5;
        const auto starts = RandomStarts(rng, n);
        const std::vector<SparseVector> packs = Packs(inputs);
        SparseVector want;
        CommStats want_stats;
        AllreduceScratch sparse_scratch;
        f.ml.ReduceSparse(*alg, packs, starts, sparse_scratch, want,
                          want_stats);
        const std::size_t want_redist[3] = {f.ml.redistribution_elements(),
                                            f.ml.redistribution_messages(),
                                            f.ml.redistribution_bytes()};
        DenseVector sum;
        CommStats stats;
        const std::size_t nnz =
            f.ml.ReduceSparse(*alg, inputs, starts, scratch, sum, stats);
        EXPECT_TRUE(std::isnan(sum[5]));
        EXPECT_TRUE(SameBits(sum, want.ToDense()));
        EXPECT_EQ(nnz, want.nnz());
        EXPECT_EQ(stats, want_stats);
        EXPECT_EQ(f.ml.redistribution_elements(), want_redist[0]);
        EXPECT_EQ(f.ml.redistribution_messages(), want_redist[1]);
        EXPECT_EQ(f.ml.redistribution_bytes(), want_redist[2]);
      }
    }
  }
}

TEST(MultiLevel, RejectsBadMembership) {
  const Topology topo(4, 1, 2);
  const simnet::CostModel cost;
  const std::vector<Rank> short_members = {0, 1, 2};
  EXPECT_THROW(MultiLevelAllreduce(&topo, &cost, short_members),
               InvalidArgument);
  const std::vector<Rank> shuffled = {0, 2, 1, 3};  // crosses rack boundary
  EXPECT_THROW(MultiLevelAllreduce(&topo, &cost, shuffled), InvalidArgument);
}

}  // namespace
}  // namespace psra::comm
