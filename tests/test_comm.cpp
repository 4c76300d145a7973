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

#include "comm/allreduce_impl.hpp"
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
  const auto alg = MakeAllreduce(kind);

  Rng rng(static_cast<std::uint64_t>(n) * 7 + 1);
  std::vector<DenseVector> inputs(n);
  for (auto& v : inputs) {
    v.resize(23);
    for (auto& e : v) e = rng.NextGaussian();
  }
  const auto expected = SumDense(inputs);

  const auto res = alg->RunDense(f.group, inputs, ZeroStarts(n));
  ASSERT_EQ(res.outputs.size(), static_cast<std::size_t>(n));
  for (const auto& out : res.outputs) {
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out[i], expected[i], 1e-12);
    }
  }
  for (auto ft : res.stats.finish_times) EXPECT_GE(ft, 0.0);
  EXPECT_GE(res.stats.all_done, res.stats.scatter_reduce_done);
}

TEST_P(AllreduceCorrectness, SparseOutputsEqualSum) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));
  const auto alg = MakeAllreduce(kind);

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

  const auto res = alg->RunSparse(f.group, inputs, ZeroStarts(n));
  for (const auto& out : res.outputs) {
    const auto dense = out.ToDense();
    ASSERT_EQ(dense.size(), dim);
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(dense[i], expected[i], 1e-12);
    }
  }
}

TEST_P(AllreduceCorrectness, RespectsStartTimes) {
  const auto [kind, n] = GetParam();
  Fixture f(static_cast<std::uint32_t>(n));
  const auto alg = MakeAllreduce(kind);
  std::vector<DenseVector> inputs(n, DenseVector(8, 1.0));
  std::vector<VirtualTime> starts(n, 0.0);
  starts[0] = 100.0;  // one late worker delays everyone's completion
  const auto res = alg->RunDense(f.group, inputs, starts);
  if (n > 1) {
    EXPECT_GE(res.stats.all_done, 100.0);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(res.stats.finish_times[i], starts[i]);
  }
}

// The in-place Reduce* entry points must reproduce Run*'s sum and stats
// bitwise, including when the scratch and output buffers are reused across
// calls (the engine's steady-state pattern).
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
  const auto res = alg->RunDense(f.group, inputs, starts);

  AllreduceScratch scratch;
  DenseVector sum;
  CommStats stats;
  for (int pass = 0; pass < 2; ++pass) {  // second pass reuses warm buffers
    alg->ReduceDense(f.group, inputs, starts, scratch, sum, stats);
    EXPECT_EQ(sum, res.outputs[0]);
    EXPECT_EQ(stats, res.stats);
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
  const auto res = alg->RunSparse(f.group, inputs, starts);

  AllreduceScratch scratch;
  SparseVector sum;
  CommStats stats;
  for (int pass = 0; pass < 2; ++pass) {
    alg->ReduceSparse(f.group, inputs, starts, scratch, sum, stats);
    EXPECT_EQ(sum, res.outputs[0]);
    EXPECT_EQ(stats, res.stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, AllreduceCorrectness,
    ::testing::Combine(::testing::Values(AllreduceKind::kNaive,
                                         AllreduceKind::kRing,
                                         AllreduceKind::kPsr,
                                         AllreduceKind::kRhd,
                                         AllreduceKind::kTree),
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

  const auto ring = RingAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  const auto psr = PsrAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.stats.all_done, best, 1e-9);
  EXPECT_NEAR(psr.stats.all_done, best, 1e-9);
}

TEST(CostAnalysis, OwnBlockLayoutGivesPsrZeroScatterCost) {
  // Paper eq. 14 best case: every worker's nonzeros are in its own block.
  const std::uint32_t n = 4, q = 6;
  Fixture f(n);
  const auto inputs = OwnBlockLayout(n, 8, q);
  const auto psr = PsrAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(psr.stats.scatter_reduce_done, 0.0, 1e-12);
  // Allgather: every owner serializes its q-element block to n-1 peers.
  EXPECT_NEAR(psr.stats.all_done, static_cast<double>(q) * (n - 1), 1e-9);
}

TEST(CostAnalysis, HotBlockLayoutMatchesPaperWorstCaseBound) {
  // Overlapping concentration: c = q. Paper eq. 16 upper bound: c*N*theta.
  const std::uint32_t n = 5, q = 8;
  Fixture f(n);
  const auto inputs = HotBlockLayout(n, 16, q);

  const auto psr = PsrAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(psr.stats.all_done, static_cast<double>(q) * n, 1e-9);

  const auto ring = RingAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.stats.all_done, 2.0 * q * (n - 1), 1e-9);

  // PSR beats Ring whenever N > 2 (paper's conclusion).
  EXPECT_LT(psr.stats.all_done, ring.stats.all_done);
}

TEST(CostAnalysis, DisjointBlockLayoutIsRingsWorstCase) {
  // Disjoint concentration: partial sums grow as they circulate.
  // Ring scatter-reduce: q * N(N-1)/2; allgather: q * N(N-1).
  // Total: 1.5 * q * N * (N-1)  — paper eq. 13's upper bound with c = q.
  const std::uint32_t n = 4, q = 3;
  Fixture f(n);
  const auto inputs = DisjointBlockLayout(n, static_cast<std::uint64_t>(q) * n,
                                          q);

  const auto ring = RingAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.stats.all_done, 1.5 * q * n * (n - 1), 1e-9);

  const auto psr = PsrAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  // PSR: scatter q (parallel direct sends), allgather (n-1)*n*q serialized.
  EXPECT_NEAR(psr.stats.all_done, q + static_cast<double>(n) * (n - 1) * q,
              1e-9);
  EXPECT_LT(psr.stats.all_done, ring.stats.all_done);
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

  const auto ring = RingAllreduce().RunDense(f.group, inputs, ZeroStarts(n));
  const auto psr = PsrAllreduce().RunDense(f.group, inputs, ZeroStarts(n));
  EXPECT_NEAR(ring.stats.all_done, expect, 1e-9);
  EXPECT_NEAR(psr.stats.all_done, expect, 1e-9);
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

  const auto ring = RingAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));
  const auto psr = PsrAllreduce().RunSparse(f.group, inputs, ZeroStarts(n));

  const double cd = static_cast<double>(c);
  // eq. 13: 2c(N-1)/N <= T_ring <= 1.5cN(N-1)
  EXPECT_GE(ring.stats.all_done, 2.0 * cd * (n - 1) / n - 1e-9);
  EXPECT_LE(ring.stats.all_done, 1.5 * cd * n * (n - 1) + 1e-9);
  // eq. 16 lower bound also applies to PSR, and PSR always stays within
  // Ring's worst-case envelope (the paper's headline comparison).
  EXPECT_GE(psr.stats.all_done, 2.0 * cd * (n - 1) / n - 1e-9);
  EXPECT_LE(psr.stats.all_done, 1.5 * cd * n * (n - 1) + 1e-9);

  // Both moved every element at least once.
  EXPECT_GT(ring.stats.elements_sent, 0u);
  EXPECT_GT(psr.stats.elements_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostBoundsProperty, ::testing::Range(0, 20));

TEST(CostAnalysis, NaiveSerializesThroughRoot) {
  const std::uint32_t n = 4;
  Fixture f(n);
  std::vector<DenseVector> inputs(n, DenseVector(10, 1.0));
  const auto res = NaiveAllreduce().RunDense(f.group, inputs, ZeroStarts(n));
  const double theta_d = 0.5;
  // Gather: parallel 10-elem sends (5 s). Broadcast: 3 serialized sends.
  EXPECT_NEAR(res.stats.scatter_reduce_done, 10 * theta_d, 1e-9);
  EXPECT_NEAR(res.stats.all_done, 10 * theta_d + 3 * 10 * theta_d, 1e-9);
}

TEST(CostAnalysis, SingleMemberIsFree) {
  Fixture f(1);
  std::vector<DenseVector> inputs(1, DenseVector(10, 2.0));
  for (auto kind : {AllreduceKind::kNaive, AllreduceKind::kRing,
                    AllreduceKind::kPsr}) {
    const auto res = MakeAllreduce(kind)->RunDense(f.group, inputs, {{5.0}});
    EXPECT_DOUBLE_EQ(res.stats.all_done, 5.0) << MakeAllreduce(kind)->Name();
    EXPECT_EQ(res.stats.elements_sent, 0u);
    EXPECT_EQ(res.outputs[0], inputs[0]);
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
  const auto alg = MakeAllreduce(kind);

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

  const auto res = alg->RunDense(f.group, inputs, starts);
  const double max_start = *std::max_element(starts.begin(), starts.end());
  EXPECT_GE(res.stats.all_done, max_start);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_GE(res.stats.finish_times[i], starts[i]);
    for (std::size_t k = 0; k < dim; ++k) {
      EXPECT_NEAR(res.outputs[i][k], expected[k], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, RandomStartProperty,
    ::testing::Combine(::testing::Values(AllreduceKind::kNaive,
                                         AllreduceKind::kRing,
                                         AllreduceKind::kPsr,
                                         AllreduceKind::kRhd,
                                         AllreduceKind::kTree),
                       ::testing::Range(0, 6)));

TEST(ExtraCollectives, MessageCountsMatchTheory) {
  // Dense, power-of-two group: RHD sends 2*log2(N) messages per rank; Tree
  // sends N-1 up and N-1 down in total.
  const std::uint32_t n = 8;
  Fixture f(n);
  std::vector<DenseVector> inputs(n, DenseVector(64, 1.0));
  const auto starts = ZeroStarts(n);

  const auto rhd = RhdAllreduce().RunDense(f.group, inputs, starts);
  EXPECT_EQ(rhd.stats.messages_sent, n * 2 * 3);  // 2 log2(8) per rank

  const auto tree = TreeAllreduce().RunDense(f.group, inputs, starts);
  EXPECT_EQ(tree.stats.messages_sent, 2 * (n - 1));
}

TEST(ExtraCollectives, RhdFinishesBeforeTree) {
  // Total elements moved are equal (2d(N-1)/N per rank vs (N-1) full-vector
  // hops overall), but RHD's exchanged blocks halve every round while Tree
  // ships the full vector along a serial log-depth chain — its critical
  // path is strictly longer.
  const std::uint32_t n = 8;
  Fixture f(n);
  std::vector<DenseVector> inputs(n, DenseVector(64, 1.0));
  const auto starts = ZeroStarts(n);
  const auto rhd = RhdAllreduce().RunDense(f.group, inputs, starts);
  const auto tree = TreeAllreduce().RunDense(f.group, inputs, starts);
  EXPECT_EQ(rhd.stats.elements_sent, tree.stats.elements_sent);
  EXPECT_LT(rhd.stats.all_done, tree.stats.all_done);
}

TEST(Collective, InputValidation) {
  Fixture f(3);
  const auto alg = MakeAllreduce("ring");
  std::vector<DenseVector> two(2, DenseVector(4, 1.0));
  EXPECT_THROW(alg->RunDense(f.group, two, ZeroStarts(3)), InvalidArgument);
  std::vector<DenseVector> ragged{DenseVector(4, 1.0), DenseVector(5, 1.0),
                                  DenseVector(4, 1.0)};
  EXPECT_THROW(alg->RunDense(f.group, ragged, ZeroStarts(3)), InvalidArgument);
  EXPECT_THROW(MakeAllreduce("bogus"), InvalidArgument);
}

// ------------------------------------------------------------ intranode ----

TEST(IntraNode, ReduceToLeaderSumsAndTimes) {
  const Topology topo(1, 4);
  simnet::CostModelConfig cfg = Fixture::MakeConfig();
  const simnet::CostModel cost(cfg);
  const GroupComm g(&topo, &cost, {0, 1, 2, 3});

  std::vector<DenseVector> inputs(4, DenseVector(16, 1.0));
  const auto res = ReduceToLeader(g, 0, inputs, ZeroStarts(4));
  EXPECT_EQ(res.value, DenseVector(16, 4.0));
  // Bus theta_d = 8/160 = 0.05; three parallel 16-element sends.
  EXPECT_NEAR(res.leader_ready, 16 * 0.05, 1e-9);
  EXPECT_EQ(res.messages_sent, 3u);
}

TEST(IntraNode, BroadcastSerializesFromLeader) {
  const Topology topo(1, 3);
  const simnet::CostModel cost(Fixture::MakeConfig());
  const GroupComm g(&topo, &cost, {0, 1, 2});
  const auto res = BroadcastFromLeader(g, 0, 16, 10.0);
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
  const auto res = ReduceToLeader(g, 0, inputs, starts);
  EXPECT_GE(res.leader_ready, 50.0);
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
  alg->ReduceDenseFaulty(f.group, inputs, starts, fc, scratch, sum, stats);
  EXPECT_EQ(sum, plain_sum);
  EXPECT_EQ(stats, plain_stats);
  EXPECT_TRUE(fc.excluded.empty());
  EXPECT_EQ(fc.dropped_messages, 0u);

  const simnet::FaultPlan empty_plan;  // empty plan behaves the same
  fc.plan = &empty_plan;
  alg->ReduceDenseFaulty(f.group, inputs, starts, fc, scratch, sum, stats);
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
    alg->ReduceDenseFaulty(f.group, inputs, starts, fc, scratch, sum, stats);
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
    alg->ReduceDenseFaulty(f.group, inputs, starts, fc, scratch, sum, stats);
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
    alg->ReduceDenseFaulty(f.group, dense_inputs, starts, fd, scratch, dsum,
                           dstats);

    FaultContext fs;
    fs.plan = &plan;
    fs.iteration = it;
    SparseVector ssum;
    CommStats sstats;
    alg->ReduceSparseFaulty(f.group, sparse_inputs, starts, fs, scratch, ssum,
                            sstats);

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

/// The PSR sparse reduce as a pairwise merge chain: every block starts from
/// member 0's slice and SumInto-merges the other members' slices in
/// ascending order. Timing follows the sender-serialized PSR schedule
/// (DESIGN.md §2); empty sparse payloads are not sent.
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
    block_nnz[j] = blocks[j].nnz();
  }
  sum = SparseVector::ConcatDisjoint(blocks);

  st.Reset(n);
  if (n == 1) {
    st.finish_times[0] = st.all_done = st.scatter_reduce_done = starts[0];
    return;
  }
  const std::size_t eb = group.pricing().PerElement(true);
  auto send = [&](GroupRank a, GroupRank b, std::size_t elems,
                  VirtualTime& clock) {
    const VirtualTime cost =
        group.cost_model().SparseTransferTime(group.LinkBetween(a, b), elems);
    clock += cost;
    st.CountSend(elems, eb);
    st.total_send_time += cost;
  };
  std::vector<VirtualTime> ready(starts.begin(), starts.end()), sr_done(n);
  for (GroupRank i = 0; i < n; ++i) {
    VirtualTime clock = starts[i];
    for (GroupRank j = 0; j < n; ++j) {
      const auto [lo, hi] = group.BlockRange(dim, j);
      const std::size_t elems = inputs[i].CountInRange(lo, hi);
      if (j == i || elems == 0) continue;
      send(i, j, elems, clock);
      ready[j] = std::max(ready[j], clock);
    }
    sr_done[i] = clock;
  }
  st.scatter_reduce_done = *std::max_element(ready.begin(), ready.end());
  std::vector<VirtualTime> arrival(n), ag_done(n);
  for (GroupRank m = 0; m < n; ++m) arrival[m] = std::max(ready[m], sr_done[m]);
  for (GroupRank j = 0; j < n; ++j) {
    VirtualTime clock = std::max(ready[j], sr_done[j]);
    for (GroupRank m = 0; m < n; ++m) {
      if (m == j || block_nnz[j] == 0) continue;
      send(j, m, block_nnz[j], clock);
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
/// hold +c and -c, the sum is 0.0 and stays an entry) and lone -0.0s.
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
  alg->ReduceSparseFaulty(f.group, inputs, starts, fc, scratch, sum, stats);
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
    alg->ReduceSparseFaulty(f.group, inputs, starts, faulty, scratch, sum,
                            stats);
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
