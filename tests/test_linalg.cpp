// Unit + property tests for dense kernels, sparse vectors and CSR matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/gram.hpp"
#include "linalg/sparse_vector.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::linalg {
namespace {

// ----------------------------------------------------------- dense ops ----

TEST(DenseOps, AxpyAddsScaledVector) {
  DenseVector x{1, 2, 3}, y{10, 20, 30};
  Axpy(2.0, x, y);
  EXPECT_EQ(y, (DenseVector{12, 24, 36}));
}

TEST(DenseOps, AxpyDimensionMismatchThrows) {
  DenseVector x{1}, y{1, 2};
  EXPECT_THROW(Axpy(1.0, x, y), InvalidArgument);
}

TEST(DenseOps, DotAndNorms) {
  DenseVector x{3, -4};
  EXPECT_DOUBLE_EQ(Dot(x, x), 25.0);
  EXPECT_DOUBLE_EQ(Norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(x), 7.0);
  EXPECT_DOUBLE_EQ(NormInf(x), 4.0);
}

TEST(DenseOps, DistanceL2) {
  DenseVector x{1, 1}, y{4, 5};
  EXPECT_DOUBLE_EQ(DistanceL2(x, y), 5.0);
}

TEST(DenseOps, AddSubtract) {
  DenseVector x{1, 2}, y{3, 5}, out;
  Add(x, y, out);
  EXPECT_EQ(out, (DenseVector{4, 7}));
  Subtract(y, x, out);
  EXPECT_EQ(out, (DenseVector{2, 3}));
}

TEST(DenseOps, SoftThresholdShrinksTowardZero) {
  DenseVector x{3.0, -3.0, 0.5, -0.5, 0.0};
  DenseVector out(5);
  SoftThreshold(x, 1.0, out);
  EXPECT_EQ(out, (DenseVector{2.0, -2.0, 0.0, 0.0, 0.0}));
}

TEST(DenseOps, SoftThresholdZeroKappaIsIdentity) {
  DenseVector x{1.5, -2.5}, out(2);
  SoftThreshold(x, 0.0, out);
  EXPECT_EQ(out, x);
}

TEST(DenseOps, SoftThresholdNegativeKappaThrows) {
  DenseVector x{1.0}, out(1);
  EXPECT_THROW(SoftThreshold(x, -0.1, out), InvalidArgument);
}

TEST(DenseOps, CountNonzeros) {
  DenseVector x{0.0, 1e-9, 0.5, -2.0};
  EXPECT_EQ(CountNonzeros(x), 3u);
  EXPECT_EQ(CountNonzeros(x, 1e-6), 2u);
}

// ------------------------------------------------------- sparse vector ----

TEST(SparseVector, FromDenseRoundTrip) {
  DenseVector dense{0.0, 1.5, 0.0, -2.0, 0.0};
  const auto sv = SparseVector::FromDense(dense);
  EXPECT_EQ(sv.nnz(), 2u);
  EXPECT_EQ(sv.dim(), 5u);
  EXPECT_EQ(sv.ToDense(), dense);

  // The in-place forms overwrite stale contents and resize their output.
  SparseVector reused(3, {0}, {9.0});
  reused.AssignFromDense(dense);
  EXPECT_EQ(reused, sv);
  DenseVector back{7.0, 7.0};
  reused.ToDense(back);
  EXPECT_EQ(back, dense);
}

TEST(SparseVector, ConstructorValidatesOrdering) {
  EXPECT_THROW(SparseVector(5, {3, 1}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(SparseVector(5, {1, 1}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(SparseVector(5, {5}, {1.0}), InvalidArgument);
  EXPECT_THROW(SparseVector(5, {1}, {1.0, 2.0}), InvalidArgument);
}

TEST(SparseVector, CountInRange) {
  const SparseVector sv(10, {1, 3, 7, 9}, {1, 2, 3, 4});
  EXPECT_EQ(sv.CountInRange(0, 10), 4u);
  EXPECT_EQ(sv.CountInRange(2, 8), 2u);
  EXPECT_EQ(sv.CountInRange(4, 7), 0u);
}

TEST(SparseVector, SumMergesIndices) {
  const SparseVector a(5, {0, 2}, {1.0, 2.0});
  const SparseVector b(5, {2, 4}, {3.0, 4.0});
  SparseVector s(1, {0}, {1.0});  // stale contents must be overwritten
  SparseVector::SumInto(a, b, s);
  EXPECT_EQ(s.nnz(), 3u);
  EXPECT_EQ(s.ToDense(), (DenseVector{1.0, 0.0, 5.0, 0.0, 4.0}));
}

TEST(SparseVector, DotWithDense) {
  const SparseVector sv(4, {0, 3}, {2.0, -1.0});
  const DenseVector d{1.0, 5.0, 5.0, 4.0};
  EXPECT_DOUBLE_EQ(sv.Dot(d), 2.0 - 4.0);
}

TEST(SparseVector, InPlaceVariantsRejectAliasing) {
  SparseVector a(5, {0, 2}, {1.0, 2.0});
  const SparseVector b(5, {2, 4}, {3.0, 4.0});
  EXPECT_THROW(SparseVector::SumInto(a, b, a), InvalidArgument);
  EXPECT_THROW(SparseVector::SumInto(b, a, a), InvalidArgument);
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double p, double q) {
                      return std::bit_cast<std::uint64_t>(p) ==
                             std::bit_cast<std::uint64_t>(q);
                    });
}

// AddPacked adds exactly the entries AssignFromDense would pack and reads
// every other one as +0.0: a NaN or -0.0 input leaves acc as it is, +0.0
// plus an entry is that entry, and the presence flags mark what was packed.
TEST(DenseOps, AddPackedAddsExactlyWhatAPackKeeps) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  const DenseVector x{1.5, -0.0, nan, inf, sub, 0.0, -2.0, nan};
  DenseVector acc{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, -inf};
  std::vector<unsigned char> present(x.size(), 0);
  present[5] = 1;  // flags are only ever set
  AddPacked(x, acc, present);
  EXPECT_TRUE(SameBits(acc, DenseVector{1.5, 0.0, 0.0, inf, sub, 0.0, 0.0,
                                        -inf}));
  EXPECT_EQ(present,
            (std::vector<unsigned char>{1, 0, 0, 1, 1, 1, 1, 0}));
  SparseVector packed;
  packed.AssignFromDense(x);
  DenseVector again(x.size(), 0.0);
  AddPacked(x, again);  // no presence flags
  EXPECT_TRUE(SameBits(again, packed.ToDense()));

  DenseVector shorter(3);
  std::vector<unsigned char> few(3);
  EXPECT_THROW(AddPacked(x, shorter), InvalidArgument);
  EXPECT_THROW(AddPacked(x, acc, few), InvalidArgument);
}

TEST(SparseVector, AssignFromDenseKeepsExactlyEntriesAboveTol) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  const DenseVector dense{0.0, -0.0, nan,  sub, -sub, 0.5,
                          -0.5, 1.0, -2.0, inf, -nan, 0.25};
  SparseVector sv;
  sv.AssignFromDense(dense);  // tol = 0: drops ±0.0 and NaN only
  EXPECT_EQ(sv.dim(), dense.size());
  EXPECT_EQ(std::vector<SparseVector::Index>(sv.indices().begin(),
                                             sv.indices().end()),
            (std::vector<SparseVector::Index>{3, 4, 5, 6, 7, 8, 9, 11}));
  EXPECT_TRUE(SameBits(sv.values(), DenseVector{sub, -sub, 0.5, -0.5, 1.0,
                                                -2.0, inf, 0.25}));

  sv.AssignFromDense(dense, 0.5);  // |v| == tol is dropped
  EXPECT_EQ(std::vector<SparseVector::Index>(sv.indices().begin(),
                                             sv.indices().end()),
            (std::vector<SparseVector::Index>{7, 8, 9}));
  EXPECT_TRUE(SameBits(sv.values(), DenseVector{1.0, -2.0, inf}));

  sv.AssignFromDense(DenseVector{});
  EXPECT_EQ(sv.dim(), 0u);
  EXPECT_TRUE(sv.empty());
}

TEST(SparseVector, AssignFromDenseReusesStorageAfterWarmUp) {
  Rng rng(31);
  const std::size_t dim = 257;
  SparseVector sv;
  sv.AssignFromDense(DenseVector(dim, 1.0));  // warm-up: every entry kept
  const auto* idx = sv.indices().data();
  const auto* val = sv.values().data();
  for (int round = 0; round < 20; ++round) {
    DenseVector dense(dim - static_cast<std::size_t>(round), 0.0);
    for (auto& e : dense) {
      if (rng.NextBool(0.1 * (round % 10))) e = rng.NextGaussian();
    }
    sv.AssignFromDense(dense);
    EXPECT_EQ(sv, SparseVector::FromDense(dense));
    if (!sv.empty()) {  // same buffers: no reallocation, so no allocation
      EXPECT_EQ(sv.indices().data(), idx);
      EXPECT_EQ(sv.values().data(), val);
    }
  }
}

TEST(SparseVector, AssignFromDenseBlockKeepsEveryValueButPositiveZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  SparseVector sv(9, {0, 1, 2, 3, 4, 5, 6, 7, 8}, DenseVector(9, 1.0));
  const auto* idx = sv.indices().data();
  sv.AssignFromDenseBlock(9, 3, DenseVector{0.0, -0.0, sub, nan, 2.0, 0.0});
  EXPECT_EQ(sv.dim(), 9u);
  EXPECT_EQ(std::vector<SparseVector::Index>(sv.indices().begin(),
                                             sv.indices().end()),
            (std::vector<SparseVector::Index>{4, 5, 6, 7}));
  EXPECT_TRUE(SameBits(sv.values(), DenseVector{-0.0, sub, nan, 2.0}));
  EXPECT_EQ(sv.indices().data(), idx);  // no reallocation

  sv.AssignFromDenseBlock(9, 9, DenseVector{});  // an empty block at the end
  EXPECT_TRUE(sv.empty());
  EXPECT_THROW(sv.AssignFromDenseBlock(9, 7, DenseVector(3, 1.0)),
               InvalidArgument);
}

/// Property: SumInto agrees with dense addition for random vectors.
class SparseSumProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseSumProperty, MatchesDenseAddition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t dim = 50;
  DenseVector da(dim, 0.0), db(dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    if (rng.NextBool(0.3)) da[i] = rng.NextGaussian();
    if (rng.NextBool(0.3)) db[i] = rng.NextGaussian();
  }
  SparseVector sum;
  SparseVector::SumInto(SparseVector::FromDense(da),
                        SparseVector::FromDense(db), sum);
  DenseVector expected;
  Add(da, db, expected);
  const auto actual = sum.ToDense();
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseSumProperty, ::testing::Range(0, 10));

// ---------------------------------------------------------- csr matrix ----

CsrMatrix MakeSmall() {
  // [1 0 2]
  // [0 3 0]
  CsrMatrix::Builder b(3);
  const CsrMatrix::Index c0[] = {0, 2};
  const double v0[] = {1.0, 2.0};
  b.AddRow(c0, v0);
  const CsrMatrix::Index c1[] = {1};
  const double v1[] = {3.0};
  b.AddRow(c1, v1);
  return b.Build();
}

TEST(CsrMatrix, BasicAccessors) {
  const auto m = MakeSmall();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.Density(), 0.5);
  EXPECT_EQ(m.MaxOccupiedColumn(), 3u);
}

TEST(CsrMatrix, Multiply) {
  const auto m = MakeSmall();
  DenseVector x{1, 1, 1}, out(2);
  m.Multiply(x, out);
  EXPECT_EQ(out, (DenseVector{3, 3}));
}

TEST(CsrMatrix, TransposeMultiplyAdd) {
  const auto m = MakeSmall();
  DenseVector v{1, 2}, out(3, 0.0);
  m.TransposeMultiplyAdd(v, out);
  EXPECT_EQ(out, (DenseVector{1, 6, 2}));
}

TEST(CsrMatrix, RowDotAndRow) {
  const auto m = MakeSmall();
  DenseVector x{2, 0, 1};
  EXPECT_DOUBLE_EQ(m.RowDot(0, x), 4.0);
  const auto row = m.Row(1);
  EXPECT_EQ(row.dim(), 3u);
  EXPECT_DOUBLE_EQ(row.ToDense()[1], 3.0);
}

TEST(CsrMatrix, SliceRows) {
  const auto m = MakeSmall();
  const auto s = m.SliceRows(1, 2);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_DOUBLE_EQ(s.RowValues(0)[0], 3.0);
}

TEST(CsrMatrix, ColumnNnz) {
  const auto m = MakeSmall();
  EXPECT_EQ(m.ColumnNnz(), (std::vector<std::size_t>{1, 1, 1}));
}

TEST(CsrMatrix, BuilderRejectsBadRows) {
  CsrMatrix::Builder b(3);
  const CsrMatrix::Index bad_order[] = {2, 1};
  const double v[] = {1.0, 2.0};
  EXPECT_THROW(b.AddRow(bad_order, v), InvalidArgument);
  const CsrMatrix::Index out_of_range[] = {3};
  const double v1[] = {1.0};
  EXPECT_THROW(b.AddRow(out_of_range, v1), InvalidArgument);
}

TEST(CsrMatrix, DimensionChecksOnKernels) {
  const auto m = MakeSmall();
  DenseVector bad(2), out2(2), out3(3);
  EXPECT_THROW(m.Multiply(bad, out2), InvalidArgument);
  EXPECT_THROW(m.TransposeMultiplyAdd(out3, out3), InvalidArgument);
}

/// Property: (A^T v) . x == v . (A x) for random matrices.
class CsrAdjointProperty : public ::testing::TestWithParam<int> {};

TEST_P(CsrAdjointProperty, AdjointIdentityHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t rows = 20, cols = 15;
  CsrMatrix::Builder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<CsrMatrix::Index> idx;
    std::vector<double> val;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(0.25)) {
        idx.push_back(c);
        val.push_back(rng.NextGaussian());
      }
    }
    b.AddRow(idx, val);
  }
  const auto m = b.Build();

  DenseVector x(cols), v(rows);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : v) e = rng.NextGaussian();

  DenseVector ax(rows), atv(cols, 0.0);
  m.Multiply(x, ax);
  m.TransposeMultiplyAdd(v, atv);
  EXPECT_NEAR(Dot(ax, v), Dot(x, atv), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrAdjointProperty, ::testing::Range(0, 10));

// ------------------------------------------------- fused dense kernels ----

// AxpyNormSq/XpayNormSq/CopyNormSq use the same four-lane accumulation as
// Dot (lane = index % 4, combined (a0+a1)+(a2+a3)), so the returned norm
// must be BITWISE equal to a follow-up Dot on the updated vector — that is
// what lets TRON swap its fused loops for these kernels without moving the
// committed convergence baselines.
TEST(DenseOps, AxpyNormSqUpdatesAndMatchesDotBitwise) {
  Rng rng(21);
  DenseVector x(37), y(37);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : y) e = rng.NextGaussian();
  auto expected = y;
  for (std::size_t i = 0; i < y.size(); ++i) expected[i] += 0.37 * x[i];
  const double nrm = AxpyNormSq(0.37, x, y);
  EXPECT_EQ(y, expected);
  EXPECT_EQ(nrm, Dot(y, y));
}

TEST(DenseOps, XpayNormSqUpdatesAndMatchesDotBitwise) {
  Rng rng(22);
  DenseVector x(41), y(41);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : y) e = rng.NextGaussian();
  auto expected = y;
  for (std::size_t i = 0; i < y.size(); ++i) {
    expected[i] = x[i] + -0.8 * expected[i];
  }
  const double nrm = XpayNormSq(-0.8, x, y);
  EXPECT_EQ(y, expected);
  EXPECT_EQ(nrm, Dot(y, y));
}

TEST(DenseOps, CopyNormSqCopiesAndMatchesDotBitwise) {
  Rng rng(23);
  DenseVector src(29), dst(29, 0.0), v(29);
  for (auto& e : src) e = rng.NextGaussian();
  for (auto& e : v) e = rng.NextGaussian();
  const double nrm = CopyNormSq(src, dst, v);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(nrm, Dot(v, v));
}

// Every four-lane reduction must agree with its unfused counterpart bit for
// bit in the default build too (where the compiler may contract a*b + c to
// FMA), at every tail length and at news20's model dimension.
class FourLanePins : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FourLanePins, FusedNormsEqualDotAndNorm2Bitwise) {
  const std::size_t n = GetParam();
  Rng rng(40 + n);
  DenseVector x(n), y(n), z(n);
  for (auto& e : x) e = rng.NextGaussian();
  for (auto& e : y) e = rng.NextGaussian();
  for (auto& e : z) e = rng.NextGaussian();

  DenseVector t = y;
  const double axpy = AxpyNormSq(0.37, x, t);
  EXPECT_EQ(axpy, Dot(t, t));
  EXPECT_EQ(std::sqrt(axpy), Norm2(t));

  t = y;
  const double xpay = XpayNormSq(-0.8, x, t);
  EXPECT_EQ(xpay, Dot(t, t));
  EXPECT_EQ(std::sqrt(xpay), Norm2(t));

  DenseVector dst(n, 0.0);
  const double copy = CopyNormSq(x, dst, z);
  EXPECT_EQ(dst, x);
  EXPECT_EQ(copy, Dot(z, z));
  EXPECT_EQ(std::sqrt(copy), Norm2(z));

  double dist = -1.0, nx = -1.0, ny = -1.0;
  DistanceAndNorms(x, z, y, dist, nx, ny);
  EXPECT_EQ(dist, DistanceL2(x, z));
  EXPECT_EQ(nx, Norm2(x));
  EXPECT_EQ(ny, Norm2(y));
}

// The summation order itself: lane k sums indices i = k (mod 4) over the
// full quads, the tail joins lane 0, lanes combine as (l0+l1)+(l2+l3).
// The first quad is (+2^53, -2^53, +2^53, -2^53); later +1s tie and round
// away in lanes 0 and 2, but lanes 1 and 3 count theirs (+1 and +2 per
// quad) exactly, and each pair cancels exactly. So the result is 3 per
// later quad, and a tail term in another lane, a shifted lane, another
// pairing or a left fold each change it at one of the lengths. Every term
// is exact (y = 1), so FMA contraction cannot move a bit.
TEST_P(FourLanePins, DotFollowsTheFourLaneOrder) {
  const std::size_t n = GetParam();
  DenseVector x(n, 1.0), y(n, 1.0);
  double want = static_cast<double>(n);  // n < 4: all tail, exact
  if (n >= 4) {
    const double big = std::ldexp(1.0, 53);
    x[0] = big;
    x[1] = -big;
    x[2] = big;
    x[3] = -big;
    for (std::size_t i = 7; i < n / 4 * 4; i += 4) x[i] = 2.0;
    want = 3.0 * static_cast<double>(n / 4 - 1);
  }
  EXPECT_EQ(Dot(x, y), want);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FourLanePins,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           13551));

TEST(DenseOps, FusedKernelDimensionChecks) {
  DenseVector a(3), b(4);
  EXPECT_THROW(AxpyNormSq(1.0, a, b), InvalidArgument);
  EXPECT_THROW(XpayNormSq(1.0, a, b), InvalidArgument);
  EXPECT_THROW(CopyNormSq(a, b, a), InvalidArgument);
  double d = 0.0, nx = 0.0, ny = 0.0;
  EXPECT_THROW(DistanceAndNorms(a, b, a, d, nx, ny), InvalidArgument);
}

// ------------------------------------------------------ symmetric gram ----

namespace {

/// Dense reference: G = sum_r w_r a_r a_r^T over the rows of m (w empty =
/// all ones), returned as a full dense matrix.
std::vector<double> DenseGram(const CsrMatrix& m,
                              std::span<const double> w) {
  const auto d = static_cast<std::size_t>(m.cols());
  std::vector<double> g(d * d, 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowIndices(r);
    const auto vals = m.RowValues(r);
    const double wr = w.empty() ? 1.0 : w[r];
    for (std::size_t a = 0; a < cols.size(); ++a) {
      for (std::size_t b = 0; b < cols.size(); ++b) {
        g[static_cast<std::size_t>(cols[a]) * d +
          static_cast<std::size_t>(cols[b])] += wr * vals[a] * vals[b];
      }
    }
  }
  return g;
}

CsrMatrix RandomTall(std::uint64_t seed, std::size_t rows, std::size_t cols,
                     double density = 0.4, bool with_empty_rows = false) {
  Rng rng(seed);
  CsrMatrix::Builder b(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<CsrMatrix::Index> idx;
    std::vector<double> val;
    if (!(with_empty_rows && r % 5 == 0)) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (rng.NextBool(density)) {
          idx.push_back(c);
          val.push_back(rng.NextGaussian());
        }
      }
    }
    b.AddRow(idx, val);
  }
  return b.Build();
}

}  // namespace

TEST(SymmetricGram, AccumulatesOuterProductsLikeDenseReference) {
  const auto m = RandomTall(31, 12, 5);
  SymmetricGram g;
  g.Reset(static_cast<std::size_t>(m.cols()));
  m.GramProduct(DenseVector(m.rows(), 1.0), g);
  const auto ref = DenseGram(m, {});
  for (std::size_t i = 0; i < g.dim(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(g.At(i, j), ref[i * g.dim() + j], 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(SymmetricGram, WeightedGramMatchesDenseReference) {
  const auto m = RandomTall(32, 15, 4);
  DenseVector w(15);
  Rng rng(33);
  for (auto& e : w) e = 0.1 + std::fabs(rng.NextGaussian());
  SymmetricGram g;
  g.Reset(static_cast<std::size_t>(m.cols()));
  m.GramProduct(w, g);
  const auto ref = DenseGram(m, w);
  for (std::size_t i = 0; i < g.dim(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(g.At(i, j), ref[i * g.dim() + j], 1e-12);
    }
  }
}

TEST(SymmetricGram, GramProductHandlesEmptyRowsAndSingleColumn) {
  // Empty rows contribute nothing; a single-column shard packs to one entry.
  const auto m = RandomTall(34, 20, 1, 0.9, /*with_empty_rows=*/true);
  SymmetricGram g;
  g.Reset(1);
  m.GramProduct(DenseVector(m.rows(), 1.0), g);
  double ref = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (const double v : m.RowValues(r)) ref += v * v;
  }
  EXPECT_EQ(g.packed_size(), 1u);
  EXPECT_NEAR(g.At(0, 0), ref, 1e-12);
}

TEST(SymmetricGram, AddDiagonalAndMultiplyMatchDense) {
  const auto m = RandomTall(35, 10, 6);
  SymmetricGram g;
  g.Reset(6);
  m.GramProduct(DenseVector(m.rows(), 1.0), g);
  g.AddDiagonal(0.9);
  auto ref = DenseGram(m, {});
  for (std::size_t i = 0; i < 6; ++i) ref[i * 6 + i] += 0.9;

  Rng rng(36);
  DenseVector x(6), out(6, -1.0);
  for (auto& e : x) e = rng.NextGaussian();
  g.Multiply(x, out);
  for (std::size_t i = 0; i < 6; ++i) {
    double want = 0.0;
    for (std::size_t j = 0; j < 6; ++j) want += ref[i * 6 + j] * x[j];
    EXPECT_NEAR(out[i], want, 1e-12) << "row " << i;
  }
}

// ----------------------------------------- blocked CSR kernel contracts ----

namespace {

/// Scalar reference loops with the natural sequential accumulation order —
/// the order the blocked kernels are required to preserve bitwise (the
/// committed sweep baselines pin convergence integers that depend on it).
void ScalarMultiply(const CsrMatrix& m, std::span<const double> x,
                    std::span<double> out) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.RowIndices(r);
    const auto vals = m.RowValues(r);
    double acc = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    out[r] = acc;
  }
}

void ScalarTransposeMultiplyAdd(const CsrMatrix& m, std::span<const double> v,
                                std::span<double> out) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    const auto cols = m.RowIndices(r);
    const auto vals = m.RowValues(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out[static_cast<std::size_t>(cols[k])] += vr * vals[k];
    }
  }
}

}  // namespace

TEST(CsrMatrix, BlockedMultiplyIsBitwiseEqualToScalar) {
  for (const std::uint64_t seed : {41, 42, 43}) {
    // Odd row counts exercise the tail; empty rows exercise the lockstep
    // loop's early exit; single-column matrices the degenerate shape.
    const std::vector<std::tuple<std::size_t, std::size_t, bool>> shapes = {
        {23, 9, true}, {16, 1, false}, {3, 7, true}};
    for (const auto& [rows, cols, empty] : shapes) {
      const auto m = RandomTall(seed, rows, cols, 0.5, empty);
      Rng rng(seed + 7);
      DenseVector x(cols), got(rows, -1.0), want(rows, -2.0);
      for (auto& e : x) e = rng.NextGaussian();
      m.Multiply(x, got);
      ScalarMultiply(m, x, want);
      EXPECT_EQ(got, want) << "seed " << seed << " rows " << rows;
    }
  }
}

TEST(CsrMatrix, BlockedTransposeMultiplyAddIsBitwiseEqualToScalar) {
  for (const std::uint64_t seed : {44, 45}) {
    const auto m = RandomTall(seed, 21, 8, 0.5, /*with_empty_rows=*/true);
    Rng rng(seed + 7);
    DenseVector v(21), got(8), want(8);
    for (auto& e : v) e = rng.NextGaussian();
    v[3] = 0.0;  // exercise the vr == 0 skip
    for (std::size_t i = 0; i < 8; ++i) got[i] = want[i] = 0.25 * i;
    m.TransposeMultiplyAdd(v, got);
    ScalarTransposeMultiplyAdd(m, v, want);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(CsrMatrix, MaxOccupiedColumnIsCachedForAllShapes) {
  // All-empty matrix: no occupied column.
  CsrMatrix::Builder b0(4);
  b0.AddRow({}, {});
  b0.AddRow({}, {});
  EXPECT_EQ(b0.Build().MaxOccupiedColumn(), 0u);

  // Mixed empty/nonempty rows: the cache must track the global maximum,
  // not the last row's.
  CsrMatrix::Builder b1(10);
  const CsrMatrix::Index c0[] = {7};
  const double v0[] = {1.0};
  b1.AddRow(c0, v0);
  b1.AddRow({}, {});
  const CsrMatrix::Index c2[] = {2};
  b1.AddRow(c2, v0);
  EXPECT_EQ(b1.Build().MaxOccupiedColumn(), 8u);

  // Single-column shard.
  CsrMatrix::Builder b2(1);
  const CsrMatrix::Index c3[] = {0};
  b2.AddRow(c3, v0);
  EXPECT_EQ(b2.Build().MaxOccupiedColumn(), 1u);
}

}  // namespace
}  // namespace psra::linalg
