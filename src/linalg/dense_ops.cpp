#include "linalg/dense_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/status.hpp"

namespace psra::linalg {

namespace {

// The four-lane summation order of Dot, Norm2, DistanceL2,
// DistanceAndNorms and the fused update kernels: lane k sums the terms of
// indices i = k (mod 4) in index order over the full quads, the n % 4 tail
// terms then join lane 0 in index order, and the lanes combine as
// (l0 + l1) + (l2 + l3). A single accumulator would serialize on FP-add
// latency; the lane of an index is fixed, so the result is deterministic
// (just a different, equally valid, summation order).
//
// The lanes live in one GCC/Clang 4-double vector, so a quad costs one
// vector multiply-add instead of permutes feeding scalar adds. Quads are
// passed by reference only: a by-value 32-byte vector has a
// -march-dependent ABI.
typedef double Quad __attribute__((vector_size(32)));

// Four consecutive doubles at any alignment; memcpy compiles to one
// unaligned vector move.
void Load(Quad& q, const double* p) { std::memcpy(&q, p, sizeof q); }
void Store(double* p, const Quad& q) { std::memcpy(p, &q, sizeof q); }

class FourLaneSum {
 public:
  void AddQuad(const Quad& terms) { lanes_ += terms; }
  /// Tail terms come after every quad, in index order.
  void AddTail(double term) { lanes_[0] += term; }
  double Total() const {
    return (lanes_[0] + lanes_[1]) + (lanes_[2] + lanes_[3]);
  }

 private:
  Quad lanes_{};
};

}  // namespace

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void Scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double AxpyNormSq(double alpha, std::span<const double> x,
                  std::span<double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "axpy-normsq dimension mismatch");
  const std::size_t n = x.size();
  FourLaneSum s;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Quad t{}, xq{};
    Load(t, y.data() + i);
    Load(xq, x.data() + i);
    t += alpha * xq;
    Store(y.data() + i, t);
    s.AddQuad(t * t);
  }
  for (; i < n; ++i) {
    const double t = y[i] + alpha * x[i];
    y[i] = t;
    s.AddTail(t * t);
  }
  return s.Total();
}

double XpayNormSq(double beta, std::span<const double> x,
                  std::span<double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "xpay-normsq dimension mismatch");
  const std::size_t n = x.size();
  FourLaneSum s;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Quad t{}, yq{};
    Load(t, x.data() + i);
    Load(yq, y.data() + i);
    t += beta * yq;
    Store(y.data() + i, t);
    s.AddQuad(t * t);
  }
  for (; i < n; ++i) {
    const double t = x[i] + beta * y[i];
    y[i] = t;
    s.AddTail(t * t);
  }
  return s.Total();
}

double CopyNormSq(std::span<const double> src, std::span<double> dst,
                  std::span<const double> v) {
  PSRA_REQUIRE(src.size() == dst.size() && src.size() == v.size(),
               "copy-normsq dimension mismatch");
  const std::size_t n = src.size();
  FourLaneSum s;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::memcpy(dst.data() + i, src.data() + i, sizeof(Quad));
    Quad vq{};
    Load(vq, v.data() + i);
    s.AddQuad(vq * vq);
  }
  for (; i < n; ++i) {
    dst[i] = src[i];
    s.AddTail(v[i] * v[i]);
  }
  return s.Total();
}

void Gemv(std::span<const double> a, std::size_t rows, std::size_t cols,
          std::span<const double> x, std::span<double> y) {
  PSRA_REQUIRE(a.size() == rows * cols, "gemv matrix size mismatch");
  PSRA_REQUIRE(x.size() == cols && y.size() == rows,
               "gemv vector size mismatch");
  std::size_t r = 0;
  // Four rows in lockstep: eight independent accumulator chains (two per
  // row) hide FP-add latency while x is read once per block.
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a.data() + r * cols;
    const double* a1 = a0 + cols;
    const double* a2 = a1 + cols;
    const double* a3 = a2 + cols;
    double s00 = 0.0, s01 = 0.0, s10 = 0.0, s11 = 0.0;
    double s20 = 0.0, s21 = 0.0, s30 = 0.0, s31 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= cols; j += 2) {
      const double x0 = x[j];
      const double x1 = x[j + 1];
      s00 += a0[j] * x0;
      s01 += a0[j + 1] * x1;
      s10 += a1[j] * x0;
      s11 += a1[j + 1] * x1;
      s20 += a2[j] * x0;
      s21 += a2[j + 1] * x1;
      s30 += a3[j] * x0;
      s31 += a3[j + 1] * x1;
    }
    for (; j < cols; ++j) {
      const double xj = x[j];
      s00 += a0[j] * xj;
      s10 += a1[j] * xj;
      s20 += a2[j] * xj;
      s30 += a3[j] * xj;
    }
    y[r] = s00 + s01;
    y[r + 1] = s10 + s11;
    y[r + 2] = s20 + s21;
    y[r + 3] = s30 + s31;
  }
  for (; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    double s0 = 0.0, s1 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= cols; j += 2) {
      s0 += row[j] * x[j];
      s1 += row[j + 1] * x[j + 1];
    }
    for (; j < cols; ++j) s0 += row[j] * x[j];
    y[r] = s0 + s1;
  }
}

void GemvT(std::span<const double> a, std::size_t rows, std::size_t cols,
           std::span<const double> x, std::span<double> y) {
  PSRA_REQUIRE(a.size() == rows * cols, "gemv-t matrix size mismatch");
  PSRA_REQUIRE(x.size() == rows && y.size() == cols,
               "gemv-t vector size mismatch");
  SetZero(y);
  std::size_t r = 0;
  // Four rows per sweep: each output element receives one pairwise-combined
  // contribution per block, a fixed function of the row index, so the
  // result is deterministic.
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a.data() + r * cols;
    const double* a1 = a0 + cols;
    const double* a2 = a1 + cols;
    const double* a3 = a2 + cols;
    const double x0 = x[r];
    const double x1 = x[r + 1];
    const double x2 = x[r + 2];
    const double x3 = x[r + 3];
    for (std::size_t j = 0; j < cols; ++j) {
      y[j] += (x0 * a0[j] + x1 * a1[j]) + (x2 * a2[j] + x3 * a3[j]);
    }
  }
  for (; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    const double xr = x[r];
    for (std::size_t j = 0; j < cols; ++j) y[j] += xr * row[j];
  }
}

double Dot(std::span<const double> x, std::span<const double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "dot dimension mismatch");
  const std::size_t n = x.size();
  FourLaneSum s;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Quad xq{}, yq{};
    Load(xq, x.data() + i);
    Load(yq, y.data() + i);
    s.AddQuad(xq * yq);
  }
  for (; i < n; ++i) s.AddTail(x[i] * y[i]);
  return s.Total();
}

double Norm2(std::span<const double> x) { return std::sqrt(Dot(x, x)); }

double Norm1(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += std::fabs(v);
  return acc;
}

double NormInf(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc = std::max(acc, std::fabs(v));
  return acc;
}

double DistanceL2(std::span<const double> x, std::span<const double> y) {
  PSRA_REQUIRE(x.size() == y.size(), "distance dimension mismatch");
  const std::size_t n = x.size();
  FourLaneSum s;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Quad d{}, yq{};
    Load(d, x.data() + i);
    Load(yq, y.data() + i);
    d -= yq;
    s.AddQuad(d * d);
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    s.AddTail(d * d);
  }
  return std::sqrt(s.Total());
}

void DistanceAndNorms(std::span<const double> x, std::span<const double> z,
                      std::span<const double> y, double& dist_xz,
                      double& norm_x, double& norm_y) {
  PSRA_REQUIRE(x.size() == z.size() && x.size() == y.size(),
               "distance-and-norms dimension mismatch");
  const std::size_t n = x.size();
  FourLaneSum sd, sx, sy;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Quad xq{}, zq{}, yq{};
    Load(xq, x.data() + i);
    Load(zq, z.data() + i);
    Load(yq, y.data() + i);
    const Quad d = xq - zq;
    sd.AddQuad(d * d);
    sx.AddQuad(xq * xq);
    sy.AddQuad(yq * yq);
  }
  for (; i < n; ++i) {
    const double d = x[i] - z[i];
    sd.AddTail(d * d);
    sx.AddTail(x[i] * x[i]);
    sy.AddTail(y[i] * y[i]);
  }
  dist_xz = std::sqrt(sd.Total());
  norm_x = std::sqrt(sx.Total());
  norm_y = std::sqrt(sy.Total());
}

void Add(std::span<const double> x, std::span<const double> y,
         DenseVector& out) {
  PSRA_REQUIRE(x.size() == y.size(), "add dimension mismatch");
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] + y[i];
}

void Subtract(std::span<const double> x, std::span<const double> y,
              DenseVector& out) {
  PSRA_REQUIRE(x.size() == y.size(), "subtract dimension mismatch");
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - y[i];
}

void SetZero(std::span<double> x) { std::fill(x.begin(), x.end(), 0.0); }

void SoftThreshold(std::span<const double> x, double kappa,
                   std::span<double> out) {
  PSRA_REQUIRE(x.size() == out.size(), "soft-threshold dimension mismatch");
  PSRA_REQUIRE(kappa >= 0.0, "soft-threshold kappa must be non-negative");
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    if (v > kappa) {
      out[i] = v - kappa;
    } else if (v < -kappa) {
      out[i] = v + kappa;
    } else {
      out[i] = 0.0;
    }
  }
}

void RoundToFloat(std::span<double> x) {
  for (double& v : x) v = static_cast<double>(static_cast<float>(v));
}

std::size_t CountNonzeros(std::span<const double> x, double tol) {
  std::size_t n = 0;
  for (double v : x) {
    if (std::fabs(v) > tol) ++n;
  }
  return n;
}

}  // namespace psra::linalg
