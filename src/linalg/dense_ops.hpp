// Dense vector kernels.
//
// DenseVector is a plain std::vector<double>; these free functions provide the
// BLAS-1 style operations the solvers and collectives need. All functions
// validate dimensions via PSRA_REQUIRE.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "support/status.hpp"

namespace psra::linalg {

using DenseVector = std::vector<double>;

/// y += alpha * x
void Axpy(double alpha, std::span<const double> x, std::span<double> y);

/// y += x (bitwise Axpy(1.0, x, y)), returning the number of entries with
/// |x_i| > 0, the entries SparseVector::FromDense(x) keeps: the nonzero
/// count of a message, taken in the pass that sums it.
std::size_t AddCountNonzeros(std::span<const double> x, std::span<double> y);

/// acc += x over the entries a sparse message of x carries: those with
/// |x_i| > 0, the ones SparseVector::FromDense(x) keeps. Every other entry
/// (±0.0, NaN) is read as +0.0, so an acc that starts at +0.0 never holds
/// -0.0 and folds bitwise what SparseBlockFold folds from the packed
/// messages. With a non-empty `present` (one flag per coordinate), also
/// sets the flag of every entry carried.
void AddPacked(std::span<const double> x, std::span<double> acc,
               std::span<unsigned char> present = {});

// Fused BLAS-1 kernels (DESIGN.md §14). Each combines an update with the
// reduction the solver needs next, so the vector is streamed once instead of
// twice. Every reduction in this file (Dot, Norm2, DistanceL2 and the fused
// kernels) uses one four-lane summation order (DESIGN.md §7), so a fused
// kernel returns bitwise what the unfused update-then-reduce pair would.

/// y += alpha * x, returning ||y||^2 (four-lane order).
double AxpyNormSq(double alpha, std::span<const double> x,
                  std::span<double> y);

/// y = x + beta * y, returning ||y||^2 (four-lane order). This is the CG
/// direction update p = r + beta p.
double XpayNormSq(double beta, std::span<const double> x, std::span<double> y);

/// dst = src, fused with ||v||^2 over a third vector (four-lane order).
/// TRON's accept-copy: x = x_new while re-measuring the new gradient norm.
double CopyNormSq(std::span<const double> src, std::span<double> dst,
                  std::span<const double> v);

/// x *= alpha
void Scale(double alpha, std::span<double> x);

/// <x, y>
double Dot(std::span<const double> x, std::span<const double> y);

/// ||x||_2
double Norm2(std::span<const double> x);

/// ||x||_1
double Norm1(std::span<const double> x);

/// max_i |x_i|
double NormInf(std::span<const double> x);

/// ||x - y||_2
double DistanceL2(std::span<const double> x, std::span<const double> y);

/// ||x - z||_2, ||x||_2 and ||y||_2 in one pass, each bitwise equal to the
/// separate DistanceL2 / Norm2 call (the ADMM residual norms of one worker).
void DistanceAndNorms(std::span<const double> x, std::span<const double> z,
                      std::span<const double> y, double& dist_xz,
                      double& norm_x, double& norm_y);

/// DistanceAndNorms taken block by block: Add consecutive blocks of the
/// three vectors in order, each a multiple of 4 long except the last, then
/// Finish. The result is bitwise DistanceAndNorms of the concatenated
/// vectors, so a caller can assemble each block in a small buffer (one
/// worker's values read through its shared base, DESIGN.md §7 rule 8).
class BlockedNorms {
 public:
  void Add(std::span<const double> x, std::span<const double> z,
           std::span<const double> y);
  void Finish(double& dist_xz, double& norm_x, double& norm_y) const;

 private:
  double sd_[4] = {}, sx_[4] = {}, sy_[4] = {};  // four-lane partial sums
  bool closed_ = false;  // a block ended off a quad: it was the last
};

/// out = x + y (resizes out)
void Add(std::span<const double> x, std::span<const double> y,
         DenseVector& out);

/// out = x - y (resizes out)
void Subtract(std::span<const double> x, std::span<const double> y,
              DenseVector& out);

/// x := 0
void SetZero(std::span<double> x);

/// Elementwise soft-threshold: out_i = sign(x_i) * max(|x_i| - kappa, 0).
/// This is the proximal operator of kappa * ||.||_1.
void SoftThreshold(std::span<const double> x, double kappa,
                   std::span<double> out);

/// Number of entries with |x_i| > tol.
std::size_t CountNonzeros(std::span<const double> x, double tol = 0.0);

/// Rounds every entry through IEEE single precision (mixed-precision
/// communication: values are transmitted as fp32 and widened back).
void RoundToFloat(std::span<double> x);

/// Dense counterpart of SparseBlockFold, folding in place into a block of
/// the caller's vector: either from zeros (every contribution is added) or
/// from the first contribution (copied, later ones added), in Add() order.
class DenseBlockFold {
 public:
  void Reset(std::span<double> block, bool from_zero) {
    acc_ = block;
    started_ = from_zero;
    if (from_zero) SetZero(block);
  }

  /// Folds in one contribution to the block (block-sized).
  void Add(std::span<const double> x) {
    if (started_) {
      Axpy(1.0, x, acc_);
    } else {
      PSRA_REQUIRE(x.size() == acc_.size(), "fold contribution size mismatch");
      std::copy(x.begin(), x.end(), acc_.begin());
    }
    started_ = true;
  }

  std::size_t size() const { return acc_.size(); }

 private:
  std::span<double> acc_;
  bool started_ = false;
};

}  // namespace psra::linalg
