// L2-proximal logistic loss for the ADMM x-subproblem (paper eq. 4):
//
//   phi(x) = sum_s log(1 + exp(-y_s a_s^T x)) + x^T v + (rho/2) ||x - z||^2
//
// with v the dual term (y_i in the paper) and z the consensus iterate.
// Provides value, gradient and Hessian-vector products (H = A^T D A + rho I)
// so TRON can run matrix-free over the CSR shard.
#pragma once

#include <span>

#include "data/dataset.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/gram.hpp"
#include "solver/flops.hpp"

namespace psra::solver {

/// Plain logistic loss over a dataset (no proximal terms); also used to
/// evaluate the global objective on the full training set.
double LogisticValue(const data::Dataset& ds, std::span<const double> x,
                     FlopCounter* flops = nullptr);

class ProximalLogistic {
 public:
  /// `shard` must outlive this object. rho >= 0; v and z have the feature
  /// dimension (either may be empty spans meaning zero).
  ProximalLogistic(const data::Dataset* shard, double rho);

  /// Sets the proximal center z and linear term v for the current ADMM
  /// iteration. Both must have size dim() (enforced).
  void SetIterationTerms(std::span<const double> v, std::span<const double> z);

  /// Updates the proximal weight (adaptive-penalty ADMM changes rho between
  /// iterations).
  void SetRho(double rho);
  double rho() const { return rho_; }

  /// Enables the Gram-accelerated Hessian path (transpose reduction,
  /// DESIGN.md §14): PrepareHessian* additionally accumulates the packed
  /// weighted Gram G = A^T D A + rho I once per outer TRON iteration, after
  /// which every Hessian-vector product is a dense d x d symmetric matvec
  /// that never re-streams the shard. Pays off on tall shards
  /// (num_samples >> dim). The Gram buffer is preallocated here so the
  /// iteration hot path stays allocation-free.
  void SetUseGramHessian(bool on);
  bool use_gram_hessian() const { return use_gram_; }

  std::uint64_t dim() const;
  std::uint64_t num_samples() const;

  /// phi(x); also caches the per-sample margins for the follow-up gradient.
  double Value(std::span<const double> x, FlopCounter* flops = nullptr) const;

  /// grad = nabla phi(x). Returns phi(x).
  double ValueAndGradient(std::span<const double> x, std::span<double> grad,
                          FlopCounter* flops = nullptr) const;

  /// Prepares Hessian state at x (per-sample sigma weights); must be called
  /// before HessianVec.
  void PrepareHessian(std::span<const double> x,
                      FlopCounter* flops = nullptr) const;

  /// PrepareHessian at the point of the most recent ValueAndGradient call,
  /// reusing its cached per-sample sigmas: no matrix product and no
  /// transcendentals, with weights bit-identical to PrepareHessian at that
  /// point. The caller is responsible for knowing the last gradient
  /// evaluation happened at the intended x (TRON tracks this across
  /// accepted/rejected trial steps).
  void PrepareHessianFromLastGradient(FlopCounter* flops = nullptr) const;

  /// out = (A^T D A + rho I) d, with D from the last PrepareHessian call.
  void HessianVec(std::span<const double> d, std::span<double> out,
                  FlopCounter* flops = nullptr) const;

  /// HessianVec plus the quadratic form: returns d^T H d, with <d, d> = `dd`
  /// supplied by the caller (CG maintains it via a recurrence, so the
  /// quadratic costs no extra pass over the feature dimension).
  double HessianVecQuad(std::span<const double> d, double dd,
                        std::span<double> out,
                        FlopCounter* flops = nullptr) const;

 private:
  const data::Dataset* shard_;
  double rho_;
  std::span<const double> v_;
  std::span<const double> z_;
  // Set by SetIterationTerms (spans of a zero-dimension problem are empty).
  bool terms_set_ = false;
  // Scratch: per-sample weights sigma*(1-sigma) for Hessian products, margin
  // buffers and per-sample coefficient vectors. Mutable because they are
  // caches, not state; they grow once to num_samples() and are recycled, so
  // repeated evaluations do not allocate.
  mutable linalg::DenseVector hess_weights_;
  mutable linalg::DenseVector margins_;
  mutable linalg::DenseVector coeff_;
  mutable linalg::DenseVector sigmas_;
  mutable linalg::DenseVector hessvec_tmp_;
  // Transpose-reduction state: packed weighted Gram (rho baked into the
  // diagonal at build time) rebuilt by PrepareHessian* while enabled.
  bool use_gram_ = false;
  double gram_flops_ = 0.0;  // cost of one A^T D A accumulation
  mutable linalg::SymmetricGram gram_;

  void BuildGramFromWeights(FlopCounter* flops) const;
};

}  // namespace psra::solver
