// TRON: trust-region Newton method (Lin, Weng, Keerthi 2007 [paper ref 14])
// with a Steihaug-Toint truncated conjugate-gradient inner solver.
//
// This is the sub-problem solver the paper uses for the ADMM x-update
// (eq. 4). It works matrix-free against ProximalLogistic (value, gradient,
// Hessian-vector products) and reports flop counts so the engines can charge
// virtual compute time.
#pragma once

#include <span>

#include "solver/logistic.hpp"

namespace psra::solver {

struct TronOptions {
  int max_iterations = 50;
  int max_cg_iterations = 50;
  /// Stop when ||grad|| <= gradient_tolerance * ||grad_0||.
  double gradient_tolerance = 1e-3;
  /// Additional absolute stop: ||grad|| <= absolute_tolerance. Useful for
  /// warm starts, where ||grad_0|| is already tiny and a purely relative
  /// test could never be met. 0 disables.
  double absolute_tolerance = 0.0;
};

struct TronResult {
  int iterations = 0;
  int cg_iterations = 0;
  double objective = 0.0;
  double gradient_norm = 0.0;
  bool converged = false;
};

/// Preallocated working vectors for TronMinimize. Callers that solve the
/// same-dimension subproblem every iteration (the ADMM x-update) keep one
/// workspace per worker and pass it to every call, making the solve
/// allocation-free in steady state.
struct TronWorkspace {
  linalg::DenseVector grad;
  linalg::DenseVector grad_new;
  linalg::DenseVector x_new;
  linalg::DenseVector step;
  // Truncated-CG state.
  linalg::DenseVector cg_r;
  linalg::DenseVector cg_p;
  linalg::DenseVector cg_hp;

  /// Sizes every vector to `dim` (no-op once warm).
  void Resize(std::size_t dim);
};

/// Minimizes f starting from (and writing back to) x.
TronResult TronMinimize(const ProximalLogistic& f, std::span<double> x,
                        const TronOptions& options = {},
                        FlopCounter* flops = nullptr);

/// Workspace overload: identical results, all temporaries drawn from `ws`.
TronResult TronMinimize(const ProximalLogistic& f, std::span<double> x,
                        const TronOptions& options, FlopCounter* flops,
                        TronWorkspace& ws);

}  // namespace psra::solver
