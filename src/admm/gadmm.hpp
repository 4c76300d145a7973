// GADMM and Q-GADMM baselines (paper Related Work, refs [3] and [4]).
//
// GADMM (Elgabli et al., JMLR 2020) solves
//     min sum_n f_n(x_n)   s.t.  x_n = x_{n+1},  n = 1..N-1
// over a logical chain of workers split into a HEAD group (odd positions)
// and a TAIL group (even positions). Each iteration:
//   1. head workers update x_n given their two neighbors' latest models,
//   2. head workers push x_n to their neighbors,
//   3. tail workers update x_n given the fresh head models,
//   4. tail workers push x_n; every worker updates its link duals
//      lambda_n += rho (x_n - x_{n+1}).
// Every worker talks to at most two neighbors, so per-iteration traffic is
// O(d) per worker regardless of N — the communication-efficiency idea the
// paper contrasts with its own hierarchical scheme.
//
// Q-GADMM additionally quantizes every transmitted model with stochastic
// uniform quantization (configurable bit width) around the receiver's last
// copy, which cuts the wire cost by ~64/(bits+overhead).
//
// The x_n update
//   argmin f_n(x) + lambda_{n-1}^T (x_prev - x) + lambda_n^T (x - x_next)
//          + rho/2 (||x_prev - x||^2 + ||x - x_next||^2)
// is mapped onto the consensus engines' LocalSolver (eq. 4, column-compacted):
// the sum of the two quadratic proximal terms equals
// rho ||x - (x_prev+x_next)/2||^2 + const, and the linear terms fold into
// v = lambda_n - lambda_{n-1}.
//
// Note: unlike the consensus algorithms there is no global z; metrics are
// evaluated on the chain-average model, and the L1 term is handled by each
// worker owning lambda/N of the global regularizer smoothed away — GADMM as
// published targets differentiable f_n, so we run it on the smooth logistic
// part and report the same global objective (eq. 17) for comparability.
#pragma once

#include <string>

#include "admm/common.hpp"

namespace psra::admm {

/// Workers are chained by global rank (rank r talks to r-1 and r+1), so
/// neighbors are usually on the same node — the layout the GADMM paper
/// assumes. Q-GADMM always quantizes against the receiver's last copy
/// (error feedback).
struct GadmmConfig {
  ClusterConfig cluster;
  /// Quantization bit-width for transmitted models. 0 = no quantization
  /// (plain GADMM); 1..16 = Q-GADMM with that many bits per value.
  std::uint32_t quantization_bits = 0;
};

class Gadmm {
 public:
  explicit Gadmm(const GadmmConfig& config);

  std::string Name() const;

  RunResult Run(const ConsensusProblem& problem,
                const RunOptions& options) const;

 private:
  GadmmConfig cfg_;
};

}  // namespace psra::admm
