// Common types of the transient-solver layer.
//
// Every method computes the paper's two measures for a rewarded CTMC:
//   TRR(t) = E[r_{X(t)}]            (transient reward rate)
//   MRR(t) = (1/t) Int_0^t TRR      (mean reward rate over [0, t])
// with a user-specified total error bound eps, and reports the work done in
// the units the paper's tables use (DTMC steps of model-sized chains,
// auxiliary-solve steps, Laplace abscissae).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "support/contracts.hpp"

namespace rrl {

/// Work/accuracy accounting attached to every solver answer.
struct SolverStats {
  /// Steps of DTMCs "of about the same size as X^": the randomization steps
  /// of SR/RSD, or K (+ L) for RR/RRL. This is the quantity of the paper's
  /// Tables 1-2.
  std::int64_t dtmc_steps = 0;
  /// RR only: randomization steps spent solving the truncated transformed
  /// model V_{K,L}.
  std::int64_t vmodel_steps = 0;
  /// RRL only: Laplace transform evaluations used by the inversion.
  int abscissae = 0;
  /// Wall-clock seconds of the whole solve (the paper's Figures 3-4).
  double seconds = 0.0;
  /// RRL only: wall-clock seconds inside the numerical inversion (the paper
  /// reports ~1-2% of total RRL time).
  double laplace_seconds = 0.0;
  /// Randomization rate Lambda used.
  double lambda = 0.0;
  /// True if a step cap fired and the reported value may not meet eps.
  bool capped = false;
  /// RSD only: step at which steady-state was detected (-1 if never).
  std::int64_t detection_step = -1;
  /// RRL only: true if the inversion series converged within its term cap.
  bool inversion_converged = true;
};

/// A measure value plus the work that produced it.
struct TransientValue {
  double value = 0.0;
  SolverStats stats;
};

/// Largest reward rate r_max = max_i r_i (enters every error bound).
[[nodiscard]] inline double max_reward(std::span<const double> rewards) {
  double m = 0.0;
  for (const double r : rewards) {
    RRL_EXPECTS(r >= 0.0);
    m = std::max(m, r);
  }
  return m;
}

/// Validate that `dist` is a probability distribution over `n` states.
/// The mass tolerance scales with n: a distribution assembled from many
/// small entries accumulates ~n ulp-level rounding errors, so a fixed
/// 1e-9 bound would reject valid initial distributions on large models.
inline void check_distribution(std::span<const double> dist, index_t n) {
  RRL_EXPECTS(static_cast<index_t>(dist.size()) == n);
  double total = 0.0;
  for (const double p : dist) {
    RRL_EXPECTS(p >= 0.0 && p <= 1.0 + 1e-12);
    total += p;
  }
  const double tol = std::max(1e-9, 1e-12 * static_cast<double>(n));
  RRL_EXPECTS(std::abs(total - 1.0) <= tol);
}

/// Indices of states with non-zero reward (reward vectors of dependability
/// measures are extremely sparse; dot products iterate only these).
[[nodiscard]] inline std::vector<index_t> nonzero_reward_states(
    std::span<const double> rewards) {
  std::vector<index_t> idx;
  for (std::size_t i = 0; i < rewards.size(); ++i) {
    if (rewards[i] != 0.0) idx.push_back(static_cast<index_t>(i));
  }
  return idx;
}

/// The entries of a sorted index list below `live`: the only terms of a
/// sparse reward dot that can be non-zero while the iterate is zero from
/// `live` on (the live prefix of markov/dtmc.hpp). Dropping the others
/// leaves the dot's bits unchanged — each would add +0.0 to an
/// accumulator that started at +0.0 and so can never be -0.0.
[[nodiscard]] inline std::span<const index_t> indices_below(
    std::span<const index_t> idx, index_t live) {
  const auto end = std::lower_bound(idx.begin(), idx.end(), live);
  return idx.first(static_cast<std::size_t>(end - idx.begin()));
}

/// Sparse reward dot product over the precomputed index list.
[[nodiscard]] inline double sparse_reward_dot(
    std::span<const index_t> idx, std::span<const double> rewards,
    std::span<const double> pi) {
  double acc = 0.0;
  for (const index_t i : idx) {
    acc += rewards[static_cast<std::size_t>(i)] *
           pi[static_cast<std::size_t>(i)];
  }
  return acc;
}

}  // namespace rrl
