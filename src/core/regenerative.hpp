// Regenerative randomization schema (the common core of RR and RRL).
//
// Given the randomized DTMC X^ (rate Lambda) and a regenerative state r, the
// excursion decomposition characterizes X by scalar sequences (Section 2):
// for the chain started at r (mu^(0) = delta_r, masked at r and at the
// absorbing states after every step),
//   a(k)        surviving-excursion mass after k steps (a(0) = 1),
//   c(k)        reward-weighted surviving mass (= a(k) b(k)),
//   qa(k)       mass returning to r at step k+1 (= q_k a(k)),
//   va_i(k)     mass absorbed into f_i at step k+1 (= v_k^i a(k)),
// plus primed sequences for the excursion started from the initial
// distribution restricted to S \ {r} when alpha_r = P[X(0) = r] < 1
// (a'(0) = 1 - alpha_r).
//
// Truncation criterion. Every trajectory of X that keeps all its excursion
// ages <= K is reproduced exactly by the truncated transformed model V_K;
// a trajectory is lost (absorbed into the zero-reward state `a`) as soon as
// one excursion reaches age K and takes one more randomization step. An
// excursion started at step m exceeds age K only if the Poisson count
// N(Lambda t) reaches m + K + 1, so
//   |TRR(t) - TRR_K(t)| <= r_max * a(K) * E[(N(Lambda t) - K)^+],
// and the same bound dominates the MRR error (a time average of TRR errors).
// K is the smallest index meeting eps/2 (eps/4 per chain when alpha_r < 1).
// The bound degenerates to the standard-randomization Poisson tail for small
// t and to a(K) * Lambda * t <= eps for large t, producing the two regimes
// visible in the paper's Tables 1-2.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/solver.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"

namespace rrl {

struct RegenerativeOptions {
  /// Total error budget eps; eps/2 goes to model truncation (split across
  /// the two chains when alpha_r < 1), leaving eps/2 for solving V_{K,L}.
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate.
  double rate_factor = 1.0;
  /// Safety cap on K and on L; < 0 disables. When it fires the schema is
  /// flagged `capped` (the requested accuracy is not guaranteed).
  std::int64_t step_cap = 10'000'000;
};

/// One excursion chain (unprimed or primed).
struct ExcursionSeries {
  /// a(k), k = 0..K. Non-increasing, a(0) = initial mass.
  std::vector<double> a;
  /// c(k) = a(k) b(k) = reward-weighted surviving mass, k = 0..K.
  std::vector<double> c;
  /// qa(k) = q_k a(k) = mass returning to r at step k+1, k = 0..K-1.
  std::vector<double> qa;
  /// va[i][k] = v_k^i a(k) = mass absorbed into absorbing state i at step
  /// k+1; i indexes the chain's absorbing-state list, k = 0..K-1.
  std::vector<std::vector<double>> va;
  /// True if the excursion terminated exactly (a(K) == 0 reached); the
  /// truncation then carries no error at all.
  bool exact = false;

  [[nodiscard]] std::int64_t truncation() const noexcept {
    return static_cast<std::int64_t>(a.size()) - 1;
  }
  /// Sum over absorbing states of va[i][k].
  [[nodiscard]] double va_total(std::size_t k) const;
  /// Sum over absorbing states of reward(f_i) * va[i][k].
  [[nodiscard]] double va_rewarded(std::size_t k,
                                   std::span<const double> f_rewards) const;
};

/// The full schema: everything RR (explicit V_{K,L}) and RRL (closed-form
/// transform) need.
struct RegenerativeSchema {
  double lambda = 0.0;       ///< randomization rate
  double alpha_r = 1.0;      ///< initial probability mass at r
  double r_max = 0.0;        ///< max reward rate
  index_t regenerative = 0;  ///< the regenerative state r
  std::vector<index_t> absorbing;   ///< f_1..f_A (indices into the chain)
  std::vector<double> f_rewards;    ///< rewards of f_1..f_A
  ExcursionSeries main;             ///< excursions from r (K = truncation)
  ExcursionSeries primed;           ///< initial excursion (empty if
                                    ///< alpha_r == 1); L = truncation
  bool has_primed = false;
  bool capped = false;  ///< a step cap fired; eps not guaranteed
  double t = 0.0;       ///< the time horizon the truncation was chosen for

  [[nodiscard]] std::int64_t K() const noexcept { return main.truncation(); }
  [[nodiscard]] std::int64_t L() const noexcept {
    return has_primed ? primed.truncation() : 0;
  }
  /// The paper's step count: K + L DTMC steps of a chain the size of X.
  [[nodiscard]] std::int64_t dtmc_steps() const noexcept {
    return K() + (has_primed ? L() : 0);
  }
};

/// Compute the schema for time horizon t (the truncation criterion depends
/// on t through the Poisson distribution of N(Lambda t)).
/// Preconditions: structure per the paper (S strongly connected, f_i
/// absorbing); r non-absorbing; rewards >= 0; initial a distribution.
[[nodiscard]] RegenerativeSchema compute_regenerative_schema(
    const Ctmc& chain, std::span<const double> rewards,
    std::span<const double> initial, index_t regenerative_state, double t,
    const RegenerativeOptions& options = {});

/// The schema compute_regenerative_schema() would build for horizon t and
/// `options`, cut from `longer` — a schema of the same chain, rewards,
/// initial distribution, regenerative state and rate factor built for
/// another (t, eps). The series do not depend on t or eps, only where they
/// stop does, so the result is the fresh build's prefix bit for bit: the
/// same truncation rule walks longer's a(k), and `exact` and `capped` are
/// set as the fresh build sets them. nullopt if `longer` stops first (a
/// tighter key than it was built for). O(K + L) plus one Poisson window.
[[nodiscard]] std::optional<RegenerativeSchema> truncate_regenerative_schema(
    const RegenerativeSchema& longer, double t,
    const RegenerativeOptions& options = {});

/// Heuristic choice of the regenerative state: the method "will be good
/// when r is visited often in the randomized DTMC" (Section 2), so pick the
/// non-absorbing state of highest occupancy in a short power iteration of
/// the DTMC restricted to S (absorbing states masked and the vector
/// renormalized each step). For well-behaved dependability models this is
/// the fully-operational state. O(iterations * transitions).
[[nodiscard]] index_t suggest_regenerative_state(const Ctmc& chain,
                                                 int iterations = 64);

}  // namespace rrl
