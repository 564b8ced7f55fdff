// Randomization with steady-state detection (the paper's RSD baseline,
// after Sericola 1999 / Malhotra-Muppala-Trivedi).
//
// The solver uses the backward (adjoint) formulation: with w_0 = r and
// w_{n+1} = P w_n, the mixture coefficients are d(n) = alpha . w_n, and for
// every m >= n the value d(m) = (alpha P^{m-n}) . w_n is a convex
// combination of the entries of w_n. Hence the span seminorm
//   span(w_n) = max_i w_n(i) - min_i w_n(i)
// rigorously brackets all future coefficients: once span(w_n) <= delta, the
// remaining Poisson mass can be folded into the midpoint of [min, max] with
// error <= delta/2 — this is the "steady-state detection which gives error
// bounds" of the paper's reference [14]. The step count therefore saturates
// at the detection step for large t (Table 1's RSD column).
//
// Because the paper randomizes at exactly the maximum output rate, states
// attaining the maximum have no self-loop and the DTMC may be periodic; the
// span then fails to contract and detection simply never fires (the solver
// falls back to the full Poisson truncation). rate_factor > 1 restores
// guaranteed aperiodicity.
#pragma once

#include <span>
#include <vector>

#include "core/randomized_solver.hpp"
#include "core/solver.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

struct RsdOptions {
  /// Total error bound; eps/2 is allocated to Poisson truncation and eps/2
  /// to the span-detection remainder (Section 3 uses eps = 1e-12).
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate.
  double rate_factor = 1.0;
  /// Span-seminorm detection threshold; <= 0 selects eps/2.
  double detection_tol = -1.0;
  /// Optional step cap; < 0 disables.
  std::int64_t step_cap = -1;
};

/// Steady-state-detecting randomization solver for irreducible models.
/// Its steps are the hot loop a lent pool carries. The backward product
/// w <- P w runs over P in row form, which the DTMC (storing P transposed,
/// the forward-stepping layout) materializes once per solver: the scatter
/// kernel over P^T cannot be row-partitioned without write conflicts,
/// while the gather product is the same kernel serial and pooled, so
/// results are identical for every worker count.
class RandomizationSteadyStateDetection : public RandomizedSolver {
 public:
  /// Precondition: `chain` is irreducible (A = 0).
  RandomizationSteadyStateDetection(const Ctmc& chain,
                                    std::vector<double> rewards,
                                    std::vector<double> initial,
                                    RsdOptions options = {});

  /// Single-sourced method description (the registry registers built-ins
  /// with this exact text).
  static constexpr std::string_view kDescription =
      "randomization with steady-state detection";

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rsd";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return kDescription;
  }

  /// The iterate P^n r is the same for every request, so one pass answers
  /// any set of them.
  [[nodiscard]] bool shares_pass(const SolveRequest& /*a*/,
                                 const SolveRequest& /*b*/) const override {
    return true;
  }

  /// Amortized sweep: ONE backward pass w_n = P^n r shared by every grid
  /// point of every request (the coefficients d(n) = alpha . w_n are
  /// time-independent), with d(n) and span(w_n) computed once per step.
  /// Every request keeps its own truncation, detection tolerance, fold
  /// step and exit step: a single span-seminorm detection folds the
  /// remaining Poisson mass of all its still-active points at once, and
  /// the pass ends when the last request exits. Each report is bitwise
  /// its solve_grid report.
  [[nodiscard]] std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& workspace) const override;

 private:
  RsdOptions options_;
};

}  // namespace rrl
