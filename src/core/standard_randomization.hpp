// Standard randomization (uniformization), the paper's SR baseline.
//
// TRR(t) = sum_{n>=0} pois(n; Lambda t) d(n),   d(n) = r . (alpha P^n)
// MRR(t) = (1/(Lambda t)) sum_{n>=0} P[N(Lambda t) >= n+1] d(n)
// truncated so that the neglected tail is below the requested error bound.
// Numerically stable (only additions of positive numbers) but needs ~Lambda*t
// steps: the cost the paper's new variant is designed to avoid.
#pragma once

#include <span>
#include <vector>

#include "core/randomized_solver.hpp"
#include "core/solver.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

class PoissonDistribution;  // markov/poisson.hpp

/// Smallest step count n whose neglected-tail error bound is below eps:
///   TRR: r_max * P[N > n]            <= eps
///   MRR: r_max * E[(N - n)^+] / mean <= eps
/// (eps_over_rmax = eps / r_max). This is SR's truncation rule, public
/// only so the tests' reference passes can replicate it exactly.
[[nodiscard]] std::int64_t sr_truncation_point(
    const PoissonDistribution& poisson, MeasureKind kind,
    double eps_over_rmax);

struct SrOptions {
  /// Total error bound (the paper's eps; its experiments use 1e-12).
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate (1.0 = the paper's choice).
  double rate_factor = 1.0;
  /// Optional step cap (benchmark safety valve); < 0 disables. When the cap
  /// fires the result is flagged `capped` and covers only the mixture mass
  /// seen so far.
  std::int64_t step_cap = -1;
};

/// Standard randomization solver bound to one (chain, rewards, initial
/// distribution) triple; trr/mrr may be called for many time points. Its
/// steps are the hot loop a lent pool carries.
class StandardRandomization : public RandomizedSolver {
 public:
  StandardRandomization(const Ctmc& chain, std::vector<double> rewards,
                        std::vector<double> initial, SrOptions options = {});

  /// Single-sourced method description (the registry registers built-ins
  /// with this exact text).
  static constexpr std::string_view kDescription =
      "standard randomization (uniformization)";

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sr";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return kDescription;
  }

  /// The iterate pi_0 P^n is the same for every request, so one pass
  /// answers any set of them.
  [[nodiscard]] bool shares_pass(const SolveRequest& /*a*/,
                                 const SolveRequest& /*b*/) const override {
    return true;
  }

  /// Amortized sweep: ONE randomization pass over the Pi-vector; at every
  /// step the reward coefficient d(n) feeds each grid point's Poisson
  /// mixture of every request still inside its truncation point, so a
  /// grid costs the truncation point of its largest time instead of the
  /// sum over points, and the pass ends at the longest request. Every
  /// reader sees the products and dots its solo pass would, so each
  /// report is bitwise its solve_grid report.
  [[nodiscard]] std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& workspace) const override;

 private:
  SrOptions options_;
};

}  // namespace rrl
