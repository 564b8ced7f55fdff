// Regenerative randomization with Laplace transform inversion (RRL) — the
// method proposed by the paper.
//
// Pipeline per time point t:
//  1. compute the regenerative schema (K + L DTMC steps of a chain the size
//     of X; eps/2 model-truncation budget);
//  2. assemble the closed-form transform TRR~(s) / C~(s) of Section 2.1;
//  3. invert numerically with the Durbin/Crump series: period T = 8t,
//     damping a chosen so the discretization error is <= eps/4 (Section 2.2,
//     with the TRR bound r_max or the C bound r_max*t via Eq. (2)), series
//     truncation tolerance eps/100 (t*eps/100 for C), epsilon-algorithm
//     acceleration.
// The inversion needs only ~100-300 transform evaluations of O(K + L) work
// each, so for large t RRL does essentially schema work only — the paper's
// headline speedup over RR (which steps V_{K,L} ~ Lambda*t times) and SR.
#pragma once

#include <span>
#include <vector>

#include "core/regenerative_solver.hpp"
#include "core/rrl_transform.hpp"
#include "core/solver.hpp"
#include "laplace/crump.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

struct RrlOptions {
  /// Total error bound (the paper's experiments use 1e-12).
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate of X.
  double rate_factor = 1.0;
  /// Durbin period multiplier: T = t_multiplier * t. The paper settles on 8
  /// (1 = Crump's fast/unstable, 16 = Piessens-Huysmans' stable/slow).
  double t_multiplier = 8.0;
  /// Forwarded to CrumpOptions.
  int max_terms = 20000;
  int required_hits = 1;
  /// Schema step cap; < 0 disables.
  std::int64_t schema_step_cap = 10'000'000;
};

/// RRL solver bound to one model + measure.
class RegenerativeRandomizationLaplace : public RegenerativeSolver {
 public:
  /// Preconditions: as RegenerativeSolver's.
  RegenerativeRandomizationLaplace(const Ctmc& chain,
                                   std::vector<double> rewards,
                                   std::vector<double> initial,
                                   index_t regenerative_state,
                                   RrlOptions options = {});

  /// Single-sourced method description (the registry registers built-ins
  /// with this exact text).
  static constexpr std::string_view kDescription =
      "regenerative randomization with Laplace transform inversion";

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rrl";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return kDescription;
  }

  /// Amortized sweep: ONE schema computed at the largest grid time plus one
  /// numerical inversion per point (the dominant K model-sized DTMC steps
  /// are paid once for the whole grid). Valid because the truncation bound
  /// is decreasing in K for every fixed t, so the K(t_max) series
  /// over-covers smaller t. Every request is its own group: the inversions
  /// work on schema-sized series, not model-sized vectors, so RRL reads no
  /// workspace buffer; a grid of more than two points spreads its
  /// inversions over the workspace's lent pool.
  [[nodiscard]] std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& workspace) const override;
  [[nodiscard]] LentPoolUse lent_pool_use(
      const SolveRequest& request) const override {
    return request.times.size() > 2 ? LentPoolUse::kPart : LentPoolUse::kNone;
  }

  /// Rigorous bracketing of the measure (the bounds flavour of the paper's
  /// reference [2]). The V_K truncation only discards non-negative reward
  /// (trajectories rerouted to the zero-reward state `a`), so
  ///   TRR^a(t) <= TRR(t) <= TRR^a(t) + r_max a(K) E[(N - K)^+] (+ primed),
  /// and the inversion contributes +-eps/2 on each side.
  struct Bounds {
    double value = 0.0;  ///< the point estimate (as trr()/mrr())
    double lower = 0.0;  ///< rigorous lower bound
    double upper = 0.0;  ///< rigorous upper bound
    SolverStats stats;
  };
  /// The bounds of `kind` at t > 0, at the constructed eps.
  [[nodiscard]] Bounds bounds(double t, MeasureKind kind) const;

 private:
  /// All-zero rewards and t = 0 alone need no schema (solve_grid's early
  /// outs).
  [[nodiscard]] bool needs_schema(double t_max) const override {
    return r_max_ != 0.0 && t_max != 0.0;
  }
  [[nodiscard]] TransientValue invert(const TrrTransform& transform, double t,
                                      MeasureKind kind, double eps) const;
  [[nodiscard]] double truncation_error_bound(const RegenerativeSchema& sch,
                                              double t) const;

  RrlOptions options_;
};

}  // namespace rrl
