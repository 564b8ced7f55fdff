// Shared grid-sweep machinery of the single-pass randomization methods.
//
// SR's forward pass and RSD's backward pass used to duplicate the same
// bookkeeping: one Poisson window per grid point, a per-point truncation
// point n_max (with an optional step cap), and an "active set" scan that
// feeds every step's shared coefficient d(n) into each point's mixture.
// GridSweep owns that machinery once. Points are ordered by truncation
// point, so as the pass advances the active set shrinks from the front and
// the total weight-scan cost is O(sum_i n_max_i) instead of O(m * pass).
//
// Usage (one pass, both methods):
//   GridSweep sweep(lambda, times, measure, truncation, step_cap);
//   for (std::int64_t n = 0;; ++n) {
//     sweep.accumulate(n, d(n));                 // d from the vector pass
//     if (n == sweep.pass_steps()) break;
//     ... advance the vector ...
//   }
//   value_i = sweep.value(i);
// RSD additionally calls fold_steady_state() when the span seminorm
// contracts, folding the remaining Poisson mass of every still-active point
// into the detected midpoint at once.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/transient_solver.hpp"
#include "markov/poisson.hpp"
#include "sparse/vector_ops.hpp"

namespace rrl {

class GridSweep {
 public:
  /// Builds the per-point Poisson windows for `times` at rate `lambda` and
  /// computes each point's truncation via `truncation` (the methods differ:
  /// SR budgets eps against the measure-specific tail, RSD against the
  /// right truncation point with half the budget). step_cap >= 0 clamps
  /// every n_max and marks the clamped points capped.
  GridSweep(double lambda, std::span<const double> times, MeasureKind measure,
            const std::function<std::int64_t(const PoissonDistribution&)>&
                truncation,
            std::int64_t step_cap);

  [[nodiscard]] std::size_t size() const noexcept { return n_max_.size(); }
  /// The shared pass length: max_i n_max(i).
  [[nodiscard]] std::int64_t pass_steps() const noexcept {
    return pass_steps_;
  }
  /// Truncation point of grid point i (what that point alone would need).
  [[nodiscard]] std::int64_t n_max(std::size_t i) const {
    return n_max_[i];
  }
  [[nodiscard]] bool point_capped(std::size_t i) const {
    return capped_[i] != 0;
  }
  [[nodiscard]] bool any_capped() const noexcept { return any_capped_; }
  [[nodiscard]] const PoissonDistribution& poisson(std::size_t i) const {
    return poisson_[i];
  }

  /// Feeds the shared coefficient d(n) into every point still active at
  /// step n (TRR: pmf weight; MRR: tail weight), retiring points whose
  /// truncation point has passed. Must be called with n = 0, 1, 2, ... in
  /// order.
  void accumulate(std::int64_t n, double d);

  /// accumulate(n, d) on every sweep whose pass reaches step n: the
  /// readers of one shared pass. Out of line on purpose: the caller hands
  /// d straight to this one call, so d never has to survive a call in the
  /// caller's step loop; where it did, GCC homed the reward dot's
  /// accumulator in a stack slot (SR steps ~40% slower on a large live
  /// prefix).
  static void accumulate_all(std::span<GridSweep> sweeps, std::int64_t n,
                             double d);

  /// Folds the steady-state midpoint d_ss into every point whose truncation
  /// point lies beyond step n (TRR: remaining pmf mass; MRR: remaining
  /// expected excess) — RSD's detection shortcut. on_folded(i) is invoked
  /// for each folded point so the caller can stamp per-point stats.
  void fold_steady_state(std::int64_t n, double d_ss,
                         const std::function<void(std::size_t)>& on_folded);

  /// Final measure value of point i (MRR divides the mixture by E[N]).
  [[nodiscard]] double value(std::size_t i) const;

 private:
  MeasureKind measure_;
  std::vector<PoissonDistribution> poisson_;
  std::vector<std::int64_t> n_max_;
  std::vector<CompensatedSum> acc_;
  std::vector<std::size_t> by_nmax_;  // point indices sorted by n_max
  std::vector<std::uint8_t> capped_;
  std::size_t first_active_ = 0;
  std::int64_t pass_steps_ = 0;
  bool any_capped_ = false;
};

}  // namespace rrl
