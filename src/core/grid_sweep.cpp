#include "core/grid_sweep.hpp"

#include <algorithm>

namespace rrl {

GridSweep::GridSweep(
    double lambda, std::span<const double> times, MeasureKind measure,
    const std::function<std::int64_t(const PoissonDistribution&)>& truncation,
    std::int64_t step_cap)
    : measure_(measure) {
  const std::size_t m = times.size();
  poisson_.reserve(m);
  n_max_.assign(m, 0);
  acc_.assign(m, CompensatedSum());
  capped_.assign(m, 0);
  by_nmax_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    poisson_.emplace_back(lambda * times[i]);
    n_max_[i] = truncation(poisson_[i]);
    if (step_cap >= 0 && n_max_[i] > step_cap) {
      n_max_[i] = step_cap;
      capped_[i] = 1;
      any_capped_ = true;
    }
    pass_steps_ = std::max(pass_steps_, n_max_[i]);
    by_nmax_[i] = i;
  }
  std::sort(by_nmax_.begin(), by_nmax_.end(), [this](std::size_t a,
                                                     std::size_t b) {
    return n_max_[a] < n_max_[b];
  });
}

void GridSweep::accumulate(std::int64_t n, double d) {
  const std::size_t m = by_nmax_.size();
  while (first_active_ < m && n_max_[by_nmax_[first_active_]] < n) {
    ++first_active_;
  }
  for (std::size_t k = first_active_; k < m; ++k) {
    const std::size_t i = by_nmax_[k];
    const double weight = measure_ == MeasureKind::kTrr
                              ? poisson_[i].pmf(n)
                              : poisson_[i].tail(n + 1);
    if (weight != 0.0) acc_[i].add(weight * d);
  }
}

void GridSweep::accumulate_all(std::span<GridSweep> sweeps, std::int64_t n,
                               double d) {
  for (GridSweep& sweep : sweeps) {
    if (n <= sweep.pass_steps_) sweep.accumulate(n, d);
  }
}

void GridSweep::fold_steady_state(
    std::int64_t n, double d_ss,
    const std::function<void(std::size_t)>& on_folded) {
  const std::size_t m = by_nmax_.size();
  for (std::size_t k = first_active_; k < m; ++k) {
    const std::size_t i = by_nmax_[k];
    if (n_max_[i] <= n) continue;  // this point already completed at step n
    // Remaining terms k = n+1, n+2, ... folded into the midpoint:
    //   TRR: sum_{k>n} pmf(k) d_ss = tail(n+1) d_ss
    //   MRR: sum_{k>n} P[N>=k+1] d_ss = expected_excess(n+1) d_ss.
    if (measure_ == MeasureKind::kTrr) {
      acc_[i].add(poisson_[i].tail(n + 1) * d_ss);
    } else {
      acc_[i].add(poisson_[i].expected_excess(n + 1) * d_ss);
    }
    on_folded(i);
  }
}

double GridSweep::value(std::size_t i) const {
  return measure_ == MeasureKind::kTrr ? acc_[i].value()
                                       : acc_[i].value() / poisson_[i].mean();
}

}  // namespace rrl
