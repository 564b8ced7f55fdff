#include "laplace/epsilon.hpp"

#include <cmath>
#include <limits>

#include "support/contracts.hpp"

namespace rrl {

void EpsilonAccelerator::push(double partial_sum) {
  ++pushes_;
  if (locked_) return;  // exact convergence already detected
  // Recurrence: eps_{j}^{(m)} = eps_{j-2}^{(m+1)} + 1/(eps_{j-1}^{(m+1)} -
  // eps_{j-1}^{(m)}), built along anti-diagonals. `diagonal_` holds the
  // previous anti-diagonal (for sums up to S_{n-1}); `scratch_` receives the
  // new one (for sums up to S_n).
  scratch_.assign(diagonal_.size() + 1, 0.0);
  scratch_[0] = partial_sum;
  for (std::size_t j = 1; j < scratch_.size(); ++j) {
    const double prev_jm1 = diagonal_[j - 1];
    const double prev_jm2 = j >= 2 ? diagonal_[j - 2] : 0.0;
    const double denom = scratch_[j - 1] - prev_jm1;
    if (denom == 0.0) {
      if ((j - 1) % 2 == 0) {
        // Two consecutive entries of an even (extrapolating) column agree
        // exactly: the limit has been reached. Lock the estimate; further
        // table-building would divide by zero.
        locked_ = scratch_[j - 1];
        diagonal_.swap(scratch_);
        return;
      }
      // Equal entries in an odd (auxiliary) column: apply the singular rule
      // by propagating the converged even-column value.
      scratch_[j] = prev_jm2;
      continue;
    }
    const double value = prev_jm2 + 1.0 / denom;
    scratch_[j] = std::isfinite(value)
                      ? value
                      : std::numeric_limits<double>::max();
  }
  diagonal_.swap(scratch_);
}

double EpsilonAccelerator::estimate() const {
  RRL_EXPECTS(!diagonal_.empty());
  if (locked_) return *locked_;
  // Even columns carry the extrapolated estimates; odd columns are
  // auxiliary. The last diagonal has entries eps_j for j = 0..n.
  const std::size_t n = diagonal_.size() - 1;
  const std::size_t top_even = n % 2 == 0 ? n : n - 1;
  return diagonal_[top_even];
}

}  // namespace rrl
