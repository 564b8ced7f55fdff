// Wynn's epsilon algorithm for accelerating slowly convergent series.
//
// Crump's Laplace-inversion method (paper Section 2.2, ref [4]) evaluates a
// trigonometric series whose terms decay slowly; the epsilon algorithm turns
// the sequence of partial sums S_0, S_1, ... into the even-column diagonal of
// the epsilon table, which converges dramatically faster for the rational
// transforms arising from the truncated transformed model.
#pragma once

#include <optional>
#include <vector>

namespace rrl {

/// Streaming Wynn epsilon-table: push partial sums, read the accelerated
/// estimate. Maintains the most recent table anti-diagonal in O(n) memory.
class EpsilonAccelerator {
 public:
  /// Append the next partial sum S_n and update the table diagonal.
  void push(double partial_sum);

  /// Number of partial sums pushed so far, including those a locked table
  /// no longer stores.
  [[nodiscard]] int count() const noexcept { return pushes_; }

  /// Current accelerated estimate: the highest even-column entry of the last
  /// diagonal (falls back to the raw partial sum before acceleration kicks
  /// in). Precondition: count() >= 1.
  [[nodiscard]] double estimate() const;

 private:
  std::vector<double> diagonal_;  // diagonal_[j] = eps_j^{(n-j)}
  std::vector<double> scratch_;
  std::optional<double> locked_;  // set on exact mid-stream convergence
  int pushes_ = 0;
};

}  // namespace rrl
