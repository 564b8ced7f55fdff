// Small dense-vector kernels shared by the solvers: norms, dot products and a
// compensated (Neumaier) summation accumulator. Randomization methods add up
// millions of non-negative terms, so keeping summation error at machine-eps
// level matters for the paper's stringent error target (eps = 1e-12).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>

#include "support/contracts.hpp"

namespace rrl {

/// Neumaier variant of Kahan compensated summation.
class CompensatedSum {
 public:
  constexpr CompensatedSum() = default;
  explicit constexpr CompensatedSum(double initial) : sum_(initial) {}

  constexpr void add(double value) noexcept {
    const double t = sum_ + value;
    if (std::abs(sum_) >= std::abs(value)) {
      comp_ += (sum_ - t) + value;
    } else {
      comp_ += (value - t) + sum_;
    }
    sum_ = t;
  }

  [[nodiscard]] constexpr double value() const noexcept {
    return sum_ + comp_;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Sum of all elements (compensated).
[[nodiscard]] inline double sum(std::span<const double> x) noexcept {
  CompensatedSum s;
  for (const double v : x) s.add(v);
  return s.value();
}

/// Dot product (compensated).
[[nodiscard]] inline double dot(std::span<const double> x,
                                std::span<const double> y) {
  RRL_EXPECTS(x.size() == y.size());
  CompensatedSum s;
  for (std::size_t i = 0; i < x.size(); ++i) s.add(x[i] * y[i]);
  return s.value();
}

/// L1 norm.
[[nodiscard]] inline double norm_l1(std::span<const double> x) noexcept {
  CompensatedSum s;
  for (const double v : x) s.add(std::abs(v));
  return s.value();
}

/// L-infinity norm.
[[nodiscard]] inline double norm_linf(std::span<const double> x) noexcept {
  double m = 0.0;
  for (const double v : x) m = std::max(m, std::abs(v));
  return m;
}

/// L1 distance between two vectors of equal length.
[[nodiscard]] inline double dist_l1(std::span<const double> x,
                                    std::span<const double> y) {
  RRL_EXPECTS(x.size() == y.size());
  CompensatedSum s;
  for (std::size_t i = 0; i < x.size(); ++i) s.add(std::abs(x[i] - y[i]));
  return s.value();
}

}  // namespace rrl
