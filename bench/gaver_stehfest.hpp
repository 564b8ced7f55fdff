// Gaver-Stehfest Laplace inversion on the real axis, header-only.
//
// An *independent* inversion algorithm used to cross-check the Durbin/Crump
// method the paper adopts. Gaver-Stehfest needs only real abscissae
//   f(t) ~ (ln 2 / t) * sum_{k=1..n} zeta_k F(k ln 2 / t)
// with the classical Salzer weights zeta_k, but the weights alternate in
// sign and grow like 10^{n/2}: in double precision the usable order is
// n ~ 12-16, limiting the attainable accuracy to ~1e-8 — which is exactly
// why methods of the Durbin family (complex abscissae, epsilon
// acceleration) are preferred for the paper's eps = 1e-12 requirement. No
// solver uses it: bench/ablation_inversion quantifies this trade-off and
// tests/test_gaver_stehfest.cpp checks it.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>

#include "support/contracts.hpp"

namespace rrl {

/// A Laplace transform evaluable on the positive real axis.
using RealLaplaceTransform = std::function<double(double)>;

struct GaverStehfestResult {
  double value = 0.0;
  int abscissae = 0;  ///< = order n (one real evaluation per term)
};

/// The Salzer/Stehfest weight zeta_k for a given (k, order); exposed for
/// tests (weights must sum to 0 and alternate appropriately).
[[nodiscard]] inline double stehfest_weight(int k, int order) {
  RRL_EXPECTS(order >= 2 && order <= 20 && order % 2 == 0);
  RRL_EXPECTS(k >= 1 && k <= order);
  const int half = order / 2;
  // zeta_k = (-1)^{k + n/2} * sum_{j = floor((k+1)/2)}^{min(k, n/2)}
  //          j^{n/2} (2j)! / ((n/2 - j)! j! (j-1)! (k-j)! (2j-k)!)
  // Evaluated in long double through log-factorials to postpone overflow.
  long double sum = 0.0L;
  const int j_lo = (k + 1) / 2;
  const int j_hi = std::min(k, half);
  auto lfact = [](int m) {
    // lgammal_r, not std::lgamma: the latter stores the gamma sign in the
    // global signgam (a data race under concurrent sweep workers). Not on
    // Darwin: its libm ships lgamma_r but no long double variant.
#if defined(_GNU_SOURCE) || defined(__USE_MISC)
    int sign = 0;
    return lgammal_r(static_cast<long double>(m) + 1.0L, &sign);
#else
    return std::lgamma(static_cast<long double>(m) + 1.0L);
#endif
  };
  for (int j = j_lo; j <= j_hi; ++j) {
    const long double log_term =
        static_cast<long double>(half) *
            std::log(static_cast<long double>(j)) +
        lfact(2 * j) - lfact(half - j) - lfact(j) - lfact(j - 1) -
        lfact(k - j) - lfact(2 * j - k);
    sum += std::exp(log_term);
  }
  const bool negative = (k + half) % 2 != 0;
  return static_cast<double>(negative ? -sum : sum);
}

/// Invert `transform` at time t > 0 with Stehfest order n (even, typically
/// 10..16 in double precision). Preconditions: t > 0, n even, 2 <= n <= 20.
[[nodiscard]] inline GaverStehfestResult gaver_stehfest_invert(
    const RealLaplaceTransform& transform, double t, int order = 14) {
  RRL_EXPECTS(t > 0.0);
  RRL_EXPECTS(order >= 2 && order <= 20 && order % 2 == 0);
  const double ln2_over_t = M_LN2 / t;
  // Accumulate in long double: the weights alternate with magnitudes up to
  // ~10^{order/2}, so cancellation is the algorithm's intrinsic limit.
  long double acc = 0.0L;
  for (int k = 1; k <= order; ++k) {
    acc += static_cast<long double>(stehfest_weight(k, order)) *
           static_cast<long double>(
               transform(static_cast<double>(k) * ln2_over_t));
  }
  GaverStehfestResult result;
  result.value = static_cast<double>(acc * ln2_over_t);
  result.abscissae = order;
  return result;
}

}  // namespace rrl
