// Numerical Laplace transform inversion by Durbin's trigonometric series
// with epsilon-algorithm acceleration (Crump's method, paper Section 2.2).
//
// Durbin's approximation on the interval [0, 2T) with damping a:
//   f_a(t) = (e^{at}/T) [ F(a)/2 + sum_{k>=1} Re( F(a + ik pi/T) e^{ik pi t/T} ) ].
// The paper uses T = m*t with m in [1, 16]; m = 1 reproduces Crump's fast but
// occasionally unstable choice, m = 16 Piessens-Huysmans' very stable but
// slow one, and the paper settles on m = 8. Partial sums are accelerated with
// Wynn's epsilon algorithm; convergence is declared when consecutive
// accelerated values differ by at most `tolerance` (the paper's eps/100 rule,
// leaving a factor 25 of margin for the true truncation error).
#pragma once

#include <complex>
#include <functional>

namespace rrl {

/// A Laplace transform evaluable at complex abscissae with Re(s) > 0.
using LaplaceTransform =
    std::function<std::complex<double>(std::complex<double>)>;

struct CrumpOptions {
  /// T = t_multiplier * t. The paper experiments with 1..16 and uses 8.
  double t_multiplier = 8.0;
  /// Damping parameter a (choose with damping_for_bounded /
  /// damping_for_time_linear so the discretization error is bounded).
  double damping = 0.0;
  /// Convergence tolerance on consecutive accelerated values (absolute).
  double tolerance = 1e-14;
  /// Number of consecutive within-tolerance differences required (1
  /// reproduces the paper; 2 adds cheap robustness).
  int required_hits = 1;
  /// Hard cap on the series terms k = 1, 2, ...: an inversion that never
  /// converges evaluates max_terms + 1 abscissae (k = 0 plus max_terms
  /// terms) and returns converged == false.
  int max_terms = 20000;
  /// Minimum number of terms before convergence may be declared (lets the
  /// epsilon table build up).
  int min_terms = 8;
};

struct CrumpResult {
  double value = 0.0;      ///< f_a(t) estimate
  int abscissae = 0;       ///< transform evaluations used (k = 0..n)
  bool converged = false;  ///< tolerance met before max_terms
  double final_delta = 0.0;  ///< last |accelerated difference|
  double period = 0.0;       ///< T used
  double damping = 0.0;      ///< a used
};

/// Invert `transform` at time t > 0. The caller provides the damping through
/// CrumpOptions (see error_control.hpp); tolerance is interpreted on the
/// scale of f(t).
[[nodiscard]] CrumpResult crump_invert(const LaplaceTransform& transform,
                                       double t, const CrumpOptions& options);

}  // namespace rrl
