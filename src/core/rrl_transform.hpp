// Closed-form Laplace transforms of TRR^a_{K,L}(t) and C_{K,L}(t) =
// t * MRR^a_{K,L}(t) — the paper's Section 2.1 contribution.
//
// With theta = Lambda/(s + Lambda), c(k) = a(k) b(k), and the schema's
// flattened series (va_total = sum_i v_k^i a(k), rv = sum_i r_{f_i} v_k^i
// a(k), primed analogues), the transform of the truncated transformed model
// is evaluated as
//   B(s)   = s * sum_{k<=K} a(k) th^k + Lambda * sum_{k<K} va_total(k) th^k
//            + a(K) Lambda th^K
//   A(s)   = 1 - s/(s+Lambda) * sum_{k<=L} a'(k) th^k
//            - Lambda/(s+Lambda) * sum_{k<L} va'_total(k) th^k
//            - a'(L) th^{L+1}                      (A(s) = 1 if alpha_r = 1)
//   p~0(s) = A(s)/B(s)
//   TRR~(s) = [sum_{k<=K} c(k) th^k + (Lambda/s) sum_{k<K} rv(k) th^k] p~0(s)
//             + (1/(s+Lambda)) sum_{k<=L} c'(k) th^k
//             + (th/s) sum_{k<L} rv'(k) th^k
//   C~(s)  = TRR~(s)/s.
// Sums are accumulated in extended precision so that the ~14 digits the paper
// demands of the inversion survive series of ~10^4 terms. Each chain takes one
// pass per sum (a, c, va_total, rv), each recomputing the theta powers: one
// sum, the power and theta are six long doubles, which fit the x87's
// eight-register stack, where all four sums at once would spill to memory on
// every term. Each sum sees the same extended-precision operations in the
// same order as in a single pass (x87 has no FMA and nothing is
// reassociated), so the split changes no bit of any transform value.
#pragma once

#include <complex>
#include <vector>

#include "core/regenerative.hpp"

namespace rrl {

/// Transform evaluator built from a schema; usable for Re(s) > 0 (below the
/// rightmost singularity at s = 0 the transforms are not needed).
class TrrTransform {
 public:
  explicit TrrTransform(const RegenerativeSchema& schema);

  /// Laplace transform of the truncated transient reward rate TRR^a(t).
  [[nodiscard]] std::complex<double> trr(std::complex<double> s) const;

  /// Laplace transform of C(t) = t * MRR^a(t): TRR~(s)/s.
  [[nodiscard]] std::complex<double> cumulative(std::complex<double> s) const {
    return trr(s) / s;
  }

  [[nodiscard]] double lambda() const noexcept { return lambda_; }

 private:
  struct ChainSums {
    std::complex<long double> a;   // sum a(k) th^k,  k = 0..K
    std::complex<long double> c;   // sum c(k) th^k,  k = 0..K
    std::complex<long double> va;  // sum va_total(k) th^k, k = 0..K-1
    std::complex<long double> rv;  // sum rv(k) th^k, k = 0..K-1
    std::complex<long double> top_power;  // th^K
  };

  struct ChainSeries {
    std::vector<double> a;    // k = 0..K
    std::vector<double> c;    // k = 0..K
    std::vector<double> vat;  // k = 0..K-1
    std::vector<double> rv;   // k = 0..K-1
  };

  static ChainSeries flatten(const ExcursionSeries& series,
                             std::span<const double> f_rewards);
  static ChainSums accumulate(const ChainSeries& series,
                              std::complex<long double> theta);

  double lambda_ = 0.0;
  double alpha_r_ = 1.0;
  bool has_primed_ = false;
  ChainSeries main_;
  ChainSeries primed_;
};

}  // namespace rrl
