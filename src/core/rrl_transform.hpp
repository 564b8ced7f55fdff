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
// demands of the inversion survive series of ~10^4 terms.
//
// Evaluation. Each chain steps th^k once and walks its K terms in blocks of
// kBlock:
// - Pass 1 steps the powers, stores each th^k in a block buffer and carries
//   the a-sum. th, the power and the two a accumulators are six long
//   doubles; with the recurrence's two temporaries they fill the x87's
//   eight-register stack.
// - Pass 2 adds each stored real part into the real product sums (c,
//   va_total, rv); pass 3 does the same with the imaginary parts. Each keeps
//   at most three accumulators, the loaded power and one product live, and
//   reads the series as memory operands of fmul. All four sums in one pass
//   would need twelve live values and spill on every term.
// - A product sum is skipped when its series is all zero (va_total and rv of
//   a chain without absorbing states; rv when no absorbing state is
//   rewarded), and rv's sum is va_total's when the two series are equal
//   term for term (every absorbing state has reward 1, as in an
//   unreliability model). With |th| < 1 every power is finite, so a sum of
//   zero products stays at its starting +0, the value a skipped sum keeps.
// Bit identity: the powers are stored as 80-bit long doubles, so a load
// gives back the exact value pass 1 stepped, and each sum adds the same
// extended-precision products in the same order as a single pass carrying
// all four sums and th^k (x87 has no FMA and nothing is reassociated). No
// bit depends on the block length; a block's 2 x 256 powers (8 KB) stay in
// L1 between the passes.
// Cost: kernel_throughput's micro-rows (availability schemas, so c is the
// only product sum) read 17 us at RAID-5 G=20's K = 2233 and 45-47 us at
// G=40's K = 5956, from 31 us and 80-82 us with one pass per sum that
// stepped the powers in each (4-core AVX-512 Xeon at 2.1 GHz, GCC 12.2).
#pragma once

#include <complex>
#include <vector>

#include "core/regenerative.hpp"

namespace rrl {

/// Transform evaluator built from a schema; usable for Re(s) > 0 (below the
/// rightmost singularity at s = 0 the transforms are not needed).
class TrrTransform {
 public:
  /// Series terms per block of accumulate()'s passes.
  static constexpr std::size_t kBlock = 256;

  explicit TrrTransform(const RegenerativeSchema& schema);

  /// Laplace transform of the truncated transient reward rate TRR^a(t).
  [[nodiscard]] std::complex<double> trr(std::complex<double> s) const;

  /// Laplace transform of C(t) = t * MRR^a(t): TRR~(s)/s.
  [[nodiscard]] std::complex<double> cumulative(std::complex<double> s) const {
    return trr(s) / s;
  }

 private:
  struct ChainSums {
    std::complex<long double> a;   // sum a(k) th^k,  k = 0..K
    std::complex<long double> c;   // sum c(k) th^k,  k = 0..K
    std::complex<long double> va;  // sum va_total(k) th^k, k = 0..K-1
    std::complex<long double> rv;  // sum rv(k) th^k, k = 0..K-1
    std::complex<long double> top_power;  // th^K
  };

  struct ChainSeries {
    std::vector<double> a;  // k = 0..K
    std::vector<double> c;  // k = 0..K
    // va_total and rv, k = 0..K-1. rv is left empty when it is all zero or
    // equals va_total term for term (rv_is_vat), and va_total when both it
    // and rv are all zero: the sum of an empty series is +0, and rv's sum is
    // va_total's, bit for bit.
    std::vector<double> vat;
    std::vector<double> rv;
    bool rv_is_vat = false;
  };

  static ChainSeries flatten(const ExcursionSeries& series,
                             std::span<const double> f_rewards);
  static ChainSums accumulate(const ChainSeries& series,
                              std::complex<long double> theta);
  /// accumulate() over the M product series c, vat (M >= 2), rv (M = 3).
  template <int M>
  static ChainSums accumulate_blocks(const ChainSeries& series,
                                     std::complex<long double> theta);

  double lambda_ = 0.0;
  bool has_primed_ = false;
  ChainSeries main_;
  ChainSeries primed_;
};

}  // namespace rrl
