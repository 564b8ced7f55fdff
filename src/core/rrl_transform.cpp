#include "core/rrl_transform.hpp"

#include <algorithm>

namespace rrl {

TrrTransform::ChainSeries TrrTransform::flatten(
    const ExcursionSeries& series, std::span<const double> f_rewards) {
  ChainSeries out;
  out.a = series.a;
  out.c = series.c;
  const std::size_t steps = series.qa.size();  // = K (may be 0)
  out.vat.resize(steps);
  out.rv.resize(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    out.vat[k] = series.va_total(k);
    out.rv[k] = series.va_rewarded(k, f_rewards);
  }
  const auto all_zero = [](const std::vector<double>& x) {
    return std::ranges::all_of(x, [](double v) { return v == 0.0; });
  };
  out.rv_is_vat = out.rv == out.vat;
  if (out.rv_is_vat || all_zero(out.rv)) out.rv.clear();
  if (out.rv.empty() && all_zero(out.vat)) out.vat.clear();
  return out;
}

TrrTransform::TrrTransform(const RegenerativeSchema& schema)
    : lambda_(schema.lambda),
      has_primed_(schema.has_primed),
      main_(flatten(schema.main, schema.f_rewards)) {
  if (has_primed_) {
    primed_ = flatten(schema.primed, schema.f_rewards);
  }
}

TrrTransform::ChainSums TrrTransform::accumulate(
    const ChainSeries& series, std::complex<long double> theta) {
  if (series.vat.empty()) return accumulate_blocks<1>(series, theta);
  if (series.rv.empty()) return accumulate_blocks<2>(series, theta);
  return accumulate_blocks<3>(series, theta);
}

template <int M>
TrrTransform::ChainSums TrrTransform::accumulate_blocks(
    const ChainSeries& series, std::complex<long double> theta) {
  const std::size_t K = series.a.size() - 1;
  const long double tr = theta.real(), ti = theta.imag();
  long double pr = 1.0L, pi = 0.0L;  // th^k
  long double ar = 0.0L, ai = 0.0L, cr = 0.0L, ci = 0.0L;
  long double var = 0.0L, vai = 0.0L, rvr = 0.0L, rvi = 0.0L;
  long double power_re[kBlock], power_im[kBlock];
  for (std::size_t begin = 0; begin < K; begin += kBlock) {
    const std::size_t n = std::min(kBlock, K - begin);
    const double* const a = series.a.data() + begin;
    const double* const c = series.c.data() + begin;
    // A series M leaves out is empty: offsetting its null data() is UB.
    const double* const vat = M >= 2 ? series.vat.data() + begin : nullptr;
    const double* const rv = M == 3 ? series.rv.data() + begin : nullptr;
    // Pass 1: the power recurrence and the a-sum.
    for (std::size_t j = 0; j < n; ++j) {
      power_re[j] = pr;
      power_im[j] = pi;
      const long double x = a[j];
      ar += x * pr;
      ai += x * pi;
      const long double next_pr = pr * tr - pi * ti;
      pi = pr * ti + pi * tr;
      pr = next_pr;
    }
    // Passes 2 and 3: the product sums, real parts then imaginary.
    for (std::size_t j = 0; j < n; ++j) {
      const long double p = power_re[j];
      cr += c[j] * p;
      if constexpr (M >= 2) var += vat[j] * p;
      if constexpr (M == 3) rvr += rv[j] * p;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const long double p = power_im[j];
      ci += c[j] * p;
      if constexpr (M >= 2) vai += vat[j] * p;
      if constexpr (M == 3) rvi += rv[j] * p;
    }
  }
  const std::complex<long double> top_power(pr, pi);  // th^K
  const std::complex<long double> va(var, vai);
  return {std::complex<long double>(ar, ai) +
              static_cast<long double>(series.a[K]) * top_power,
          std::complex<long double>(cr, ci) +
              static_cast<long double>(series.c[K]) * top_power,
          va,
          series.rv_is_vat ? va : std::complex<long double>(rvr, rvi),
          top_power};
}

std::complex<double> TrrTransform::trr(std::complex<double> s) const {
  using cld = std::complex<long double>;
  const cld sl(static_cast<long double>(s.real()),
               static_cast<long double>(s.imag()));
  const long double lambda = static_cast<long double>(lambda_);
  const cld s_plus_lambda = sl + lambda;
  const cld theta = lambda / s_plus_lambda;

  const ChainSums m = accumulate(main_, theta);
  const long double aK = static_cast<long double>(main_.a.back());

  // B(s) = s * Sa + Lambda * Sva + a(K) * Lambda * theta^K.
  const cld B = sl * m.a + lambda * m.va + aK * lambda * m.top_power;

  // A(s) (1 when alpha_r = 1).
  cld A(1.0L, 0.0L);
  cld primed_terms(0.0L, 0.0L);
  if (has_primed_) {
    const ChainSums p = accumulate(primed_, theta);
    const long double apL = static_cast<long double>(primed_.a.back());
    A = cld(1.0L, 0.0L) - (sl / s_plus_lambda) * p.a -
        (lambda / s_plus_lambda) * p.va - apL * p.top_power * theta;
    // (1/(s+Lambda)) * Sc' + (theta/s) * Srv'.
    primed_terms = p.c / s_plus_lambda + theta / sl * p.rv;
  }

  const cld p0 = A / B;
  const cld value = (m.c + lambda / sl * m.rv) * p0 + primed_terms;
  return {static_cast<double>(value.real()),
          static_cast<double>(value.imag())};
}

}  // namespace rrl
