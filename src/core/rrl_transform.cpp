#include "core/rrl_transform.hpp"

#include <utility>

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
  return out;
}

TrrTransform::TrrTransform(const RegenerativeSchema& schema)
    : lambda_(schema.lambda),
      alpha_r_(schema.alpha_r),
      has_primed_(schema.has_primed),
      main_(flatten(schema.main, schema.f_rewards)) {
  if (has_primed_) {
    primed_ = flatten(schema.primed, schema.f_rewards);
  }
}

namespace {

/// One pass of accumulate(): {sum_{k<n} x[k] th^k, th^n}. The scalars do what
/// complex<long double>'s `sum += x[k] * power; power *= theta` does, term by
/// term, minus its NaN-recovery branch (th and its powers are finite).
std::pair<std::complex<long double>, std::complex<long double>> series_pass(
    const std::vector<double>& x, std::size_t n,
    std::complex<long double> theta) {
  const long double tr = theta.real(), ti = theta.imag();
  long double sr = 0.0L, si = 0.0L, pr = 1.0L, pi = 0.0L;
  for (std::size_t k = 0; k < n; ++k) {
    const long double xk = x[k];
    sr += xk * pr;
    si += xk * pi;
    const long double next_pr = pr * tr - pi * ti;
    pi = pr * ti + pi * tr;
    pr = next_pr;
  }
  return {{sr, si}, {pr, pi}};
}

}  // namespace

TrrTransform::ChainSums TrrTransform::accumulate(
    const ChainSeries& series, std::complex<long double> theta) {
  const std::size_t K = series.a.size() - 1;
  const auto [a, top_power] = series_pass(series.a, K, theta);  // th^K
  const auto [c, c_power] = series_pass(series.c, K, theta);
  return {a + static_cast<long double>(series.a[K]) * top_power,
          c + static_cast<long double>(series.c[K]) * c_power,
          series_pass(series.vat, K, theta).first,
          series_pass(series.rv, K, theta).first, top_power};
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
