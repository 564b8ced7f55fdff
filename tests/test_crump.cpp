// Unit tests for the Durbin/Crump numerical Laplace inversion against known
// transform pairs.
#include "laplace/crump.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "laplace/error_control.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

using cd = std::complex<double>;

CrumpOptions paper_options(double bound, double eps, double t,
                           double multiplier = 8.0) {
  CrumpOptions opt;
  opt.t_multiplier = multiplier;
  opt.damping = damping_for_bounded(bound, eps, multiplier * t);
  opt.tolerance = eps / 100.0;
  return opt;
}

TEST(Crump, InvertsConstantFunction) {
  // L{1} = 1/s.
  const double eps = 1e-10;
  for (const double t : {0.5, 3.0, 100.0}) {
    const auto r = crump_invert([](cd s) { return 1.0 / s; }, t,
                                paper_options(1.0, eps, t));
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, 1.0, eps) << "t=" << t;
  }
}

TEST(Crump, InvertsExponentialDecay) {
  // L{e^{-bt}} = 1/(s+b).
  const double eps = 1e-10;
  for (const double b : {0.1, 1.0, 5.0}) {
    const double t = 2.0;
    const auto r = crump_invert([b](cd s) { return 1.0 / (s + b); }, t,
                                paper_options(1.0, eps, t));
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, std::exp(-b * t), 5.0 * eps) << "b=" << b;
  }
}

TEST(Crump, InvertsRamp) {
  // L{t} = 1/s^2; |f| <= t on [0, 2T) so use the time-linear damping.
  const double eps = 1e-10;
  const double t = 4.0;
  CrumpOptions opt;
  opt.damping = damping_for_time_linear(1.0, eps, t, 8.0 * t);
  opt.tolerance = t * eps / 100.0;
  const auto r = crump_invert([](cd s) { return 1.0 / (s * s); }, t, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, t, 10.0 * t * eps);
}

TEST(Crump, InvertsSine) {
  // L{sin(w t)} = w/(s^2 + w^2).
  const double eps = 1e-9;
  const double w = 2.0;
  for (const double t : {0.3, 1.0, 2.5}) {
    const auto r = crump_invert(
        [w](cd s) { return w / (s * s + w * w); }, t,
        paper_options(1.0, eps, t));
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, std::sin(w * t), 100.0 * eps) << "t=" << t;
  }
}

TEST(Crump, InvertsCosine) {
  const double eps = 1e-9;
  const double w = 3.0;
  const double t = 1.2;
  const auto r = crump_invert(
      [w](cd s) { return s / (s * s + w * w); }, t,
      paper_options(1.0, eps, t));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, std::cos(w * t), 100.0 * eps);
}

TEST(Crump, InvertsShiftedRamp) {
  // L{t e^{-bt}} = 1/(s+b)^2; bounded by 1/(e b).
  const double eps = 1e-10;
  const double b = 1.5;
  const double t = 2.0;
  const auto r = crump_invert(
      [b](cd s) { return 1.0 / ((s + b) * (s + b)); }, t,
      paper_options(1.0 / (M_E * b), eps, t));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, t * std::exp(-b * t), 10.0 * eps);
}

TEST(Crump, PaperAccuracyTarget) {
  // The paper requires ~14 digits at eps = 1e-12 (UR(t) ~ 0.5 at t = 1e5).
  const double eps = 1e-12;
  const double t = 1e5;
  const double b = 7e-6;  // UR-like growth: f = 1 - e^{-bt} ~ 0.5 at t
  const auto r = crump_invert(
      [b](cd s) { return 1.0 / s - 1.0 / (s + b); }, t,
      paper_options(1.0, eps, t));
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 1.0 - std::exp(-b * t), 20.0 * eps);
}

TEST(Crump, TMultiplierTradeoff) {
  // All multipliers must deliver the answer within the error budget; this
  // mirrors the paper's T = t .. 16t experiments.
  const double eps = 1e-10;
  const double t = 3.0;
  const double b = 0.8;
  for (const double mult : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto r = crump_invert(
        [b](cd s) { return 1.0 / (s + b); }, t,
        paper_options(1.0, eps, t, mult));
    EXPECT_TRUE(r.converged) << "mult=" << mult;
    EXPECT_NEAR(r.value, std::exp(-b * t), 100.0 * eps) << "mult=" << mult;
  }
}

TEST(Crump, ReportsAbscissaeCount) {
  const double eps = 1e-10;
  const double t = 1.0;
  const auto r = crump_invert([](cd s) { return 1.0 / (s + 1.0); }, t,
                              paper_options(1.0, eps, t));
  EXPECT_GE(r.abscissae, 8);
  EXPECT_LE(r.abscissae, 2000);
  EXPECT_EQ(r.period, 8.0 * t);
}

TEST(Crump, HonorsMaxTerms) {
  CrumpOptions opt;
  opt.damping = damping_for_bounded(1.0, 1e-12, 8.0);
  opt.tolerance = 1e-30;  // unreachable
  opt.max_terms = 50;
  const auto r =
      crump_invert([](cd s) { return 1.0 / (s + 1.0); }, 1.0, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.abscissae, opt.max_terms + 1);  // k = 0 plus max_terms terms
}

TEST(Crump, ZeroTransformConvergesInMinTerms) {
  // F == 0 locks the epsilon table at its second partial sum; the locked
  // table must still count toward min_terms, or the series runs to
  // max_terms without ever converging.
  const CrumpOptions opt = paper_options(1.0, 1e-12, 10.0);
  const auto r = crump_invert([](cd) { return cd(0.0, 0.0); }, 10.0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.value, 0.0);
  EXPECT_EQ(r.abscissae, opt.min_terms);
}

TEST(Crump, RejectsInvalidOptions) {
  CrumpOptions opt;  // damping defaults to 0 => invalid
  EXPECT_THROW(
      (void)crump_invert([](cd s) { return 1.0 / s; }, 1.0, opt),
      contract_error);
  opt.damping = 1.0;
  EXPECT_THROW(
      (void)crump_invert([](cd s) { return 1.0 / s; }, -1.0, opt),
      contract_error);
}

}  // namespace
}  // namespace rrl
