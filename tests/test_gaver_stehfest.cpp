// Tests of the Gaver-Stehfest inverter and its cross-validation against the
// Durbin/Crump method on the paper's transforms.
#include "../bench/gaver_stehfest.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/regenerative.hpp"
#include "core/rrl_transform.hpp"
#include "models/simple.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

TEST(GaverStehfest, WeightsSumToZero) {
  // sum_k zeta_k = 0 is the constant-function consistency condition
  // (together with sum zeta_k k ... it reproduces f = 1 from F = 1/s).
  for (const int order : {8, 12, 14, 16}) {
    long double sum = 0.0L;
    for (int k = 1; k <= order; ++k) sum += stehfest_weight(k, order);
    EXPECT_NEAR(static_cast<double>(sum), 0.0, 1e-4)
        << "order=" << order;  // magnitudes reach ~1e8; 1e-4 abs is tight
  }
}

TEST(GaverStehfest, KnownSmallWeights) {
  // Classical n = 2 weights: zeta_1 = 2... actually {2, -2}? Verify via the
  // defining sum: n=2, half=1: k=1: j in [1,1]: 1*2!/ (0! 1! 0! 0! 1!) = 2,
  // sign (-1)^{1+1} = +; k=2: j=1: 2 / (0! 1! 0! 1! 0!) = 2, sign -1^{2+1}=-.
  EXPECT_DOUBLE_EQ(stehfest_weight(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(stehfest_weight(2, 2), -2.0);
}

TEST(GaverStehfest, InvertsConstant) {
  const auto r = gaver_stehfest_invert([](double s) { return 1.0 / s; },
                                       3.0, 14);
  EXPECT_NEAR(r.value, 1.0, 1e-9);
  EXPECT_EQ(r.abscissae, 14);
}

TEST(GaverStehfest, InvertsExponential) {
  // Order 14 delivers ~5-6 digits *relative to the function's scale*
  // (max |f| ~ 1 here) — the intrinsic truncation accuracy of the method,
  // degrading for steeply decaying f (b = 3: bt = 4.5).
  for (const double b : {0.2, 1.0, 3.0}) {
    const double t = 1.5;
    const auto r = gaver_stehfest_invert(
        [b](double s) { return 1.0 / (s + b); }, t, 14);
    const double truth = std::exp(-b * t);
    EXPECT_NEAR(r.value, truth, 1e-4) << "b=" << b;
  }
}

TEST(GaverStehfest, InvertsRamp) {
  const double t = 2.0;
  const auto r =
      gaver_stehfest_invert([](double s) { return 1.0 / (s * s); }, t, 14);
  EXPECT_NEAR(r.value, t, 1e-6 * t);
}

TEST(GaverStehfest, AccuracySaturatesInDoublePrecision) {
  // Truncation error shrinks with the order while the alternating weights
  // (~10^{n/2}) amplify round-off: accuracy improves up to order ~16 and
  // then degrades. This is the documented reason the paper's Durbin-family
  // method (stable at eps = 1e-12) is needed instead.
  const double t = 1.0;
  const auto f = [](double s) { return 1.0 / (s + 1.0); };
  const double truth = std::exp(-t);
  const double err10 =
      std::abs(gaver_stehfest_invert(f, t, 10).value - truth);
  const double err16 =
      std::abs(gaver_stehfest_invert(f, t, 16).value - truth);
  const double err20 =
      std::abs(gaver_stehfest_invert(f, t, 20).value - truth);
  EXPECT_LT(err16, err10);        // still truncation-dominated
  EXPECT_LT(err16, 1e-6);         // ~7 digits at best
  EXPECT_GT(err20, 1e-13);        // never reaches the Durbin regime
}

TEST(GaverStehfest, CrossChecksTheClosedFormTransform) {
  // Independent inversion of the Section 2.1 transform must agree with the
  // analytic two-state availability to GS accuracy (~1e-8).
  const auto m = make_two_state(1e-3, 1.0);
  const std::vector<double> rewards = {0.0, 1.0};
  const std::vector<double> alpha = {1.0, 0.0};
  for (const double t : {1.0, 50.0, 2000.0}) {
    const auto schema =
        compute_regenerative_schema(m.chain, rewards, alpha, 0, t, {});
    const TrrTransform transform(schema);
    const auto r = gaver_stehfest_invert(
        [&](double s) {
          return transform.trr(std::complex<double>(s, 0.0)).real();
        },
        t, 14);
    EXPECT_NEAR(r.value, m.unavailability(t),
                5e-5 * m.unavailability(t) + 1e-10)
        << "t=" << t;
  }
}

TEST(GaverStehfest, RejectsInvalidArguments) {
  const auto f = [](double s) { return 1.0 / s; };
  EXPECT_THROW((void)gaver_stehfest_invert(f, 0.0, 14), contract_error);
  EXPECT_THROW((void)gaver_stehfest_invert(f, 1.0, 13), contract_error);
  EXPECT_THROW((void)gaver_stehfest_invert(f, 1.0, 22), contract_error);
  EXPECT_THROW((void)stehfest_weight(0, 14), contract_error);
}

}  // namespace
}  // namespace rrl
