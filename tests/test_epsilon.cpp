// Unit tests for the Wynn epsilon-algorithm series accelerator.
#include "laplace/epsilon.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/contracts.hpp"

namespace rrl {
namespace {

TEST(Epsilon, GeometricSeriesIsSummedExactly) {
  // sum q^k = 1/(1-q): the epsilon algorithm is exact for geometric series
  // after a handful of terms.
  const double q = 0.7;
  EpsilonAccelerator accel;
  double partial = 0.0;
  double term = 1.0;
  for (int k = 0; k < 10; ++k) {
    partial += term;
    term *= q;
    accel.push(partial);
  }
  EXPECT_NEAR(accel.estimate(), 1.0 / (1.0 - q), 1e-12);
  // The raw partial sum is still far away.
  EXPECT_GT(std::abs(partial - 1.0 / (1.0 - q)), 1e-2);
}

TEST(Epsilon, AlternatingLogSeries) {
  // sum_{k>=1} (-1)^{k+1}/k = log 2; plain summation converges like 1/n.
  EpsilonAccelerator accel;
  double partial = 0.0;
  for (int k = 1; k <= 25; ++k) {
    partial += (k % 2 == 1 ? 1.0 : -1.0) / k;
    accel.push(partial);
  }
  EXPECT_NEAR(accel.estimate(), std::log(2.0), 1e-12);
  EXPECT_GT(std::abs(partial - std::log(2.0)), 1e-2);
}

TEST(Epsilon, LeibnizPiSeries) {
  // sum (-1)^k/(2k+1) = pi/4.
  EpsilonAccelerator accel;
  double partial = 0.0;
  for (int k = 0; k < 30; ++k) {
    partial += (k % 2 == 0 ? 1.0 : -1.0) / (2 * k + 1);
    accel.push(partial);
  }
  EXPECT_NEAR(accel.estimate(), M_PI / 4.0, 1e-12);
}

TEST(Epsilon, ConstantSequenceIsReturnedVerbatim) {
  EpsilonAccelerator accel;
  for (int k = 0; k < 6; ++k) accel.push(42.0);
  EXPECT_DOUBLE_EQ(accel.estimate(), 42.0);
}

TEST(Epsilon, LockedTableKeepsCounting) {
  // A constant sequence locks the table at its second push; count() still
  // counts every push, since Crump's min_terms stop reads it.
  EpsilonAccelerator accel;
  for (int k = 0; k < 6; ++k) accel.push(42.0);
  EXPECT_EQ(accel.count(), 6);
  EXPECT_DOUBLE_EQ(accel.estimate(), 42.0);
}

TEST(Epsilon, ExactConvergenceMidStream) {
  // Series that converges exactly after 3 terms; the zero differences must
  // not produce NaNs.
  EpsilonAccelerator accel;
  accel.push(1.0);
  accel.push(1.5);
  accel.push(1.75);
  for (int k = 0; k < 5; ++k) accel.push(1.75);
  EXPECT_TRUE(std::isfinite(accel.estimate()));
  EXPECT_NEAR(accel.estimate(), 1.75, 1e-12);
}

TEST(Epsilon, FirstEstimateIsFirstPartialSum) {
  EpsilonAccelerator accel;
  accel.push(3.25);
  EXPECT_DOUBLE_EQ(accel.estimate(), 3.25);
  EXPECT_EQ(accel.count(), 1);
}

TEST(Epsilon, EstimateBeforePushThrows) {
  const EpsilonAccelerator accel;
  EXPECT_THROW((void)accel.estimate(), contract_error);
}

}  // namespace
}  // namespace rrl
