// Tests of the RRL extensions: rigorous bounds (the flavour of the paper's
// reference [2]) and the multi-time-point grid solve.
#include <gtest/gtest.h>

#include <vector>

#include "core/rrl_solver.hpp"
#include "core/standard_randomization.hpp"
#include "models/raid5.hpp"
#include "models/simple.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

TEST(RrlBounds, BracketTheTrueValue) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {1.0, 100.0, 1e4}) {
    const auto b = solver.bounds(t, MeasureKind::kTrr);
    const double truth = m.unavailability(t);
    EXPECT_LE(b.lower, truth) << "t=" << t;
    EXPECT_GE(b.upper, truth) << "t=" << t;
    EXPECT_LE(b.lower, b.value);
    EXPECT_GE(b.upper, b.value);
    // The bracket is tight: within a few eps of the point estimate.
    EXPECT_LE(b.upper - b.lower, 5e-12) << "t=" << t;
  }
}

TEST(RrlBounds, MrrBracket) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {10.0, 1e3}) {
    const auto b = solver.bounds(t, MeasureKind::kMrr);
    const double truth = m.interval_unavailability(t);
    EXPECT_LE(b.lower, truth + 1e-15) << "t=" << t;
    EXPECT_GE(b.upper, truth - 1e-15) << "t=" << t;
  }
}

TEST(RrlBounds, RespectRewardRange) {
  const auto m = make_erlang(3, 2.0);
  std::vector<double> reward(4, 0.0);
  reward[3] = 1.0;
  std::vector<double> alpha(4, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomizationLaplace solver(m.chain, reward, alpha, 0);
  const auto b = solver.bounds(50.0, MeasureKind::kTrr);  // UR(50) ~ 1
  EXPECT_GE(b.lower, 0.0);
  EXPECT_LE(b.upper, 1.0);  // clipped at r_max
}

TEST(RrlBatch, MatchesPerPointSolves) {
  const auto c = make_random_ctmc(
      {.num_states = 14, .num_absorbing = 1, .seed = 8});
  std::vector<double> rewards(14, 0.0);
  rewards[13] = 1.0;
  std::vector<double> alpha(14, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomizationLaplace solver(c, rewards, alpha, 0);
  const std::vector<double> ts = {0.5, 2.0, 8.0, 32.0, 128.0};
  const SolveReport batch_trr = solver.solve_grid(SolveRequest::trr(ts));
  const SolveReport batch_mrr = solver.solve_grid(SolveRequest::mrr(ts));
  ASSERT_EQ(batch_trr.points.size(), ts.size());
  ASSERT_EQ(batch_mrr.points.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(batch_trr.points[i].value, solver.trr(ts[i]).value, 2e-12)
        << "t=" << ts[i];
    EXPECT_NEAR(batch_mrr.points[i].value, solver.mrr(ts[i]).value, 2e-12)
        << "t=" << ts[i];
  }
}

TEST(RrlBatch, UnsortedSweepIsFine) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  const std::vector<double> ts = {1e4, 1.0, 100.0};
  const SolveReport batch = solver.solve_grid(SolveRequest::trr(ts));
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(batch.points[i].value, m.unavailability(ts[i]), 1e-11);
  }
}

TEST(RrlBatch, SchemaIsPaidOnce) {
  // The sweep steps one schema, at its largest time; every point then only
  // pays its own inversion.
  const auto model = [] {
    Raid5Params p;
    p.groups = 3;
    return build_raid5_availability(p);
  }();
  const RegenerativeRandomizationLaplace solver(
      model.chain, model.failure_rewards(), model.initial_distribution(),
      model.initial_state);
  const std::vector<double> ts = {1.0, 10.0, 100.0, 1000.0};
  const SolveReport batch = solver.solve_grid(SolveRequest::trr(ts));
  EXPECT_GT(batch.total.dtmc_steps, 0);
  EXPECT_EQ(batch.total.dtmc_steps, solver.trr(ts.back()).stats.dtmc_steps);
  for (const TransientValue& p : batch.points) {
    EXPECT_GT(p.stats.abscissae, 0);
  }
  // Batch matches the per-point values on the RAID model too.
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(batch.points[i].value, solver.trr(ts[i]).value, 2e-12);
  }
}

TEST(RrlBatch, RejectsEmptyAndNonPositive) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  EXPECT_THROW((void)solver.solve_grid(SolveRequest::trr({})),
               contract_error);
  EXPECT_THROW((void)solver.solve_grid(SolveRequest::mrr({1.0, 0.0})),
               contract_error);
  EXPECT_THROW((void)solver.solve_grid(SolveRequest::trr({1.0, -1.0})),
               contract_error);
}

TEST(RrlBounds, RejectsNonPositiveTime) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  EXPECT_THROW((void)solver.bounds(0.0, MeasureKind::kTrr), contract_error);
  EXPECT_THROW((void)solver.bounds(0.0, MeasureKind::kMrr), contract_error);
}

}  // namespace
}  // namespace rrl
