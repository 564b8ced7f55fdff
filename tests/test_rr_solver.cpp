// The original regenerative randomization method against analytic ground
// truth and standard randomization.
#include "core/rr_solver.hpp"

#include <gtest/gtest.h>

#include "core/compiled_artifact.hpp"
#include "core/standard_randomization.hpp"
#include "models/simple.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

TEST(Rr, TwoStateUnavailability) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomization rr(m.chain, {0.0, 1.0}, {1.0, 0.0}, 0);
  for (const double t : {0.1, 1.0, 100.0, 1e4}) {
    EXPECT_NEAR(rr.trr(t).value, m.unavailability(t), 1e-11) << "t=" << t;
  }
}

TEST(Rr, TwoStateIntervalUnavailability) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomization rr(m.chain, {0.0, 1.0}, {1.0, 0.0}, 0);
  for (const double t : {1.0, 50.0, 5e3}) {
    EXPECT_NEAR(rr.mrr(t).value, m.interval_unavailability(t), 1e-11)
        << "t=" << t;
  }
}

TEST(Rr, ErlangUnreliability) {
  const auto m = make_erlang(4, 0.8);
  std::vector<double> reward(5, 0.0);
  reward[4] = 1.0;
  std::vector<double> alpha(5, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomization rr(m.chain, reward, alpha, 0);
  for (const double t : {0.5, 2.0, 10.0, 100.0}) {
    EXPECT_NEAR(rr.trr(t).value, m.unreliability(t), 1e-11) << "t=" << t;
  }
}

TEST(Rr, MatchesSrOnRandomAbsorbingChain) {
  const auto c = make_random_ctmc(
      {.num_states = 18, .num_absorbing = 1, .seed = 3});
  std::vector<double> rewards(18, 0.0);
  rewards[17] = 1.0;
  std::vector<double> alpha(18, 0.0);
  alpha[0] = 1.0;
  const StandardRandomization sr(c, rewards, alpha);
  const RegenerativeRandomization rr(c, rewards, alpha, 0);
  for (const double t : {0.2, 2.0, 20.0}) {
    EXPECT_NEAR(rr.trr(t).value, sr.trr(t).value, 1e-11) << "t=" << t;
    EXPECT_NEAR(rr.mrr(t).value, sr.mrr(t).value, 1e-11) << "t=" << t;
  }
}

TEST(Rr, WorksWithNonDeltaInitialDistribution) {
  const auto m = make_two_state(2e-3, 0.5);
  const std::vector<double> alpha = {0.6, 0.4};
  const RegenerativeRandomization rr(m.chain, {0.0, 1.0}, alpha, 0);
  const StandardRandomization sr(m.chain, {0.0, 1.0}, alpha);
  for (const double t : {1.0, 30.0}) {
    EXPECT_NEAR(rr.trr(t).value, sr.trr(t).value, 1e-11) << "t=" << t;
  }
}

TEST(Rr, StatsAccounting) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomization rr(m.chain, {0.0, 1.0}, {1.0, 0.0}, 0);
  const auto r = rr.trr(1e4);
  const auto schema = rr.schema(1e4);
  EXPECT_EQ(r.stats.dtmc_steps, schema.dtmc_steps());
  // The V-solve is a standard randomization: ~ Lambda_V * t steps.
  EXPECT_GT(r.stats.vmodel_steps, static_cast<std::int64_t>(5e3));
  EXPECT_DOUBLE_EQ(r.stats.lambda, 1.0);
}

TEST(Rr, StepCountGrowsSlowlyForLargeT) {
  // K grows ~ logarithmically in t while the SR baseline grows linearly.
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomization rr(m.chain, {0.0, 1.0}, {1.0, 0.0}, 0);
  const auto k4 = rr.trr(1e4).stats.dtmc_steps;
  const auto k6 = rr.trr(1e6).stats.dtmc_steps;
  EXPECT_LT(k6, k4 + 60);  // two decades cost a bounded number of steps
  const StandardRandomization sr(m.chain, {0.0, 1.0}, {1.0, 0.0});
  EXPECT_LT(k6, sr.trr(1e6).stats.dtmc_steps / 1000);
}

TEST(Rr, RegenerativeStateChoiceDoesNotChangeTheAnswer) {
  const auto c = make_random_ctmc({.num_states = 12, .seed = 19});
  std::vector<double> rewards(12, 0.0);
  rewards[5] = 1.0;
  std::vector<double> alpha(12, 0.0);
  alpha[0] = 1.0;
  const double t = 10.0;
  const RegenerativeRandomization rr0(c, rewards, alpha, 0);
  const RegenerativeRandomization rr7(c, rewards, alpha, 7);
  EXPECT_NEAR(rr0.trr(t).value, rr7.trr(t).value, 1e-11);
}

TEST(Rr, RejectsInvalidRegenerativeState) {
  const auto m = make_erlang(3, 1.0);
  std::vector<double> rewards(4, 0.0);
  rewards[3] = 1.0;
  std::vector<double> alpha(4, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomization rr(m.chain, rewards, alpha, 3);
  EXPECT_THROW((void)rr.trr(1.0), contract_error);  // state 3 is absorbing
}

std::uint64_t dtmc_builds() {
  return metrics::counter("rrl_dtmc_builds_total").value();
}

TEST(Rr, VModelIsRandomizedOncePerKey) {
  // The first pass builds the chain's DTMC (the schema) and V_{K,L}'s;
  // later passes on the same (t_max, eps) read both from the memo.
  const auto c = make_random_ctmc(
      {.num_states = 18, .num_absorbing = 1, .seed = 3});
  std::vector<double> rewards(18, 0.0);
  rewards[17] = 1.0;
  std::vector<double> alpha(18, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomization rr(c, rewards, alpha, 0);
  const std::uint64_t before = dtmc_builds();
  const SolveReport first = rr.solve_grid(SolveRequest::trr({1.0, 20.0}));
  EXPECT_EQ(dtmc_builds(), before + 2);
  const SolveReport again = rr.solve_grid(SolveRequest::trr({1.0, 20.0}));
  (void)rr.solve_grid(SolveRequest::mrr({5.0, 20.0}));
  EXPECT_EQ(dtmc_builds(), before + 2);
  EXPECT_EQ(again.values(), first.values());
}

TEST(Rr, WarmSolverRandomizesOnlyItsVModels) {
  // Schemas imported from an artifact: no chain DTMC, and each key's
  // V_{K,L} randomized once however many passes read it.
  const auto c = make_random_ctmc(
      {.num_states = 18, .num_absorbing = 1, .seed = 3});
  std::vector<double> rewards(18, 0.0);
  rewards[17] = 1.0;
  std::vector<double> alpha(18, 0.0);
  alpha[0] = 1.0;
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 20.0}), SolveRequest::mrr({20.0}),
      SolveRequest::trr({2.0, 8.0}, 1e-8), SolveRequest::mrr({8.0}, 1e-8)};
  const RegenerativeRandomization cold(c, rewards, alpha, 0);
  std::vector<SolveReport> cold_reports;
  for (const SolveRequest& r : requests) {
    cold_reports.push_back(cold.solve_grid(r));
  }
  CompiledArtifact artifact;
  cold.export_compiled(artifact);
  ASSERT_EQ(artifact.schemas.size(), 2u);

  RegenerativeRandomization warm(c, rewards, alpha, 0);
  warm.import_compiled(std::move(artifact));
  const std::uint64_t before = dtmc_builds();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm.solve_grid(requests[i]).values(), cold_reports[i].values())
        << i;
  }
  EXPECT_EQ(dtmc_builds(), before + 2);
}

}  // namespace
}  // namespace rrl
