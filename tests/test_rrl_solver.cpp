// The paper's proposed method (RRL) against analytic ground truth, SR, and
// its own error bound.
#include "core/rrl_solver.hpp"

#include <gtest/gtest.h>

#include "core/standard_randomization.hpp"
#include "models/simple.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

TEST(Rrl, TwoStateUnavailability) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {0.1, 1.0, 100.0, 1e4, 1e6}) {
    const auto r = solver.trr(t);
    EXPECT_TRUE(r.stats.inversion_converged) << "t=" << t;
    EXPECT_NEAR(r.value, m.unavailability(t), 1e-11) << "t=" << t;
  }
}

TEST(Rrl, TwoStateIntervalUnavailability) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {1.0, 50.0, 5e3, 1e5}) {
    const auto r = solver.mrr(t);
    EXPECT_TRUE(r.stats.inversion_converged) << "t=" << t;
    EXPECT_NEAR(r.value, m.interval_unavailability(t), 1e-10) << "t=" << t;
  }
}

TEST(Rrl, ErlangUnreliability) {
  const auto m = make_erlang(4, 0.8);
  std::vector<double> reward(5, 0.0);
  reward[4] = 1.0;
  std::vector<double> alpha(5, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomizationLaplace solver(m.chain, reward, alpha, 0);
  for (const double t : {0.5, 2.0, 10.0, 100.0}) {
    EXPECT_NEAR(solver.trr(t).value, m.unreliability(t), 1e-11)
        << "t=" << t;
  }
}

TEST(Rrl, MatchesSrWithinEpsilonOnRandomChains) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto c = make_random_ctmc(
        {.num_states = 16, .num_absorbing = 1, .seed = seed});
    std::vector<double> rewards(16, 0.0);
    rewards[15] = 1.0;
    rewards[4] = 0.3;
    std::vector<double> alpha(16, 0.0);
    alpha[0] = 1.0;
    RrlOptions opt;
    opt.epsilon = 1e-10;
    const RegenerativeRandomizationLaplace rrl_solver(c, rewards, alpha, 0,
                                                      opt);
    SrOptions sr_opt;
    sr_opt.epsilon = 1e-13;
    const StandardRandomization sr(c, rewards, alpha, sr_opt);
    for (const double t : {0.5, 5.0, 50.0}) {
      EXPECT_NEAR(rrl_solver.trr(t).value, sr.trr(t).value, 1e-10)
          << "seed=" << seed << " t=" << t;
      EXPECT_NEAR(rrl_solver.mrr(t).value, sr.mrr(t).value, 1e-9 * t)
          << "seed=" << seed << " t=" << t;
    }
  }
}

TEST(Rrl, PaperEpsilonAccuracyTarget) {
  // eps = 1e-12 on a UR-style measure ~ 0.5: the inversion must deliver
  // ~12 absolute digits (the paper reports ~14 significant digits demanded
  // of the algorithm at t = 1e5).
  const auto m = make_erlang(2, 1e-5);
  std::vector<double> reward(3, 0.0);
  reward[2] = 1.0;
  std::vector<double> alpha(3, 0.0);
  alpha[0] = 1.0;
  RrlOptions opt;
  opt.epsilon = 1e-12;
  const RegenerativeRandomizationLaplace solver(m.chain, reward, alpha, 0,
                                                opt);
  const double t = 1e5;
  const auto r = solver.trr(t);
  EXPECT_TRUE(r.stats.inversion_converged);
  EXPECT_NEAR(r.value, m.unreliability(t), 1e-11);
}

TEST(Rrl, NonDeltaInitialDistributionUsesPrimedChain) {
  const auto m = make_two_state(2e-3, 0.5);
  const std::vector<double> alpha = {0.6, 0.4};
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0}, alpha,
                                                0);
  const StandardRandomization sr(m.chain, {0.0, 1.0}, alpha);
  for (const double t : {1.0, 30.0, 500.0}) {
    EXPECT_NEAR(solver.trr(t).value, sr.trr(t).value, 1e-11) << "t=" << t;
    EXPECT_NEAR(solver.mrr(t).value, sr.mrr(t).value, 1e-10) << "t=" << t;
  }
}

TEST(Rrl, AbscissaeCountIsModest) {
  // The paper reports 105..329 abscissae across its whole experiment set;
  // small models should stay in the same range.
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {1.0, 100.0, 1e4}) {
    const auto r = solver.trr(t);
    EXPECT_GE(r.stats.abscissae, 8) << "t=" << t;
    EXPECT_LE(r.stats.abscissae, 1000) << "t=" << t;
  }
}

TEST(Rrl, WorkDoesNotGrowLinearlyInT) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  const auto r4 = solver.trr(1e4);
  const auto r6 = solver.trr(1e6);
  // Schema steps grow logarithmically; abscissae stay bounded.
  EXPECT_LT(r6.stats.dtmc_steps, r4.stats.dtmc_steps + 60);
  EXPECT_LT(r6.stats.abscissae, 1000);
}

TEST(Rrl, TimeZero) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {0.0, 1.0}, 0);
  EXPECT_DOUBLE_EQ(solver.trr(0.0).value, 1.0);
}

TEST(Rrl, ZeroRewardsShortCircuit) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 0.0},
                                                {1.0, 0.0}, 0);
  const auto r = solver.trr(10.0);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  EXPECT_EQ(r.stats.abscissae, 0);
}

TEST(Rrl, UnreachableRewardConvergesInMinTerms) {
  // r_max > 0 but the rewarded state 3 is absorbing and nothing enters it:
  // the transform is identically zero, so every inversion stops as soon as
  // min_terms abscissae are in, instead of running to max_terms.
  const Ctmc chain = Ctmc::from_transitions(
      4, {{0, 1, 0.002}, {1, 0, 1.0}, {1, 2, 0.001}, {2, 0, 0.5}});
  const RegenerativeRandomizationLaplace solver(
      chain, {0.0, 0.0, 0.0, 1.0}, {1.0, 0.0, 0.0, 0.0}, 0);
  for (const MeasureKind kind : {MeasureKind::kTrr, MeasureKind::kMrr}) {
    const SolveReport report =
        solver.solve_grid(SolveRequest{kind, {1.0, 10.0, 100.0}});
    for (const TransientValue& p : report.points) {
      EXPECT_EQ(p.value, 0.0);
      EXPECT_TRUE(p.stats.inversion_converged);
      EXPECT_EQ(p.stats.abscissae, CrumpOptions{}.min_terms);
    }
  }
}

TEST(Rrl, TMultiplierOptionsAllWork) {
  const auto m = make_two_state(1e-3, 1.0);
  for (const double mult : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    RrlOptions opt;
    opt.t_multiplier = mult;
    const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                  {1.0, 0.0}, 0, opt);
    const double t = 100.0;
    EXPECT_NEAR(solver.trr(t).value, m.unavailability(t), 1e-10)
        << "mult=" << mult;
  }
}

TEST(Rrl, MrrStaysBelowPeakTrr) {
  // MRR over [0, t] of a non-decreasing TRR is bounded by TRR(t).
  const auto m = make_erlang(3, 0.5);
  std::vector<double> reward(4, 0.0);
  reward[3] = 1.0;
  std::vector<double> alpha(4, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomizationLaplace solver(m.chain, reward, alpha, 0);
  for (const double t : {1.0, 10.0}) {
    EXPECT_LE(solver.mrr(t).value, solver.trr(t).value + 1e-12)
        << "t=" << t;
  }
}

}  // namespace
}  // namespace rrl
