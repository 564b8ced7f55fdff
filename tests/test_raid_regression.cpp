// Regression anchors: exact measure values of the paper-grid RAID instances
// as computed by this library (cross-validated between independent solvers
// when first recorded). These protect the numerical pipeline against silent
// behavioural drift; the paper's own spot values are compared in
// bench/ablation_accuracy (to ~1%: the model is re-derived from the
// paper's prose).
#include <gtest/gtest.h>

#include "core/rrl_solver.hpp"
#include "models/raid5.hpp"

namespace rrl {
namespace {

RegenerativeRandomizationLaplace reliability_solver(int groups,
                                                    const Raid5Model*& keep) {
  static Raid5Model g20 = [] {
    Raid5Params p;
    p.groups = 20;
    return build_raid5_reliability(p);
  }();
  static Raid5Model g40 = [] {
    Raid5Params p;
    p.groups = 40;
    return build_raid5_reliability(p);
  }();
  Raid5Model& m = groups == 20 ? g20 : g40;
  keep = &m;
  RrlOptions opt;
  opt.epsilon = 1e-12;
  return {m.chain, m.failure_rewards(), m.initial_distribution(),
          m.initial_state, opt};
}

TEST(RaidRegression, UnreliabilityG20) {
  const Raid5Model* m = nullptr;
  const auto solver = reliability_solver(20, m);
  // Anchors recorded from this library (RRL = SR to < 1e-11 at t <= 1e3).
  EXPECT_NEAR(solver.trr(1e0).value, 1.698126825e-06, 1e-11);
  EXPECT_NEAR(solver.trr(1e2).value, 6.821651114e-04, 1e-9);
  EXPECT_NEAR(solver.trr(1e5).value, 4.989483479e-01, 1e-6);
}

TEST(RaidRegression, UnreliabilityG40) {
  const Raid5Model* m = nullptr;
  const auto solver = reliability_solver(40, m);
  EXPECT_NEAR(solver.trr(1e0).value, 3.359057657e-06, 1e-11);
  EXPECT_NEAR(solver.trr(1e2).value, 1.335622939e-03, 1e-9);
  EXPECT_NEAR(solver.trr(1e5).value, 7.416146488e-01, 1e-6);
}

TEST(RaidRegression, ModelFingerprints) {
  const Raid5Model* m20 = nullptr;
  (void)reliability_solver(20, m20);
  EXPECT_EQ(m20->chain.num_states(), 2481);
  EXPECT_EQ(m20->chain.num_transitions(), 13140);
  EXPECT_NEAR(m20->chain.max_exit_rate(), 23.751810, 1e-5);
  const Raid5Model* m40 = nullptr;
  (void)reliability_solver(40, m40);
  EXPECT_EQ(m40->chain.num_states(), 8161);
  EXPECT_EQ(m40->chain.num_transitions(), 45520);
  EXPECT_NEAR(m40->chain.max_exit_rate(), 43.753410, 1e-5);
}

TEST(RaidRegression, BiggerArraysAreLessReliable) {
  const Raid5Model* m = nullptr;
  const auto g20 = reliability_solver(20, m);
  const auto g40 = reliability_solver(40, m);
  for (const double t : {1e2, 1e4}) {
    EXPECT_GT(g40.trr(t).value, g20.trr(t).value) << "t=" << t;
  }
}

TEST(RaidRegression, SparesImproveAvailability) {
  auto ua_at = [](int disk_spares, int ctrl_spares) {
    Raid5Params p;
    p.groups = 5;
    p.disk_spares = disk_spares;
    p.ctrl_spares = ctrl_spares;
    const auto m = build_raid5_availability(p);
    RrlOptions opt;
    opt.epsilon = 1e-12;
    const RegenerativeRandomizationLaplace solver(
        m.chain, m.failure_rewards(), m.initial_distribution(),
        m.initial_state, opt);
    return solver.trr(1e4).value;
  };
  const double bare = ua_at(0, 0);
  const double disks_only = ua_at(3, 0);
  const double full = ua_at(3, 1);
  EXPECT_GT(bare, disks_only);
  EXPECT_GT(disks_only, full);
}

TEST(RaidRegression, StepCountsMatchPaperGrid) {
  // Tables 1-2 fidelity locked in as a regression (paper values +-2 steps).
  const Raid5Model* m = nullptr;
  const auto g20 = reliability_solver(20, m);
  EXPECT_NEAR(static_cast<double>(g20.schema(1e0).dtmc_steps()), 56, 2);
  EXPECT_NEAR(static_cast<double>(g20.schema(1e1).dtmc_steps()), 323, 2);
  EXPECT_NEAR(static_cast<double>(g20.schema(1e2).dtmc_steps()), 2233, 2);
  EXPECT_NEAR(static_cast<double>(g20.schema(1e3).dtmc_steps()), 2708, 2);
  const auto g40 = reliability_solver(40, m);
  EXPECT_NEAR(static_cast<double>(g40.schema(1e0).dtmc_steps()), 86, 2);
  EXPECT_NEAR(static_cast<double>(g40.schema(1e3).dtmc_steps()), 5122, 2);
}

}  // namespace
}  // namespace rrl
