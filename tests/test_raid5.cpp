// Structural and semantic tests of the RAID-5 model generator (paper Sec. 3).
#include "models/raid5.hpp"

#include <gtest/gtest.h>

#include "markov/scc.hpp"
#include "markov/ctmc.hpp"
#include "sparse/vector_ops.hpp"

namespace rrl {
namespace {

Raid5Params small_params(int groups = 3) {
  Raid5Params p;
  p.groups = groups;
  return p;
}

TEST(Raid5, AvailabilityModelIsIrreducible) {
  const auto m = build_raid5_availability(small_params());
  const CtmcStructure s = classify_structure(m.chain);
  EXPECT_TRUE(s.valid);
  EXPECT_TRUE(s.irreducible);
}

TEST(Raid5, ReliabilityModelHasOneAbsorbingFailedState) {
  const auto m = build_raid5_reliability(small_params());
  const CtmcStructure s = classify_structure(m.chain);
  EXPECT_TRUE(s.valid);
  EXPECT_FALSE(s.irreducible);
  ASSERT_EQ(s.absorbing.size(), 1u);
  EXPECT_EQ(s.absorbing[0], m.failed_state);
}

TEST(Raid5, ReliabilityHasExactlyOneTransitionLess) {
  // The paper: "The models with absorbing state have the same number of
  // states and one transition less."
  const auto avail = build_raid5_availability(small_params());
  const auto rel = build_raid5_reliability(small_params());
  EXPECT_EQ(avail.chain.num_states(), rel.chain.num_states());
  EXPECT_EQ(avail.chain.num_transitions(), rel.chain.num_transitions() + 1);
}

TEST(Raid5, InitialStateIsPerfect) {
  const auto m = build_raid5_availability(small_params());
  const Raid5State& s =
      m.states[static_cast<std::size_t>(m.initial_state)];
  EXPECT_EQ(s.nfd, 0);
  EXPECT_EQ(s.nwd, 0);
  EXPECT_EQ(s.ndr, 0);
  EXPECT_EQ(s.nsd, m.params.disk_spares);
  EXPECT_EQ(s.nfc, 0);
  EXPECT_EQ(s.nsc, m.params.ctrl_spares);
  EXPECT_TRUE(s.aligned);
  EXPECT_FALSE(s.failed);
}

TEST(Raid5, StateInvariants) {
  // The documented reachability invariants of the approximated model.
  const auto m = build_raid5_availability(small_params(4));
  const int G = m.params.groups;
  for (const Raid5State& s : m.states) {
    if (s.failed) continue;
    EXPECT_LE(s.nfc, 1);
    EXPECT_GE(s.nfd, 0);
    EXPECT_GE(s.nwd, 0);
    EXPECT_GE(s.ndr, 0);
    EXPECT_GE(s.nsd, 0);
    EXPECT_LE(s.nsd, m.params.disk_spares);
    EXPECT_GE(s.nsc, 0);
    EXPECT_LE(s.nsc, m.params.ctrl_spares);
    if (s.nfc == 1) {
      EXPECT_TRUE(s.aligned) << s.to_string();
      EXPECT_EQ(s.ndr, 0) << s.to_string();
      EXPECT_LE(s.nfd + s.nwd, G) << s.to_string();
    } else {
      EXPECT_EQ(s.nwd, 0) << s.to_string();
      EXPECT_LE(s.nfd + s.ndr, G) << s.to_string();
    }
    if (!s.aligned) {
      EXPECT_GE(s.unavailable(), 2) << s.to_string();
    }
  }
}

TEST(Raid5, AllEightEventClassesAreReachable) {
  // The state space must contain waiting disks, unaligned states, exhausted
  // spare pools and full-string reconstructions.
  const auto m = build_raid5_availability(small_params(4));
  bool any_waiting = false;
  bool any_unaligned = false;
  bool any_no_disk_spares = false;
  bool any_no_ctrl_spares = false;
  bool any_full_string_rebuild = false;
  for (const Raid5State& s : m.states) {
    if (s.failed) continue;
    any_waiting |= s.nwd > 0;
    any_unaligned |= !s.aligned;
    any_no_disk_spares |= s.nsd == 0;
    any_no_ctrl_spares |= s.nsc == 0;
    any_full_string_rebuild |= s.ndr == m.params.groups;
  }
  EXPECT_TRUE(any_waiting);
  EXPECT_TRUE(any_unaligned);
  EXPECT_TRUE(any_no_disk_spares);
  EXPECT_TRUE(any_no_ctrl_spares);
  EXPECT_TRUE(any_full_string_rebuild);
}

TEST(Raid5, LambdaScalesWithGroupCount) {
  // Max output rate is dominated by a whole-string reconstruction plus a
  // repairman action: Lambda ~ G - 1 + mu_drp + spare replenishments. This
  // is what makes the paper's SR step counts ~ (G + 4) * t.
  const auto m20 = build_raid5_availability(small_params(20));
  const auto m40 = build_raid5_availability(small_params(40));
  EXPECT_NEAR(m20.chain.max_exit_rate(), 23.75, 0.15);
  EXPECT_NEAR(m40.chain.max_exit_rate(), 43.75, 0.15);
}

TEST(Raid5, PaperInstanceSizes) {
  // Our re-derived generator reproduces the paper's model to the extent the
  // prose specifies it; sizes are the same order as the paper's 3841/14081
  // states and 24785/94405 transitions, not equal to them, because the
  // prose does not pin down every transition.
  const auto m20 = build_raid5_availability(small_params(20));
  EXPECT_EQ(m20.chain.num_states(), 2481);
  EXPECT_EQ(m20.chain.num_transitions(), 13141);
  const auto m40 = build_raid5_availability(small_params(40));
  EXPECT_EQ(m40.chain.num_states(), 8161);
  EXPECT_EQ(m40.chain.num_transitions(), 45521);
}

TEST(Raid5, StateCountGrowsQuadraticallyInGroups) {
  const auto m10 = build_raid5_availability(small_params(10));
  const auto m20 = build_raid5_availability(small_params(20));
  const double ratio = static_cast<double>(m20.chain.num_states()) /
                       static_cast<double>(m10.chain.num_states());
  EXPECT_GT(ratio, 2.5);  // super-linear
  EXPECT_LT(ratio, 4.5);  // ~quadratic
}

TEST(Raid5, FailureRewardsSelectTheFailedState) {
  const auto m = build_raid5_availability(small_params());
  const auto r = m.failure_rewards();
  EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(m.failed_state)], 1.0);
  EXPECT_DOUBLE_EQ(sum(r), 1.0);
}

TEST(Raid5, ThroughputRewardsAreSane) {
  const auto m = build_raid5_availability(small_params());
  const auto r = m.throughput_rewards(0.5);
  EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(m.initial_state)], 1.0);
  EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(m.failed_state)], 0.0);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_GE(r[i], 0.0);
    EXPECT_LE(r[i], 1.0);
    const Raid5State& s = m.states[i];
    if (!s.failed && (s.unavailable() > 0 || s.nfc > 0)) {
      EXPECT_LT(r[i], 1.0) << s.to_string();
    }
  }
}

TEST(Raid5, InitialDistributionIsDeltaAtInitial) {
  const auto m = build_raid5_reliability(small_params());
  const auto alpha = m.initial_distribution();
  EXPECT_DOUBLE_EQ(alpha[static_cast<std::size_t>(m.initial_state)], 1.0);
  EXPECT_DOUBLE_EQ(sum(alpha), 1.0);
}

TEST(Raid5, GlobalRepairArcExistsOnlyInAvailabilityModel) {
  const auto avail = build_raid5_availability(small_params());
  const auto rel = build_raid5_reliability(small_params());
  EXPECT_DOUBLE_EQ(
      avail.chain.rates().coeff(avail.failed_state, avail.initial_state),
      avail.params.mu_g);
  EXPECT_TRUE(rel.chain.is_absorbing(rel.failed_state));
}

TEST(Raid5, PerfectReconstructionRemovesRebuildFailures) {
  Raid5Params p = small_params();
  p.p_r = 1.0;
  const auto perfect = build_raid5_reliability(p);
  p.p_r = 0.999;
  const auto lossy = build_raid5_reliability(p);
  // Locate the one-disk-reconstructing state in both models and compare the
  // rate into the failed state: the lossy model adds ndr*mu_drc*(1 - p_r).
  auto rate_from_rebuild_state = [](const Raid5Model& m) {
    for (std::size_t i = 0; i < m.states.size(); ++i) {
      const Raid5State& s = m.states[i];
      if (!s.failed && s.ndr == 1 && s.nfd == 0 && s.nwd == 0 &&
          s.nfc == 0 && s.nsd == m.params.disk_spares - 1) {
        return m.chain.rates().coeff(static_cast<index_t>(i),
                                     m.failed_state);
      }
    }
    ADD_FAILURE() << "rebuild state not found";
    return 0.0;
  };
  const double perfect_rate = rate_from_rebuild_state(perfect);
  const double lossy_rate = rate_from_rebuild_state(lossy);
  EXPECT_NEAR(lossy_rate - perfect_rate, 1.0 * 1.0 * (1.0 - 0.999), 1e-12);
}

TEST(Raid5, RejectsInvalidParameters) {
  Raid5Params p;
  p.groups = 0;
  EXPECT_THROW(build_raid5_availability(p), contract_error);
  p = Raid5Params{};
  p.p_r = 1.5;
  EXPECT_THROW(build_raid5_reliability(p), contract_error);
}

}  // namespace
}  // namespace rrl
