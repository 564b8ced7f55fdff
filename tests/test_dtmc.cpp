// Unit tests for the randomized (uniformized) DTMC.
#include "markov/dtmc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "models/simple.hpp"
#include "sparse/vector_ops.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

TEST(Dtmc, LambdaIsMaxExitRate) {
  const auto m = make_two_state(1e-3, 1.0);
  const RandomizedDtmc d(m.chain);
  EXPECT_DOUBLE_EQ(d.lambda(), 1.0);
}

TEST(Dtmc, RateFactorScalesLambda) {
  const auto m = make_two_state(1e-3, 1.0);
  const RandomizedDtmc d(m.chain, 1.5);
  EXPECT_DOUBLE_EQ(d.lambda(), 1.5);
}

TEST(Dtmc, TransitionMatrixIsStochastic) {
  const Ctmc c = Ctmc::from_transitions(
      3, {{0, 1, 2.0}, {0, 2, 1.0}, {1, 0, 5.0}, {2, 0, 0.5}});
  const RandomizedDtmc d(c);
  // Row sums of P = column sums of the stored P^T.
  std::vector<double> ones(3, 1.0);
  std::vector<double> col_sums(3, 0.0);
  d.transition_transposed().mul_vec_transposed(ones, col_sums);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(col_sums[i], 1.0, 1e-15) << "row " << i;
  }
}

TEST(Dtmc, SelfLoopProbabilities) {
  const Ctmc c = Ctmc::from_transitions(
      3, {{0, 1, 2.0}, {1, 0, 4.0}, {2, 0, 1.0}});
  const RandomizedDtmc d(c);
  EXPECT_DOUBLE_EQ(d.lambda(), 4.0);
  EXPECT_DOUBLE_EQ(d.self_loop(0), 0.5);
  EXPECT_DOUBLE_EQ(d.self_loop(1), 0.0);
  EXPECT_DOUBLE_EQ(d.self_loop(2), 0.75);
}

TEST(Dtmc, StepPreservesProbabilityMass) {
  const auto m = make_mm1k(2.0, 3.0, 5);
  const RandomizedDtmc d(m.chain);
  std::vector<double> pi(6, 0.0);
  pi[0] = 1.0;
  std::vector<double> next(6, 0.0);
  for (int k = 0; k < 100; ++k) {
    d.step(pi, next);
    pi.swap(next);
    EXPECT_NEAR(sum(pi), 1.0, 1e-13);
  }
}

TEST(Dtmc, StepMatchesManualComputation) {
  // Two-state: P = [[1-l/L, l/L], [m/L, 1-m/L]] with L = max(l, m).
  const auto m = make_two_state(0.5, 2.0);
  const RandomizedDtmc d(m.chain);
  std::vector<double> pi = {0.25, 0.75};
  std::vector<double> next(2, 0.0);
  d.step(pi, next);
  EXPECT_NEAR(next[0], 0.25 * (1 - 0.25) + 0.75 * 1.0, 1e-15);
  EXPECT_NEAR(next[1], 0.25 * 0.25 + 0.75 * 0.0, 1e-15);
}

TEST(Dtmc, AbsorbingStateGetsFullSelfLoop) {
  const Ctmc c = Ctmc::from_transitions(2, {{0, 1, 1.0}});
  const RandomizedDtmc d(c);
  EXPECT_DOUBLE_EQ(d.self_loop(1), 1.0);
  std::vector<double> pi = {0.0, 1.0};
  std::vector<double> next(2, 0.0);
  d.step(pi, next);
  EXPECT_DOUBLE_EQ(next[1], 1.0);
}

TEST(Dtmc, RejectsAllAbsorbingChain) {
  const Ctmc c = Ctmc::from_transitions(2, {{0, 1, 0.0}});
  EXPECT_THROW(RandomizedDtmc{c}, contract_error);
}

TEST(Dtmc, RejectsRateFactorBelowOne) {
  const auto m = make_two_state(1.0, 1.0);
  EXPECT_THROW(RandomizedDtmc(m.chain, 0.5), contract_error);
}

std::uint64_t dtmc_builds() {
  return metrics::counter("rrl_dtmc_builds_total").value();
}

TEST(LazyDtmc, BuildsOnceOnFirstUseFromAnyThread) {
  const auto m = make_mm1k(2.0, 3.0, 50);
  const std::uint64_t before = dtmc_builds();
  const LazyDtmc lazy(m.chain, 1.0, /*row_form=*/true);
  EXPECT_EQ(dtmc_builds(), before);  // construction builds nothing

  std::vector<const RandomizedDtmc*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < seen.size(); ++k) {
    threads.emplace_back([&, k] { seen[k] = &lazy.get(); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(dtmc_builds(), before + 1);
  for (const RandomizedDtmc* d : seen) EXPECT_EQ(d, seen.front());

  // Bit for bit the eager build, row form included.
  const RandomizedDtmc eager(m.chain);
  const CsrMatrix& pt = lazy.get().transition_transposed();
  EXPECT_EQ(lazy.get().lambda(), eager.lambda());
  EXPECT_TRUE(std::ranges::equal(pt.values(),
                                 eager.transition_transposed().values()));
  const CsrMatrix p = eager.transition_transposed().transposed();
  EXPECT_TRUE(std::ranges::equal(lazy.row_form().col_idx(), p.col_idx()));
  EXPECT_TRUE(std::ranges::equal(lazy.row_form().values(), p.values()));
}

TEST(LazyDtmc, AdoptBeforeFirstUseReplacesTheBuild) {
  const auto m = make_mm1k(2.0, 3.0, 50);
  const RandomizedDtmc donor(m.chain);
  const auto loops = donor.self_loops();
  const std::uint64_t before = dtmc_builds();

  LazyDtmc lazy(m.chain, 1.0, /*row_form=*/true);
  ASSERT_TRUE(lazy.adopt(donor.transition_transposed(),
                         std::vector<double>(loops.begin(), loops.end()),
                         donor.lambda()));
  EXPECT_TRUE(std::ranges::equal(lazy.get().transition_transposed().values(),
                                 donor.transition_transposed().values()));
  EXPECT_EQ(lazy.row_form().nnz(), donor.transition_transposed().nnz());
  EXPECT_EQ(dtmc_builds(), before);  // the chain was never randomized
}

TEST(LazyDtmc, AdoptRefusesPartsShapedForAnotherChain) {
  const auto m = make_mm1k(2.0, 3.0, 5);
  const auto other = make_mm1k(2.0, 3.0, 6);
  const RandomizedDtmc donor(other.chain);
  const auto loops = donor.self_loops();
  LazyDtmc lazy(m.chain, 1.0);
  EXPECT_FALSE(lazy.adopt(donor.transition_transposed(),
                          std::vector<double>(loops.begin(), loops.end()),
                          donor.lambda()));
  EXPECT_EQ(lazy.get().num_states(), 6);  // built from its own chain
  // A chain that cannot be randomized fails at construction.
  const Ctmc dead = Ctmc::from_transitions(2, {{0, 1, 0.0}});
  EXPECT_THROW(LazyDtmc(dead, 1.0), contract_error);
}

}  // namespace
}  // namespace rrl
