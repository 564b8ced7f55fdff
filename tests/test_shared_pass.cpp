// One pass, many readers (TransientSolver::shares_pass / solve_shared) and
// the sweep engine's unit hand-out built on it.
//
// SR's pi_0 P^n and RSD's P^n r are one iterate for every request of a
// solver; Krylov's pass depends on eps and the grid but not the measure;
// RR's V_{K,L} pass depends only on the compiled schema (eps, t_max);
// RRL answers each request on its own, with one inversion per point.
// The contract: every answer of a shared pass is BITWISE the request's own
// solve_grid answer — value and stats (timings aside) — whatever its
// siblings ask. Values are compared with memcmp, not ==: -0.0 == 0.0 would
// hide a sign flip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/grid_sweep.hpp"
#include "rrl.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_stats_equal(const SolverStats& got, const SolverStats& want,
                        const std::string& label) {
  EXPECT_EQ(got.dtmc_steps, want.dtmc_steps) << label;
  EXPECT_EQ(got.vmodel_steps, want.vmodel_steps) << label;
  EXPECT_EQ(got.abscissae, want.abscissae) << label;
  EXPECT_TRUE(same_bits(got.lambda, want.lambda)) << label;
  EXPECT_EQ(got.capped, want.capped) << label;
  EXPECT_EQ(got.detection_step, want.detection_step) << label;
  EXPECT_EQ(got.inversion_converged, want.inversion_converged) << label;
}

void expect_same(const SolveReport& got, const SolveReport& want,
                 const std::string& label) {
  ASSERT_EQ(got.points.size(), want.points.size()) << label;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    const std::string at = label + " point " + std::to_string(i);
    EXPECT_TRUE(same_bits(got.points[i].value, want.points[i].value))
        << at << " got " << got.points[i].value << " want "
        << want.points[i].value;
    expect_stats_equal(got.points[i].stats, want.points[i].stats, at);
  }
  expect_stats_equal(got.total, want.total, label + " total");
}

std::vector<SharedResult> shared(const TransientSolver& solver,
                                 const std::vector<SolveRequest>& requests,
                                 SolveWorkspace& workspace) {
  std::vector<const SolveRequest*> ptrs;
  for (const SolveRequest& r : requests) ptrs.push_back(&r);
  return solver.solve_shared(ptrs, workspace);
}

/// One solve_shared over `requests` answers each exactly as its own
/// solve_grid does; `pool` (optional) is lent for row-partitioned products.
void expect_shared_equals_solo(const TransientSolver& solver,
                               const std::vector<SolveRequest>& requests,
                               const std::string& label,
                               ThreadPool* pool = nullptr) {
  std::vector<SolveReport> solo;
  for (const SolveRequest& r : requests) solo.push_back(solver.solve_grid(r));
  SolveWorkspace workspace;
  workspace.lent_pool = pool;
  const std::vector<SharedResult> got = shared(solver, requests, workspace);
  ASSERT_EQ(got.size(), requests.size()) << label;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[i].error, nullptr) << label << " request " << i;
    expect_same(got[i].report, solo[i],
                label + " request " + std::to_string(i));
  }
}

// Requests differing in everything a reader keeps for itself: measure,
// eps (truncation, detection tolerance) and grid (length, order, t = 0).
std::vector<SolveRequest> mixed_requests() {
  return {
      SolveRequest::trr({0.5, 5.0, 50.0}),
      SolveRequest::mrr({0.5, 5.0, 50.0}, 1e-6),
      SolveRequest::trr({2.0, 0.1}, 1e-10),
      SolveRequest::mrr({40.0}, 1e-12),
      SolveRequest::trr({0.0, 7.0}, 1e-4),
  };
}

struct Rewarded {
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
};

Rewarded random_model(std::uint64_t seed) {
  Rewarded m{make_random_ctmc({.num_states = 30, .seed = seed}), {}, {}};
  m.rewards.assign(30, 0.0);
  m.rewards[4] = 1.0;
  m.rewards[17] = 0.25;
  m.rewards[29] = 2.0;
  m.initial.assign(30, 0.0);
  m.initial[0] = 1.0;
  return m;
}

// A birth-death chain big enough for pooled products (its stored entries
// pass SolveWorkspace::kMinPooledNnz) with a spread initial distribution,
// so the forward pass's live prefix is the whole chain from step 0.
Rewarded wide_model() {
  const std::size_t n = 20000;
  Rewarded m{make_birth_death(std::vector<double>(n - 1, 1.0),
                              std::vector<double>(n - 1, 1.5)),
             {}, {}};
  m.rewards.assign(n, 0.0);
  for (std::size_t i = 0; i < n; i += 7) m.rewards[i] = 1.0;
  m.initial.assign(n, 1.0 / static_cast<double>(n));
  return m;
}

// Breadth-first numbered queue: forward passes start at state 0 and step
// a live prefix of the chain (markov/dtmc.hpp).
const ModelFile& bfs_queue() {
  static const ModelFile queue = generate_model(
      "queue", {{"capacity", "5999"},
                {"servers", "2"},
                {"arrival", "2"},
                {"service", "5"},
                {"fail", "0.01"},
                {"repair", "1"}});
  return queue;
}

// ---------------------------------------------------------------------------
// Test-local single-request passes, written the way SR and RSD stepped
// before requests shared a pass. solve_grid is solve_shared with one
// request, so comparing the two alone cannot catch a change both make;
// these pin every reader to the pass it would have read alone.

SolveReport reference_sr(const Rewarded& m, const SolveRequest& request,
                         const SrOptions& options) {
  const RandomizedDtmc dtmc(m.chain);
  const std::vector<index_t> reward_idx = nonzero_reward_states(m.rewards);
  const double r_max = max_reward(m.rewards);
  const double eps =
      request.epsilon > 0.0 ? request.epsilon : options.epsilon;
  GridSweep sweep(
      dtmc.lambda(), request.times, request.measure,
      [&](const PoissonDistribution& poisson) {
        return sr_truncation_point(poisson, request.measure, eps / r_max);
      },
      options.step_cap);
  std::vector<double> pi = m.initial;
  std::vector<double> next(pi.size(), 0.0);
  for (std::int64_t n = 0;; ++n) {
    sweep.accumulate(n, sparse_reward_dot(reward_idx, m.rewards, pi));
    if (n == sweep.pass_steps()) break;
    dtmc.step(pi, next);
    pi.swap(next);
  }
  SolveReport report;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    TransientValue p;
    p.value = sweep.value(i);
    p.stats.dtmc_steps = sweep.n_max(i);
    p.stats.capped = sweep.point_capped(i);
    report.points.push_back(p);
  }
  report.total.dtmc_steps = sweep.pass_steps();
  report.total.capped = sweep.any_capped();
  return report;
}

SolveReport reference_rsd(const Rewarded& m, const SolveRequest& request,
                          const RsdOptions& options) {
  const RandomizedDtmc dtmc(m.chain);
  const CsrMatrix p = dtmc.transition_transposed().transposed();
  const double r_max = max_reward(m.rewards);
  const double eps =
      request.epsilon > 0.0 ? request.epsilon : options.epsilon;
  const double tol =
      options.detection_tol > 0.0 ? options.detection_tol : eps / 2.0;
  GridSweep sweep(
      dtmc.lambda(), request.times, request.measure,
      [&](const PoissonDistribution& poisson) {
        return poisson.right_truncation_point(eps / (2.0 * r_max));
      },
      options.step_cap);
  SolveReport report;
  report.points.resize(sweep.size());
  std::vector<double> w = m.rewards;
  std::vector<double> next(w.size(), 0.0);
  std::int64_t n = 0;
  for (;; ++n) {
    sweep.accumulate(n, dot(m.initial, w));
    if (n == sweep.pass_steps()) break;
    const auto [mn, mx] = std::minmax_element(w.begin(), w.end());
    if (*mx - *mn <= tol) {
      sweep.fold_steady_state(n, 0.5 * (*mx + *mn), [&](std::size_t i) {
        report.points[i].stats.detection_step = n;
      });
      report.total.detection_step = n;
      break;
    }
    p.mul_vec(w, next);
    w.swap(next);
  }
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    TransientValue& pt = report.points[i];
    pt.value = sweep.value(i);
    pt.stats.dtmc_steps = std::min(n, sweep.n_max(i));
    pt.stats.capped = sweep.point_capped(i);
  }
  report.total.dtmc_steps = n;
  report.total.capped = sweep.any_capped();
  return report;
}

/// Value bits, steps, detection and cap flags against a reference pass.
void expect_matches_reference(const SolveReport& got, const SolveReport& want,
                              const std::string& label) {
  ASSERT_EQ(got.points.size(), want.points.size()) << label;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    const std::string at = label + " point " + std::to_string(i);
    EXPECT_TRUE(same_bits(got.points[i].value, want.points[i].value))
        << at << " got " << got.points[i].value << " want "
        << want.points[i].value;
    EXPECT_EQ(got.points[i].stats.dtmc_steps, want.points[i].stats.dtmc_steps)
        << at;
    EXPECT_EQ(got.points[i].stats.detection_step,
              want.points[i].stats.detection_step)
        << at;
    EXPECT_EQ(got.points[i].stats.capped, want.points[i].stats.capped) << at;
  }
  EXPECT_EQ(got.total.dtmc_steps, want.total.dtmc_steps) << label;
  EXPECT_EQ(got.total.detection_step, want.total.detection_step) << label;
  EXPECT_EQ(got.total.capped, want.total.capped) << label;
}

// ---------------------------------------------------------------------------
// SR

TEST(SharedPassSr, EveryReaderMatchesAReferencePass) {
  const Rewarded m = random_model(7);
  for (const std::int64_t cap : {std::int64_t{-1}, std::int64_t{40}}) {
    SrOptions options;
    options.epsilon = 1e-8;
    options.step_cap = cap;
    const StandardRandomization sr(m.chain, m.rewards, m.initial, options);
    const std::vector<SolveRequest> requests = mixed_requests();
    SolveWorkspace workspace;
    const std::vector<SharedResult> got = shared(sr, requests, workspace);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const SolveReport want = reference_sr(m, requests[i], options);
      const std::string label =
          "cap " + std::to_string(cap) + " request " + std::to_string(i);
      EXPECT_EQ(got[i].error, nullptr) << label;
      expect_matches_reference(got[i].report, want, label + " shared");
      expect_matches_reference(sr.solve_grid(requests[i]), want,
                               label + " solo");
    }
  }
}

TEST(SharedPassSr, MixedRequestsMatchSoloSolves) {
  const Rewarded m = random_model(7);
  SrOptions options;
  options.epsilon = 1e-8;
  const StandardRandomization sr(m.chain, m.rewards, m.initial, options);
  const std::vector<SolveRequest> requests = mixed_requests();
  for (const SolveRequest& a : requests) {
    for (const SolveRequest& b : requests) EXPECT_TRUE(sr.shares_pass(a, b));
  }
  expect_shared_equals_solo(sr, requests, "sr");
}

TEST(SharedPassSr, StepCapFlagsEveryReaderAsItsSoloSolve) {
  const Rewarded m = random_model(7);
  SrOptions options;
  options.step_cap = 40;
  const StandardRandomization sr(m.chain, m.rewards, m.initial, options);
  const std::vector<SolveRequest> requests = mixed_requests();
  // Sanity: the cap fires on some requests and not on others.
  EXPECT_TRUE(sr.solve_grid(requests[0]).total.capped);
  EXPECT_FALSE(sr.solve_grid(SolveRequest::trr({0.1})).total.capped);
  std::vector<SolveRequest> with_short = requests;
  with_short.push_back(SolveRequest::trr({0.1}));
  expect_shared_equals_solo(sr, with_short, "sr capped");
}

TEST(SharedPassSr, AllZeroRewardsReadZero) {
  const Rewarded m = random_model(3);
  const StandardRandomization sr(m.chain, std::vector<double>(30, 0.0),
                                 m.initial);
  expect_shared_equals_solo(sr, mixed_requests(), "sr zero rewards");
}

TEST(SharedPassSr, LivePrefixQueueSerialAndPooled) {
  const ModelFile& q = bfs_queue();
  SrOptions options;
  options.epsilon = 1e-10;
  const StandardRandomization sr(q.chain, q.rewards, q.initial, options);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({0.5, 1.5, 4.0}),
      SolveRequest::mrr({0.5, 1.5, 4.0}),
      SolveRequest::trr({4.0, 0.25}, 1e-6),
      SolveRequest::mrr({2.0}, 1e-12),
  };
  ThreadPool pool(4);
  expect_shared_equals_solo(sr, requests, "sr queue");
  expect_shared_equals_solo(sr, requests, "sr queue pooled", &pool);
}

TEST(SharedPassSr, PooledProductsMatchSerial) {
  const Rewarded m = wide_model();
  const StandardRandomization sr(m.chain, m.rewards, m.initial);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({0.5, 3.0}), SolveRequest::mrr({1.0}, 1e-6)};
  ThreadPool pool(4);
  auto& loops = metrics::counter("rrl_pool_loops_total");
  const auto before = loops.value();
  expect_shared_equals_solo(sr, requests, "sr pooled", &pool);
  EXPECT_GT(loops.value(), before) << "pooled products did not engage";
  expect_shared_equals_solo(sr, requests, "sr serial");
}

TEST(SharedPassSr, BadRequestFailsAlone) {
  const Rewarded m = random_model(7);
  const StandardRandomization sr(m.chain, m.rewards, m.initial);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 10.0}),
      SolveRequest::mrr({0.0}),  // MRR at t = 0: contract violation
      SolveRequest::trr({}),     // empty grid: contract violation
      SolveRequest::mrr({10.0}, 1e-6),
  };
  SolveWorkspace workspace;
  const std::vector<SharedResult> got = shared(sr, requests, workspace);
  for (const std::size_t bad : {1u, 2u}) {
    ASSERT_NE(got[bad].error, nullptr) << bad;
    EXPECT_THROW(std::rethrow_exception(got[bad].error), contract_error);
  }
  for (const std::size_t good : {0u, 3u}) {
    EXPECT_EQ(got[good].error, nullptr) << good;
    expect_same(got[good].report, sr.solve_grid(requests[good]),
                "survivor " + std::to_string(good));
  }
  // solve_grid is solve_shared with one request: the same exception type.
  EXPECT_THROW((void)sr.solve_grid(requests[1]), contract_error);
}

// ---------------------------------------------------------------------------
// RSD

TEST(SharedPassRsd, MixedRequestsMatchSoloIncludingDetection) {
  const auto two = make_two_state(1e-3, 1.0);
  const RandomizationSteadyStateDetection rsd(two.chain, {0.0, 1.0},
                                              {1.0, 0.0});
  // Long horizons so detection fires; the eps differ, so each reader
  // detects at its own eps/2 and folds at its own step.
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 1e3, 1e5}),
      SolveRequest::trr({1e5, 1.0}, 1e-6),
      SolveRequest::mrr({10.0, 1e4}, 1e-9),
      SolveRequest::trr({0.1}),
  };
  const SolveReport first = rsd.solve_grid(requests[0]);
  const SolveReport second = rsd.solve_grid(requests[1]);
  ASSERT_GT(first.total.detection_step, 0);
  ASSERT_GT(second.total.detection_step, 0);
  EXPECT_NE(first.total.detection_step, second.total.detection_step);
  for (const SolveRequest& a : requests) {
    for (const SolveRequest& b : requests) EXPECT_TRUE(rsd.shares_pass(a, b));
  }
  expect_shared_equals_solo(rsd, requests, "rsd");
  expect_shared_equals_solo(rsd, mixed_requests(), "rsd mixed");
}

TEST(SharedPassRsd, DetectionTolSetServesEveryReader) {
  const auto two = make_two_state(1e-3, 1.0);
  RsdOptions options;
  options.detection_tol = 1e-7;
  const RandomizationSteadyStateDetection rsd(two.chain, {0.0, 1.0},
                                              {1.0, 0.0}, options);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 1e3, 1e5}),
      SolveRequest::mrr({1e4}, 1e-6),
      SolveRequest::trr({50.0, 5e4}, 1e-10),
  };
  ASSERT_GT(rsd.solve_grid(requests[0]).total.detection_step, 0);
  expect_shared_equals_solo(rsd, requests, "rsd detection_tol");
}

TEST(SharedPassRsd, StepCapFlagsEveryReaderAsItsSoloSolve) {
  const Rewarded m = random_model(11);
  RsdOptions options;
  options.step_cap = 25;
  const RandomizationSteadyStateDetection rsd(m.chain, m.rewards, m.initial,
                                              options);
  std::vector<SolveRequest> requests = mixed_requests();
  requests.push_back(SolveRequest::trr({0.05}));
  EXPECT_TRUE(rsd.solve_grid(requests[0]).total.capped);
  expect_shared_equals_solo(rsd, requests, "rsd capped");
}

TEST(SharedPassRsd, AllZeroRewardsReadZero) {
  const Rewarded m = random_model(3);
  const RandomizationSteadyStateDetection rsd(
      m.chain, std::vector<double>(30, 0.0), m.initial);
  expect_shared_equals_solo(rsd, mixed_requests(), "rsd zero rewards");
}

TEST(SharedPassRsd, PooledProductsMatchSerial) {
  const Rewarded m = wide_model();
  const RandomizationSteadyStateDetection rsd(m.chain, m.rewards, m.initial);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({0.5, 3.0}), SolveRequest::mrr({1.0}, 1e-6)};
  ThreadPool pool(4);
  auto& loops = metrics::counter("rrl_pool_loops_total");
  const auto before = loops.value();
  expect_shared_equals_solo(rsd, requests, "rsd pooled", &pool);
  EXPECT_GT(loops.value(), before) << "pooled products did not engage";
  expect_shared_equals_solo(rsd, requests, "rsd serial");
}

TEST(SharedPassRsd, BadRequestFailsAlone) {
  const auto two = make_two_state(1e-3, 1.0);
  const RandomizationSteadyStateDetection rsd(two.chain, {0.0, 1.0},
                                              {1.0, 0.0});
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({-1.0}),  // negative time: contract violation
      SolveRequest::trr({1.0, 1e5}),
  };
  SolveWorkspace workspace;
  const std::vector<SharedResult> got = shared(rsd, requests, workspace);
  ASSERT_NE(got[0].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(got[0].error), contract_error);
  EXPECT_EQ(got[1].error, nullptr);
  expect_same(got[1].report, rsd.solve_grid(requests[1]), "survivor");
}

TEST(SharedPassRsd, EveryReaderMatchesAReferencePass) {
  const auto two = make_two_state(1e-3, 1.0);
  const Rewarded detecting{two.chain, {0.0, 1.0}, {1.0, 0.0}};
  const std::vector<SolveRequest> long_horizons = {
      SolveRequest::trr({1.0, 1e3, 1e5}),
      SolveRequest::trr({1e5, 1.0}, 1e-6),
      SolveRequest::mrr({10.0, 1e4}, 1e-9),
      SolveRequest::trr({0.1}),
  };
  RsdOptions with_tol;
  with_tol.detection_tol = 1e-7;
  RsdOptions capped;
  capped.step_cap = 25;
  const Rewarded random = random_model(11);
  const struct {
    const Rewarded* model;
    RsdOptions options;
    std::vector<SolveRequest> requests;
  } cases[] = {
      {&detecting, RsdOptions{}, long_horizons},
      {&detecting, with_tol, long_horizons},
      {&random, RsdOptions{}, mixed_requests()},
      {&random, capped, mixed_requests()},
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const RandomizationSteadyStateDetection rsd(
        cases[c].model->chain, cases[c].model->rewards,
        cases[c].model->initial, cases[c].options);
    SolveWorkspace workspace;
    const std::vector<SharedResult> got =
        shared(rsd, cases[c].requests, workspace);
    for (std::size_t i = 0; i < cases[c].requests.size(); ++i) {
      const SolveReport want = reference_rsd(
          *cases[c].model, cases[c].requests[i], cases[c].options);
      const std::string label =
          "case " + std::to_string(c) + " request " + std::to_string(i);
      EXPECT_EQ(got[i].error, nullptr) << label;
      expect_matches_reference(got[i].report, want, label + " shared");
      expect_matches_reference(rsd.solve_grid(cases[c].requests[i]), want,
                               label + " solo");
    }
  }
}

// ---------------------------------------------------------------------------
// Krylov

TEST(SharedPassKrylov, TrrMrrPairMatchesSoloSolvesInOnePass) {
  const Rewarded m = random_model(19);
  KrylovOptions options;
  options.epsilon = 1e-9;
  options.max_dim = 8;  // < 30 states: no breakdown, several substeps
  const KrylovSolver krylov(m.chain, m.rewards, m.initial, options);
  const std::vector<double> grid = {8.0, 0.5, 2.0};
  const std::vector<SolveRequest> pair = {SolveRequest::trr(grid),
                                          SolveRequest::mrr(grid)};
  EXPECT_TRUE(krylov.shares_pass(pair[0], pair[1]));
  expect_shared_equals_solo(krylov, pair, "krylov pair");

  // One Arnoldi pass: the pair streams exactly the entries one solo solve
  // does.
  auto& nnz = metrics::counter("rrl_spmv_nnz_total");
  const auto solo_before = nnz.value();
  (void)krylov.solve_grid(pair[1]);
  const auto solo_nnz = nnz.value() - solo_before;
  SolveWorkspace workspace;
  const auto pair_before = nnz.value();
  (void)shared(krylov, pair, workspace);
  EXPECT_EQ(nnz.value() - pair_before, solo_nnz);
}

TEST(SharedPassKrylov, StepCapMatchesSoloSolves) {
  const Rewarded m = random_model(19);
  KrylovOptions options;
  options.max_dim = 8;
  options.step_cap = 30;
  const KrylovSolver krylov(m.chain, m.rewards, m.initial, options);
  const std::vector<double> grid = {0.1, 5.0, 50.0};
  const std::vector<SolveRequest> pair = {SolveRequest::mrr(grid),
                                          SolveRequest::trr(grid)};
  ASSERT_TRUE(krylov.solve_grid(pair[0]).total.capped);
  expect_shared_equals_solo(krylov, pair, "krylov capped");
}

TEST(SharedPassKrylov, BreakdownChainMatchesSoloSolves) {
  // 5 states <= max_dim: the Arnoldi basis spans the whole space and
  // breaks down, so every substep jumps straight to its target.
  const Ctmc chain = make_random_ctmc({.num_states = 5, .seed = 2});
  const KrylovSolver krylov(chain, {0.0, 1.0, 0.5, 0.0, 2.0},
                            {1.0, 0.0, 0.0, 0.0, 0.0});
  const std::vector<double> grid = {0.3, 3.0, 30.0};
  expect_shared_equals_solo(
      krylov, {SolveRequest::trr(grid), SolveRequest::mrr(grid)},
      "krylov breakdown");
}

TEST(SharedPassKrylov, AllZeroRewardsReadZero) {
  const Rewarded m = random_model(3);
  const KrylovSolver krylov(m.chain, std::vector<double>(30, 0.0),
                            m.initial);
  const std::vector<double> grid = {1.0, 4.0};
  expect_shared_equals_solo(
      krylov, {SolveRequest::trr(grid), SolveRequest::mrr(grid)},
      "krylov zero rewards");
}

TEST(SharedPassKrylov, SharesOnlyForOneEpsAndOneGrid) {
  const Rewarded m = random_model(19);
  KrylovOptions options;
  options.epsilon = 1e-8;
  options.max_dim = 8;
  const KrylovSolver krylov(m.chain, m.rewards, m.initial, options);
  const std::vector<double> grid = {0.5, 4.0};
  const SolveRequest trr = SolveRequest::trr(grid);
  // The default eps resolves to the constructed one.
  EXPECT_TRUE(krylov.shares_pass(trr, SolveRequest::mrr(grid, 1e-8)));
  EXPECT_FALSE(krylov.shares_pass(trr, SolveRequest::mrr(grid, 1e-6)));
  EXPECT_FALSE(krylov.shares_pass(trr, SolveRequest::mrr({0.5, 5.0})));
  EXPECT_FALSE(krylov.shares_pass(trr, SolveRequest::mrr({4.0, 0.5})));

  // Any mix still answers every request as its solo solve: one pass per
  // group of requests that share it, a bad request failing alone.
  const std::vector<SolveRequest> requests = {
      trr,
      SolveRequest::trr(grid, 1e-6),
      SolveRequest::mrr(grid),
      SolveRequest::mrr({4.0, 0.5}),
      SolveRequest::mrr(grid, 1e-6),
  };
  expect_shared_equals_solo(krylov, requests, "krylov mix");
  // A NaN time shares a pass with nothing, not even its own request; it
  // still gets its answer: an error.
  std::vector<SolveRequest> with_bad = requests;
  with_bad.insert(with_bad.begin() + 1, SolveRequest::mrr({0.0, 4.0}));
  with_bad.insert(with_bad.begin() + 3,
                  SolveRequest::trr({std::nan(""), 4.0}));
  SolveWorkspace workspace;
  const std::vector<SharedResult> got = shared(krylov, with_bad, workspace);
  for (const std::size_t bad : {1u, 3u}) {
    ASSERT_NE(got[bad].error, nullptr) << bad;
    EXPECT_THROW(std::rethrow_exception(got[bad].error), contract_error);
  }
  for (std::size_t i = 0; i < with_bad.size(); ++i) {
    if (i == 1 || i == 3) continue;
    EXPECT_EQ(got[i].error, nullptr) << i;
    expect_same(got[i].report, krylov.solve_grid(with_bad[i]),
                "with bad " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// RR

// An RR answer is an SR pass over the group's V-model at eps/2, read
// through the schema's step accounting: pins every reader to that pass
// (solve_grid is solve_shared with one request, so comparing the two
// alone cannot catch a change both make).
SolveReport reference_rr(const RegenerativeRandomization& rr,
                         const SolveRequest& request, double eps,
                         std::int64_t vmodel_step_cap) {
  const auto compiled = rr.compiled_for(
      *std::max_element(request.times.begin(), request.times.end()), eps);
  const VModel& v = compiled->vmodel->model;
  SrOptions options;
  options.epsilon = eps / 2.0;
  options.step_cap = vmodel_step_cap;
  SolveRequest inner = request;
  inner.epsilon = eps / 2.0;
  SolveReport report =
      reference_sr({v.chain, v.rewards, v.initial}, inner, options);
  const RegenerativeSchema& sch = compiled->schema;
  const auto to_rr = [&](SolverStats& stats) {
    stats.vmodel_steps = stats.dtmc_steps;
    stats.dtmc_steps = sch.dtmc_steps();
    stats.lambda = sch.lambda;
    stats.capped = sch.capped || stats.capped;
  };
  for (TransientValue& p : report.points) to_rr(p.stats);
  to_rr(report.total);
  return report;
}

/// Requests of three schema keys: (1e-8, 50) as mixed measures over
/// unsorted grids with t = 0 and an explicit eps equal to the constructed
/// one, (1e-6, 50) and (1e-8, 7).
std::vector<SolveRequest> rr_requests() {
  return {
      SolveRequest::trr({0.5, 5.0, 50.0}),
      SolveRequest::mrr({50.0, 0.5, 5.0}),
      SolveRequest::trr({0.0, 50.0, 2.0}, 1e-8),
      SolveRequest::mrr({50.0}, 1e-6),
      SolveRequest::trr({7.0, 0.0}),
      SolveRequest::mrr({7.0, 1.0}, 1e-8),
      SolveRequest::trr({50.0, 0.0}, 1e-6),
  };
}

TEST(SharedPassRr, MixedRequestsMatchSoloSolvesAndAReferencePass) {
  const Rewarded m = random_model(11);
  for (const std::int64_t cap : {std::int64_t{-1}, std::int64_t{40}}) {
    RrOptions options;
    options.epsilon = 1e-8;
    options.vmodel_step_cap = cap;
    const RegenerativeRandomization rr(m.chain, m.rewards, m.initial, 0,
                                       options);
    const std::vector<SolveRequest> requests = rr_requests();
    const std::string label = "rr cap=" + std::to_string(cap);
    expect_shared_equals_solo(rr, requests, label);
    SolveWorkspace workspace;
    const std::vector<SharedResult> got = shared(rr, requests, workspace);
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const double eps =
          requests[k].epsilon > 0.0 ? requests[k].epsilon : 1e-8;
      const SolveReport want = reference_rr(rr, requests[k], eps, cap);
      expect_matches_reference(got[k].report, want,
                               label + " request " + std::to_string(k));
      EXPECT_EQ(got[k].report.total.vmodel_steps, want.total.vmodel_steps);
      for (std::size_t i = 0; i < want.points.size(); ++i) {
        EXPECT_EQ(got[k].report.points[i].stats.vmodel_steps,
                  want.points[i].stats.vmodel_steps);
      }
    }
    if (cap >= 0) {
      EXPECT_TRUE(got[0].report.total.capped) << "cap did not fire";
    }
  }
}

TEST(SharedPassRr, AllZeroRewardsReadZero) {
  const Rewarded m = random_model(11);
  const RegenerativeRandomization rr(m.chain, std::vector<double>(30, 0.0),
                                     m.initial, 0);
  expect_shared_equals_solo(rr, rr_requests(), "rr zero rewards");
  SolveWorkspace workspace;
  for (const SharedResult& r : shared(rr, rr_requests(), workspace)) {
    for (const double v : r.report.values()) EXPECT_TRUE(same_bits(v, 0.0));
  }
}

TEST(SharedPassRr, SharesOnlyForOneSchemaKey) {
  const Rewarded m = random_model(11);
  RrOptions options;
  options.epsilon = 1e-8;
  const RegenerativeRandomization rr(m.chain, m.rewards, m.initial, 0,
                                     options);
  const SolveRequest trr = SolveRequest::trr({1.0, 10.0});
  // Any measure and grid below the same largest time; the default eps
  // resolves to the constructed one.
  EXPECT_TRUE(rr.shares_pass(trr, SolveRequest::mrr({10.0, 0.5}, 1e-8)));
  EXPECT_TRUE(rr.shares_pass(trr, SolveRequest::trr({0.0, 10.0, 3.0})));
  EXPECT_FALSE(rr.shares_pass(trr, SolveRequest::trr({1.0, 10.0}, 1e-6)));
  EXPECT_FALSE(rr.shares_pass(trr, SolveRequest::trr({1.0, 20.0})));
  // An empty grid shares with nothing, itself included.
  EXPECT_FALSE(rr.shares_pass(trr, SolveRequest::trr({})));
  EXPECT_FALSE(rr.shares_pass(SolveRequest::mrr({}), trr));
  EXPECT_FALSE(rr.shares_pass(SolveRequest::trr({}), SolveRequest::trr({})));
}

TEST(SharedPassRr, BadRequestFailsAlone) {
  const Rewarded m = random_model(11);
  const RegenerativeRandomization rr(m.chain, m.rewards, m.initial, 0);
  // The bad requests' largest times put them in the good ones' group
  // wherever they have one.
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 10.0}),
      SolveRequest::mrr({0.0, 10.0}),  // MRR at t = 0
      SolveRequest::trr({}),           // empty grid
      SolveRequest::mrr({10.0, std::nan("")}),
      SolveRequest::trr({std::nan(""), 10.0}),
      SolveRequest::mrr({3.0, 10.0}),
  };
  SolveWorkspace workspace;
  const std::vector<SharedResult> got = shared(rr, requests, workspace);
  for (const std::size_t bad : {1u, 2u, 3u, 4u}) {
    ASSERT_NE(got[bad].error, nullptr) << bad;
    EXPECT_THROW(std::rethrow_exception(got[bad].error), contract_error);
  }
  for (const std::size_t good : {0u, 5u}) {
    EXPECT_EQ(got[good].error, nullptr) << good;
    expect_same(got[good].report, rr.solve_grid(requests[good]),
                "survivor " + std::to_string(good));
  }
  EXPECT_THROW((void)rr.solve_grid(requests[1]), contract_error);
}

TEST(SharedPassRr, CompileFailureAndSchemaCapStayInTheirGroup) {
  const Rewarded m = random_model(11);
  RrOptions options;
  options.epsilon = 1e-8;
  options.schema_step_cap = 200;  // K(1.0) = 140, K(60) = 1891
  const RegenerativeRandomization rr(m.chain, m.rewards, m.initial, 0,
                                     options);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({0.1, 1.0}),   // short: within the schema cap
      SolveRequest::trr({1.0, inf}),   // no schema for t = inf
      SolveRequest::mrr({60.0, 3.0}),  // long: the schema cap fires
      SolveRequest::mrr({1.0}),
      SolveRequest::trr({inf}),
      SolveRequest::trr({60.0}),
  };
  ASSERT_FALSE(rr.solve_grid(requests[0]).total.capped);
  ASSERT_TRUE(rr.solve_grid(requests[2]).total.capped);

  SolveWorkspace workspace;
  const std::vector<SharedResult> got = shared(rr, requests, workspace);
  for (const std::size_t bad : {1u, 4u}) {
    ASSERT_NE(got[bad].error, nullptr) << bad;
    EXPECT_THROW(std::rethrow_exception(got[bad].error), contract_error);
  }
  for (const std::size_t k : {0u, 2u, 3u, 5u}) {
    EXPECT_EQ(got[k].error, nullptr) << k;
    const SolveReport solo = rr.solve_grid(requests[k]);
    expect_same(got[k].report, solo, "request " + std::to_string(k));
    // The cap flags exactly the long group.
    EXPECT_EQ(got[k].report.total.capped, k == 2 || k == 5) << k;
    for (const TransientValue& p : got[k].report.points) {
      EXPECT_EQ(p.stats.capped, k == 2 || k == 5) << k;
    }
  }
}

// ---------------------------------------------------------------------------
// RRL

/// Mixed measures and eps over unsorted grids, t = 0 among other times and
/// alone (no schema), and a grid of one point.
std::vector<SolveRequest> rrl_requests() {
  return {
      SolveRequest::trr({0.5, 5.0, 50.0}),
      SolveRequest::mrr({50.0, 0.5, 5.0}, 1e-10),
      SolveRequest::trr({0.0, 50.0, 2.0}, 1e-6),
      SolveRequest::mrr({7.0}, 1e-8),
      SolveRequest::trr({0.0}),
      SolveRequest::trr({20.0, 0.0}, 1e-10),
  };
}

RrlOptions rrl_options() {
  RrlOptions options;
  options.epsilon = 1e-8;
  return options;
}

TEST(SharedPassRrl, MixedRequestsMatchSoloSolves) {
  const Rewarded m = random_model(11);
  const RegenerativeRandomizationLaplace rrl(m.chain, m.rewards, m.initial, 0,
                                             rrl_options());
  expect_shared_equals_solo(rrl, rrl_requests(), "rrl");

  const RegenerativeRandomizationLaplace zero(
      m.chain, std::vector<double>(30, 0.0), m.initial, 0, rrl_options());
  expect_shared_equals_solo(zero, rrl_requests(), "rrl zero rewards");
  SolveWorkspace workspace;
  for (const SharedResult& r : shared(zero, rrl_requests(), workspace)) {
    for (const double v : r.report.values()) EXPECT_TRUE(same_bits(v, 0.0));
  }
}

TEST(SharedPassRrl, BadRequestFailsAlone) {
  const Rewarded m = random_model(11);
  const RegenerativeRandomizationLaplace rrl(m.chain, m.rewards, m.initial, 0,
                                             rrl_options());
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 10.0}),
      SolveRequest::mrr({0.0, 10.0}),  // MRR at t = 0
      SolveRequest::trr({}),           // empty grid
      SolveRequest::mrr({3.0, 10.0}, 1e-6),
  };
  SolveWorkspace workspace;
  const std::vector<SharedResult> got = shared(rrl, requests, workspace);
  for (const std::size_t bad : {1u, 2u}) {
    ASSERT_NE(got[bad].error, nullptr) << bad;
    EXPECT_THROW(std::rethrow_exception(got[bad].error), contract_error);
  }
  for (const std::size_t good : {0u, 3u}) {
    EXPECT_EQ(got[good].error, nullptr) << good;
    expect_same(got[good].report, rrl.solve_grid(requests[good]),
                "survivor " + std::to_string(good));
  }
  EXPECT_THROW((void)rrl.solve_grid(requests[1]), contract_error);
}

TEST(SharedPassRrl, LentPoolInversionsMatchSerial) {
  const Rewarded m = random_model(11);
  const RegenerativeRandomizationLaplace rrl(m.chain, m.rewards, m.initial, 0,
                                             rrl_options());
  const std::vector<SolveRequest> requests = rrl_requests();
  std::uint64_t grids = 0;  // requests whose inversions the pool carries
  for (const SolveRequest& r : requests) {
    if (rrl.lent_pool_use(r) != LentPoolUse::kNone) ++grids;
  }
  ASSERT_EQ(grids, 3u);
  ThreadPool pool(4);
  auto& loops = metrics::counter("rrl_pool_loops_total");
  const auto before = loops.value();
  expect_shared_equals_solo(rrl, requests, "rrl pooled", &pool);
  EXPECT_EQ(loops.value() - before, grids);  // one loop per such grid
}

// ---------------------------------------------------------------------------
// run_sweep: units of one shared pass

// (name, arg) of every buffered span named scenario.solve*.
std::map<std::string, std::vector<std::uint64_t>> solve_spans() {
  std::ostringstream out;
  (void)trace::write_chrome_trace(out);
  const std::string json = out.str();
  std::map<std::string, std::vector<std::uint64_t>> spans;
  const std::string key = "\"name\":\"";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos)) {
    pos += key.size();
    const std::string name = json.substr(pos, json.find('"', pos) - pos);
    const std::size_t arg = json.find("\"v\":", pos) + 4;
    if (name.rfind("scenario.solve", 0) == 0) {
      spans[name].push_back(std::stoull(json.substr(arg)));
    }
  }
  for (auto& entry : spans) std::sort(entry.second.begin(), entry.second.end());
  return spans;
}

TEST(SharedPassSweep, UnitsAreBitIdenticalToSoloScenarios) {
  const Rewarded a = random_model(5);
  const Rewarded b = [] {
    Rewarded m{make_mm1k(1.0, 2.0, 20).chain, std::vector<double>(21, 0.0),
               std::vector<double>(21, 0.0)};
    for (std::size_t i = 15; i < 21; ++i) m.rewards[i] = 1.0;
    m.initial[0] = 1.0;
    return m;
  }();

  // 2 models x (sr rsd krylov) x (trr mrr) x 3 eps = 36 scenarios over 6
  // shared solvers.
  BatchRequest batch;
  std::vector<std::shared_ptr<const TransientSolver>> solvers;
  for (const Rewarded* model : {&a, &b}) {
    for (const std::string name : {"sr", "rsd", "krylov"}) {
      SolverConfig config;
      config.epsilon = 1e-10;
      solvers.push_back(make_solver(name, model->chain, model->rewards,
                                    model->initial, config));
      for (const MeasureKind measure :
           {MeasureKind::kTrr, MeasureKind::kMrr}) {
        for (const double eps : {1e-6, 1e-8, 1e-10}) {
          SweepScenario scenario;
          scenario.solver = solvers.back();
          scenario.chain = &model->chain;
          scenario.request.measure = measure;
          scenario.request.times = {0.5, 3.0, 20.0};
          scenario.request.epsilon = eps;
          batch.scenarios.push_back(std::move(scenario));
        }
      }
    }
  }
  ASSERT_EQ(batch.scenarios.size(), 36u);

  batch.spmm = false;
  ThreadPool one(1);
  const SweepReport solo = run_sweep(batch, one);
  ASSERT_EQ(solo.failed(), 0u);

  for (const bool spmm : {true, false}) {
    for (const int jobs : {1, 4}) {
      batch.spmm = spmm;
      ThreadPool pool(jobs);
      trace::reset();
      trace::enable();
      const SweepReport run = run_sweep(batch, pool);
      trace::disable();
      const auto spans = solve_spans();
      trace::reset();
      const std::string label =
          std::string(spmm ? "shared" : "solo") + " jobs=" +
          std::to_string(jobs);
      ASSERT_EQ(run.failed(), 0u) << label;
      for (std::size_t s = 0; s < run.results.size(); ++s) {
        expect_same(run.results[s].report, solo.results[s].report,
                    label + " scenario " + std::to_string(s));
      }
      if (spmm) {
        // Per model: SR and RSD each one unit of 6 readers, Krylov one
        // TRR/MRR pair per eps.
        const std::vector<std::uint64_t> want = {2, 2, 2, 2, 2, 2,
                                                 6, 6, 6, 6};
        EXPECT_EQ(spans.count("scenario.solve"), 0u) << label;
        ASSERT_EQ(spans.count("scenario.solve_rand_batch"), 1u) << label;
        EXPECT_EQ(spans.at("scenario.solve_rand_batch"), want) << label;
      } else {
        EXPECT_EQ(spans.count("scenario.solve_rand_batch"), 0u) << label;
        ASSERT_EQ(spans.count("scenario.solve"), 1u) << label;
        EXPECT_EQ(spans.at("scenario.solve").size(), 36u) << label;
      }
    }
  }
}

TEST(SharedPassSweep, RrUnitsAreOnePerSchemaKeyAndBitIdentical) {
  const Rewarded a = random_model(5);
  const Rewarded b = [] {
    Rewarded m{make_mm1k(1.0, 2.0, 20).chain, std::vector<double>(21, 0.0),
               std::vector<double>(21, 0.0)};
    for (std::size_t i = 15; i < 21; ++i) m.rewards[i] = 1.0;
    m.initial[0] = 1.0;
    return m;
  }();

  // 2 models x rr x (trr mrr) x 2 eps x 2 horizons = 16 scenarios: 8
  // schema keys, each read by a TRR and an MRR request.
  BatchRequest batch;
  std::vector<std::shared_ptr<const TransientSolver>> solvers;
  for (const Rewarded* model : {&a, &b}) {
    SolverConfig config;
    config.epsilon = 1e-10;
    config.regenerative = 0;
    solvers.push_back(make_solver("rr", model->chain, model->rewards,
                                  model->initial, config));
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      for (const double eps : {1e-6, 1e-10}) {
        for (const double horizon : {4.0, 20.0}) {
          SweepScenario scenario;
          scenario.solver = solvers.back();
          scenario.chain = &model->chain;
          scenario.request.measure = measure;
          scenario.request.times = {0.5, horizon, 2.0};
          scenario.request.epsilon = eps;
          batch.scenarios.push_back(std::move(scenario));
        }
      }
    }
  }
  ASSERT_EQ(batch.scenarios.size(), 16u);

  std::vector<SolveReport> solo;
  for (const SweepScenario& scenario : batch.scenarios) {
    solo.push_back(scenario.solver->solve_grid(scenario.request));
  }

  for (const bool spmm : {true, false}) {
    for (const int jobs : {1, 4}) {
      batch.spmm = spmm;
      ThreadPool pool(jobs);
      trace::reset();
      trace::enable();
      const SweepReport run = run_sweep(batch, pool);
      trace::disable();
      const auto spans = solve_spans();
      trace::reset();
      const std::string label =
          std::string(spmm ? "shared" : "solo") + " jobs=" +
          std::to_string(jobs);
      ASSERT_EQ(run.failed(), 0u) << label;
      for (std::size_t s = 0; s < run.results.size(); ++s) {
        expect_same(run.results[s].report, solo[s],
                    label + " scenario " + std::to_string(s));
      }
      if (spmm) {
        EXPECT_EQ(spans.count("scenario.solve"), 0u) << label;
        ASSERT_EQ(spans.count("scenario.solve_rand_batch"), 1u) << label;
        EXPECT_EQ(spans.at("scenario.solve_rand_batch"),
                  std::vector<std::uint64_t>(8, 2))
            << label;
      } else {
        EXPECT_EQ(spans.count("scenario.solve_rand_batch"), 0u) << label;
        ASSERT_EQ(spans.count("scenario.solve"), 1u) << label;
        EXPECT_EQ(spans.at("scenario.solve").size(), 16u) << label;
      }
    }
  }
}

}  // namespace
}  // namespace rrl
