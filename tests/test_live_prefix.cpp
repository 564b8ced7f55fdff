// Live-prefix stepping (markov/dtmc.hpp): forward passes that start from a
// sparse vector step, sum and dot only the prefix of states their iterate
// can have reached. The contract is bit-identity with full-length
// stepping, so every comparison here is bitwise (memcmp, not ==: -0.0 ==
// 0.0 would hide a sign flip). The references are test-local full-length
// loops written the way the solvers stepped before the prefix existed, and
// for Krylov, values recorded from that full-length implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "rrl.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Definition of reach() by brute force: one past the last row of P^T that
// stores a column below `live`.
index_t brute_reach(const CsrMatrix& pt, index_t live) {
  index_t last = -1;
  for (index_t j = 0; j < pt.rows(); ++j) {
    const auto lo = pt.row_ptr()[static_cast<std::size_t>(j)];
    const auto hi = pt.row_ptr()[static_cast<std::size_t>(j) + 1];
    for (auto k = lo; k < hi; ++k) {
      if (pt.col_idx()[static_cast<std::size_t>(k)] < live) last = j;
    }
  }
  return last + 1;
}

void expect_reach_matches_definition(const RandomizedDtmc& dtmc) {
  const index_t n = dtmc.num_states();
  EXPECT_EQ(dtmc.reach(0), 0);
  index_t previous = 0;
  for (index_t live = 0; live <= n; ++live) {
    const index_t r = dtmc.reach(live);
    EXPECT_EQ(r, brute_reach(dtmc.transition_transposed(), live))
        << "live " << live;
    EXPECT_GE(r, previous) << "live " << live;
    EXPECT_LE(r, n);
    previous = r;
  }
}

// The generated breakdown queue the solver tests run on: 18000 states in
// breadth-first order from the empty queue, Lambda ~ 12, so passes to t <= 4
// stay within a few hundred states of the start.
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
// reach()

TEST(Reach, MatchesItsDefinitionOnRandomChains) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    const Ctmc chain = make_random_ctmc(
        {.num_states = 40, .num_absorbing = 2, .seed = seed});
    expect_reach_matches_definition(RandomizedDtmc(chain));
    expect_reach_matches_definition(RandomizedDtmc(chain, 1.5));
  }
}

TEST(Reach, EmptyRowsAndZeroSelfLoops) {
  // States 0 and 2 have the largest exit rate (zero self-loops) and
  // nothing enters them, so P^T rows 0 and 2 are empty: one step from
  // state 0 reaches state 1 only, and from {0, 1} it reaches state 3.
  const Ctmc chain = Ctmc::from_transitions(
      4, {{0, 1, 2.0}, {1, 3, 1.0}, {2, 1, 2.0}, {3, 1, 1.0}});
  const RandomizedDtmc dtmc(chain);
  ASSERT_EQ(dtmc.self_loop(0), 0.0);
  ASSERT_EQ(dtmc.self_loop(2), 0.0);
  const auto& pt = dtmc.transition_transposed();
  ASSERT_EQ(pt.row_ptr()[0], pt.row_ptr()[1]);  // row 0 empty
  ASSERT_EQ(pt.row_ptr()[2], pt.row_ptr()[3]);  // row 2 empty
  EXPECT_EQ(dtmc.reach(0), 0);
  EXPECT_EQ(dtmc.reach(1), 2);  // 0 -> 1 only
  EXPECT_EQ(dtmc.reach(2), 4);  // 1 -> 3
  EXPECT_EQ(dtmc.reach(4), 4);
  expect_reach_matches_definition(dtmc);

  // Zero self-loop at the end of the prefix: from {0, 1, 2} one step
  // lands in {0, 1} only, so reach() drops below live.
  const Ctmc leaving = Ctmc::from_transitions(
      3, {{0, 1, 1.0}, {1, 0, 2.0}, {2, 0, 2.0}});
  const RandomizedDtmc drop(leaving);
  EXPECT_EQ(drop.reach(3), 2);
  expect_reach_matches_definition(drop);
}

TEST(Reach, WrapAroundBandsReachTheEnd) {
  // Bidirectional ring: state 0 steps to n-1, so one step from live = 1
  // already reaches n.
  constexpr index_t n = 12;
  std::vector<Triplet> ring;
  for (index_t i = 0; i < n; ++i) {
    ring.push_back({i, (i + 1) % n, 1.0});
    ring.push_back({i, (i + n - 1) % n, 0.5});
  }
  const RandomizedDtmc dtmc(Ctmc::from_transitions(n, ring));
  EXPECT_EQ(dtmc.reach(1), n);
  expect_reach_matches_definition(dtmc);

  // One-way cycle (make_cycle): the wrap entry n-1 -> 0 sits in row 0, so
  // the band grows one state per step until the last one.
  const RandomizedDtmc cycle(make_cycle(static_cast<int>(n), 1.0));
  EXPECT_EQ(cycle.reach(1), 2);
  EXPECT_EQ(cycle.reach(n - 1), n);
  expect_reach_matches_definition(cycle);
}

TEST(Reach, SurvivesTheArtifactRoundTrip) {
  const RandomizedDtmc dtmc(bfs_queue().chain);
  const auto loops = dtmc.self_loops();
  const RandomizedDtmc imported = RandomizedDtmc::from_parts(
      dtmc.transition_transposed(),
      std::vector<double>(loops.begin(), loops.end()), dtmc.lambda());
  for (index_t live = 0; live <= dtmc.num_states(); live += 97) {
    EXPECT_EQ(imported.reach(live), dtmc.reach(live));
  }
  // Breadth-first numbering: a step moves at most a few states forward.
  EXPECT_LE(dtmc.reach(300), 310);
}

TEST(Reach, CountingAssemblyMatchesTripletAssembly) {
  // P^T assembled from triplets, as the constructor did before it counted.
  for (const std::uint64_t seed : {5u, 17u}) {
    const Ctmc chain = make_random_ctmc(
        {.num_states = 60, .num_absorbing = 3, .seed = seed});
    const RandomizedDtmc dtmc(chain, 1.25);
    std::vector<Triplet> entries;
    const CsrMatrix& rates = chain.rates();
    for (index_t i = 0; i < chain.num_states(); ++i) {
      const auto ui = static_cast<std::size_t>(i);
      for (auto k = rates.row_ptr()[ui]; k < rates.row_ptr()[ui + 1]; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        entries.push_back(
            {rates.col_idx()[uk], i, rates.values()[uk] / dtmc.lambda()});
      }
      const double stay = 1.0 - chain.exit_rates()[ui] / dtmc.lambda();
      if (stay != 0.0) entries.push_back({i, i, stay});
    }
    const CsrMatrix want = CsrMatrix::from_triplets(
        chain.num_states(), chain.num_states(), std::move(entries));
    const CsrMatrix& got = dtmc.transition_transposed();
    EXPECT_TRUE(std::equal(got.row_ptr().begin(), got.row_ptr().end(),
                           want.row_ptr().begin(), want.row_ptr().end()));
    EXPECT_TRUE(std::equal(got.col_idx().begin(), got.col_idx().end(),
                           want.col_idx().begin(), want.col_idx().end()));
    EXPECT_TRUE(same_bits(
        std::vector<double>(got.values().begin(), got.values().end()),
        std::vector<double>(want.values().begin(), want.values().end())));
  }
}

// ---------------------------------------------------------------------------
// Kernel property: the leading-rows product over max(live, reach(live))
// is the full product there, and the full product is +0.0 past it.

void check_leading_products(const RandomizedDtmc& dtmc, std::uint64_t seed) {
  const CsrMatrix& pt = dtmc.transition_transposed();
  const index_t n = pt.rows();
  const auto un = static_cast<std::size_t>(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_int_distribution<index_t> pick_live(0, n);
  ThreadPool pool(4);
  for (int trial = 0; trial < 24; ++trial) {
    const index_t live = trial == 0 ? 0 : trial == 1 ? n : pick_live(rng);
    // Random sparse x on [0, live), zero past it — signed zeros on odd
    // trials, which must not leak a sign into the rows past the bound.
    std::vector<double> x(un, (trial % 2) != 0 ? -0.0 : 0.0);
    for (index_t i = 0; i < live; ++i) {
      if ((rng() & 1U) != 0) x[static_cast<std::size_t>(i)] = value(rng);
    }
    const index_t bound = std::max(live, dtmc.reach(live));

    std::vector<double> full(un, 7.0);
    pt.mul_vec_with(scalar_kernels(), x, full);
    for (index_t i = bound; i < n; ++i) {
      ASSERT_TRUE(same_bits(full[static_cast<std::size_t>(i)], 0.0))
          << "row " << i << " live " << live;
    }

    std::vector<double> serial(un, 7.0);
    std::vector<double> pooled(un, 7.0);
    dtmc.step(x, serial, bound);
    dtmc.step(x, pooled, bound, pool);
    std::vector<double> want(full.begin(), full.begin() + bound);
    want.resize(un, 7.0);  // rows past the bound are left untouched
    EXPECT_TRUE(same_bits(serial, want)) << "live " << live;
    EXPECT_TRUE(same_bits(pooled, want)) << "live " << live;
  }
}

TEST(LeadingProduct, MatchesTheFullScalarProduct) {
  // The queue's P^T carries the blocked layout, so random prefix ends cut
  // SELL chunks into fringes; the small random chains stay plain CSR.
  const RandomizedDtmc queue(bfs_queue().chain);
  ASSERT_NE(queue.transition_transposed().sell(), nullptr);
  check_leading_products(queue, 1);
  for (const std::uint64_t seed : {2u, 8u}) {
    const RandomizedDtmc dtmc(
        make_random_ctmc({.num_states = 60, .seed = seed}));
    ASSERT_EQ(dtmc.transition_transposed().sell(), nullptr);
    check_leading_products(dtmc, seed);
  }
}

// ---------------------------------------------------------------------------
// The RR/RRL schema: test-local full-length excursion loop.

ExcursionSeries full_length_excursion(const RandomizedDtmc& dtmc,
                                      std::span<const double> rewards,
                                      std::span<const index_t> absorbing,
                                      index_t regenerative,
                                      std::vector<double> mu,
                                      const PoissonDistribution& poisson,
                                      double r_max, double eps_budget,
                                      index_t& widest) {
  const std::vector<index_t> reward_idx = nonzero_reward_states(rewards);
  ExcursionSeries series;
  series.va.resize(absorbing.size());
  std::vector<double> next(mu.size(), 0.0);
  double mass = sum(mu);
  for (std::int64_t k = 0;; ++k) {
    widest = std::max(widest, leading_support(mu));
    series.a.push_back(mass);
    series.c.push_back(sparse_reward_dot(reward_idx, rewards, mu));
    const double bound =
        r_max == 0.0 ? 0.0 : r_max * mass * poisson.expected_excess(k);
    if (bound <= eps_budget) {
      series.exact = (mass == 0.0);
      break;
    }
    dtmc.step(mu, next);
    mu.swap(next);
    series.qa.push_back(mu[static_cast<std::size_t>(regenerative)]);
    mu[static_cast<std::size_t>(regenerative)] = 0.0;
    for (std::size_t i = 0; i < absorbing.size(); ++i) {
      const auto uf = static_cast<std::size_t>(absorbing[i]);
      series.va[i].push_back(mu[uf]);
      mu[uf] = 0.0;
    }
    mass = sum(mu);
  }
  return series;
}

void expect_series_equal(const ExcursionSeries& got,
                         const ExcursionSeries& want,
                         const std::string& label) {
  EXPECT_EQ(got.truncation(), want.truncation()) << label;
  EXPECT_TRUE(same_bits(got.a, want.a)) << label << " a";
  EXPECT_TRUE(same_bits(got.c, want.c)) << label << " c";
  EXPECT_TRUE(same_bits(got.qa, want.qa)) << label << " qa";
  ASSERT_EQ(got.va.size(), want.va.size()) << label;
  for (std::size_t i = 0; i < got.va.size(); ++i) {
    EXPECT_TRUE(same_bits(got.va[i], want.va[i])) << label << " va " << i;
  }
  EXPECT_EQ(got.exact, want.exact) << label;
}

TEST(LivePrefixSchema, SeriesMatchFullLengthStepping) {
  const ModelFile& q = bfs_queue();
  const index_t n = q.chain.num_states();
  // One absorbing state a few transitions from the start, so the
  // absorption series va are non-trivial and masking is exercised.
  std::vector<Triplet> rates;
  const CsrMatrix& r = q.chain.rates();
  constexpr index_t kAbsorbing = 7;
  for (index_t i = 0; i < n; ++i) {
    if (i == kAbsorbing) continue;
    const auto ui = static_cast<std::size_t>(i);
    for (auto k = r.row_ptr()[ui]; k < r.row_ptr()[ui + 1]; ++k) {
      const auto uk = static_cast<std::size_t>(k);
      rates.push_back({i, r.col_idx()[uk], r.values()[uk]});
    }
  }
  const Ctmc absorbing_chain = Ctmc::from_transitions(n, std::move(rates));

  // A sparse start split between r = 0 and two neighbours: both the main
  // and the primed chain run.
  std::vector<double> initial(static_cast<std::size_t>(n), 0.0);
  initial[0] = 0.5;
  initial[1] = 0.25;
  initial[2] = 0.25;

  const auto metered_nnz = [] {
    return metrics::counter("rrl_spmv_nnz_total").value();
  };
  for (const Ctmc* chain : {&q.chain, &absorbing_chain}) {
    for (const double t : {0.5, 4.0}) {
      const RegenerativeOptions options{1e-10, 1.0, -1};
      const auto before = metered_nnz();
      const RegenerativeSchema got =
          compute_regenerative_schema(*chain, q.rewards, initial, 0, t,
                                      options);
      const auto stepped = metered_nnz() - before;

      const RandomizedDtmc dtmc(*chain);
      const PoissonDistribution poisson(dtmc.lambda() * t);
      const double eps_model = options.epsilon / 4.0;
      index_t widest = 0;
      std::vector<double> mu(static_cast<std::size_t>(n), 0.0);
      mu[0] = 1.0;
      const ExcursionSeries main = full_length_excursion(
          dtmc, q.rewards, got.absorbing, 0, mu, poisson, got.r_max,
          eps_model, widest);
      mu = initial;
      mu[0] = 0.0;
      const ExcursionSeries primed = full_length_excursion(
          dtmc, q.rewards, got.absorbing, 0, mu, poisson, got.r_max,
          eps_model, widest);

      const std::string label = (chain == &q.chain ? "queue" : "absorbing") +
                                std::string(" t=") + std::to_string(t);
      ASSERT_TRUE(got.has_primed) << label;
      expect_series_equal(got.main, main, label + " main");
      expect_series_equal(got.primed, primed, label + " primed");
      EXPECT_EQ(got.K(), main.truncation()) << label;
      EXPECT_EQ(got.L(), primed.truncation()) << label;
      if (chain == &absorbing_chain) {
        ASSERT_EQ(got.absorbing, std::vector<index_t>{kAbsorbing});
        EXPECT_GT(*std::max_element(got.main.va[0].begin(),
                                    got.main.va[0].end()),
                  0.0)
            << label;
      }
      // The premise: the passes stay within 5% of the chain, and the
      // schema's products touch correspondingly little of P^T.
      EXPECT_LT(widest, n / 20) << label;
      const auto full_nnz =
          static_cast<std::uint64_t>(dtmc.transition_transposed().nnz()) *
          static_cast<std::uint64_t>(got.dtmc_steps());
      EXPECT_LT(stepped * 10, full_nnz) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// SR: test-local full-length pass, against solo, pooled and batched solves.

SolveReport full_length_sr(const ModelFile& q, const SolveRequest& request,
                           double default_eps, index_t& widest) {
  const RandomizedDtmc dtmc(q.chain);
  const std::vector<index_t> reward_idx = nonzero_reward_states(q.rewards);
  const double r_max = max_reward(q.rewards);
  const double eps = request.epsilon > 0.0 ? request.epsilon : default_eps;
  GridSweep sweep(
      dtmc.lambda(), request.times, request.measure,
      [&](const PoissonDistribution& poisson) {
        return sr_truncation_point(poisson, request.measure, eps / r_max);
      },
      -1);
  std::vector<double> pi = q.initial;
  std::vector<double> next(pi.size(), 0.0);
  for (std::int64_t n = 0;; ++n) {
    widest = std::max(widest, leading_support(pi));
    sweep.accumulate(n, sparse_reward_dot(reward_idx, q.rewards, pi));
    if (n == sweep.pass_steps()) break;
    dtmc.step(pi, next);
    pi.swap(next);
  }
  SolveReport report;
  for (std::size_t i = 0; i < request.times.size(); ++i) {
    TransientValue p;
    p.value = sweep.value(i);
    p.stats.dtmc_steps = sweep.n_max(i);
    report.points.push_back(p);
  }
  report.total.dtmc_steps = sweep.pass_steps();
  return report;
}

void expect_values_equal(const SolveReport& got, const SolveReport& want,
                         const std::string& label) {
  ASSERT_EQ(got.points.size(), want.points.size()) << label;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    EXPECT_TRUE(same_bits(got.points[i].value, want.points[i].value))
        << label << " point " << i << " got " << got.points[i].value
        << " want " << want.points[i].value;
    EXPECT_EQ(got.points[i].stats.dtmc_steps, want.points[i].stats.dtmc_steps)
        << label << " point " << i;
  }
  EXPECT_EQ(got.total.dtmc_steps, want.total.dtmc_steps) << label;
}

TEST(LivePrefixSr, SoloPooledAndSharedMatchFullLengthStepping) {
  const ModelFile& q = bfs_queue();
  const index_t n = q.chain.num_states();
  SrOptions options;
  options.epsilon = 1e-10;
  const StandardRandomization sr(q.chain, q.rewards, q.initial, options);

  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({0.5, 1.5, 4.0}),
      SolveRequest::mrr({0.5, 1.5, 4.0}),
      SolveRequest::trr({4.0, 0.25}, 1e-6),
      SolveRequest::mrr({2.0}, 1e-12),
  };
  std::vector<SolveReport> want;
  index_t widest = 0;
  for (const SolveRequest& r : requests) {
    want.push_back(full_length_sr(q, r, options.epsilon, widest));
  }
  EXPECT_LT(widest, n / 20);

  ThreadPool pool(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string label = "request " + std::to_string(i);
    expect_values_equal(sr.solve_grid(requests[i]), want[i], label + " solo");

    // A reused workspace arrives with stale, non-zero buffers.
    SolveWorkspace stale;
    std::fill_n(stale.pi(static_cast<std::size_t>(n)).begin(), n, 0.75);
    std::fill_n(stale.next(static_cast<std::size_t>(n)).begin(), n, 0.75);
    stale.lent_pool = &pool;
    expect_values_equal(sr.solve_grid(requests[i], stale), want[i],
                        label + " pooled, stale workspace");
  }

  // One shared pass for every request.
  std::vector<const SolveRequest*> shared;
  for (const SolveRequest& r : requests) shared.push_back(&r);
  for (const bool with_pool : {false, true}) {
    SolveWorkspace ws;
    ws.lent_pool = with_pool ? &pool : nullptr;
    const std::vector<SharedResult> got = sr.solve_shared(shared, ws);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(got[i].error, nullptr);
      expect_values_equal(got[i].report, want[i],
                          "shared item " + std::to_string(i) +
                              (with_pool ? " pooled" : ""));
    }
  }
}

// ---------------------------------------------------------------------------
// Krylov: values recorded (%.17g) from the full-length implementation (the
// same solver with `live` pinned to n) of the fixed-lane Gram-Schmidt sweep.

TEST(LivePrefixKrylov, MatchesRecordedFullLengthValues) {
  const ModelFile& q = bfs_queue();
  KrylovOptions options;
  options.epsilon = 1e-10;
  const KrylovSolver krylov(q.chain, q.rewards, q.initial, options);
  const std::vector<double> grid{0.5, 1.5, 4.0};
  const std::int64_t matvecs[] = {62, 93, 155};
  const double trr[] = {1.8128063003655952, 1.995577209235244,
                        1.999851677236981};
  const double mrr[] = {1.2522151156622048, 1.7212621368199439,
                        1.8949086294829376};

  // Fresh and stale workspaces must agree with the record.
  const index_t n = q.chain.num_states();
  SolveWorkspace stale;
  std::fill_n(stale.pi(static_cast<std::size_t>(n)).begin(), n, -3.0);
  std::fill_n(stale.next(static_cast<std::size_t>(n)).begin(), n, -3.0);
  std::fill_n(stale.scratch(static_cast<std::size_t>(n)).begin(), n, -3.0);
  for (SolveWorkspace* ws : {static_cast<SolveWorkspace*>(nullptr), &stale}) {
    SolveWorkspace fresh;
    SolveWorkspace& use = ws != nullptr ? *ws : fresh;
    const SolveReport t = krylov.solve_grid(SolveRequest::trr(grid), use);
    const SolveReport m = krylov.solve_grid(SolveRequest::mrr(grid), use);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_TRUE(same_bits(t.points[i].value, trr[i]))
          << "trr " << i << " got " << t.points[i].value;
      EXPECT_TRUE(same_bits(m.points[i].value, mrr[i]))
          << "mrr " << i << " got " << m.points[i].value;
      EXPECT_EQ(t.points[i].stats.dtmc_steps, matvecs[i]);
      EXPECT_EQ(m.points[i].stats.dtmc_steps, matvecs[i]);
    }
  }
}

}  // namespace
}  // namespace rrl
