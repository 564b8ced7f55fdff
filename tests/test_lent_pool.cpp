// The lent pool: a solve's inner loops run on the ThreadPool its workspace
// lends (SolveWorkspace::lent_pool) — the randomization methods' pooled
// products and RRL's per-point inversions — and run_sweep's model-parallel
// route lends its pool by what each unit's lead solver says the pool would
// carry (TransientSolver::lent_pool_use), whatever name the solver goes by:
// a unit's hot loop (SR, RSD), or the inner loops of a lone unit (RRL,
// Krylov), whose serial rest would queue behind other units'.
//
// Every comparison is bitwise: values with memcmp (-0.0 == 0.0 would hide
// a sign flip) and every non-timing stat. Which route a sweep took is read
// off the process-wide pool counters: the unit-parallel route runs one
// loop of one index per unit, the model-parallel route none, and a pooled
// product or inversion grid one loop each.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"
#include "support/metrics.hpp"

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

void expect_same(const SweepReport& got, const SweepReport& want,
                 const std::string& label) {
  ASSERT_EQ(got.results.size(), want.results.size()) << label;
  for (std::size_t s = 0; s < got.results.size(); ++s) {
    const std::string at = label + " scenario " + std::to_string(s);
    ASSERT_TRUE(got.results[s].ok()) << at << ": " << got.results[s].error;
    ASSERT_TRUE(want.results[s].ok()) << at << ": " << want.results[s].error;
    expect_same(got.results[s].report, want.results[s].report, at);
  }
}

/// Pool loops and indices run, process-wide, since construction.
struct PoolTally {
  std::uint64_t loops0 = loops_now();
  std::uint64_t indices0 = indices_now();

  static std::uint64_t loops_now() {
    return metrics::counter("rrl_pool_loops_total").value();
  }
  static std::uint64_t indices_now() {
    return metrics::counter("rrl_pool_indices_total").value();
  }
  [[nodiscard]] std::uint64_t loops() const { return loops_now() - loops0; }
  [[nodiscard]] std::uint64_t indices() const {
    return indices_now() - indices0;
  }
};

// RAID-5 G=40: 8161 states, whose randomized DTMC stores more than
// SolveWorkspace::kMinPooledNnz entries.
const Raid5Model& raid40() {
  static const Raid5Model model = [] {
    Raid5Params params;
    params.groups = 40;
    return build_raid5_availability(params);
  }();
  return model;
}

/// A fresh `solver` on RAID-5 G=40 answering TRR over `times`. `spread`
/// starts it from a uniform initial distribution: a forward pass's live
/// prefix is then the whole chain, so every product is large enough to
/// run on a lent pool.
SweepScenario raid40_scenario(const std::string& solver,
                              std::vector<double> times, double eps = 1e-10,
                              bool spread = false) {
  const Raid5Model& raid = raid40();
  std::vector<double> initial = raid.initial_distribution();
  if (spread) {
    initial.assign(initial.size(), 1.0 / static_cast<double>(initial.size()));
  }
  SolverConfig config;
  config.epsilon = eps;
  config.regenerative = raid.initial_state;
  SweepScenario scenario;
  scenario.solver = make_solver(solver, raid.chain, raid.failure_rewards(),
                                std::move(initial), config);
  scenario.request.times = std::move(times);
  scenario.chain = &raid.chain;
  return scenario;
}

/// CPU seconds (user + system) of this process or of the calling thread.
double cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

TEST(LentPool, RrlRejectsMaxTermsCrumpCannotUse) {
  // crump_invert requires max_terms > min_terms (8); a solver that would
  // throw inside every inversion is refused when it is built.
  const MultiprocModel m = build_multiproc_availability({});
  const auto build = [&](int max_terms) {
    RrlOptions options;
    options.max_terms = max_terms;
    return std::make_unique<RegenerativeRandomizationLaplace>(
        m.chain, m.failure_rewards(), m.initial_distribution(),
        m.initial_state, options);
  };
  EXPECT_THROW((void)build(4), contract_error);
  EXPECT_THROW((void)build(8), contract_error);
  const auto solver = build(9);
  EXPECT_EQ(solver->solve_grid(SolveRequest::trr({1.0, 10.0})).points.size(),
            2u);
}

TEST(LentPool, RandomizedSolversPoolFromTheNnzFloor) {
  // A birth-death chain of n states randomizes to a P^T of 2n stored
  // entries (two per interior state, a neighbour and a self-loop at each
  // end), so n = kMinPooledNnz / 2 sits exactly on the floor.
  const auto chain_of = [](std::size_t n) {
    return make_birth_death(std::vector<double>(n - 1, 1.0),
                            std::vector<double>(n - 1, 1.5));
  };
  const std::size_t floor_states =
      static_cast<std::size_t>(SolveWorkspace::kMinPooledNnz / 2);
  const SolveRequest request = SolveRequest::trr({1.0, 2.0, 3.0});
  for (const std::size_t n : {floor_states, floor_states - 1}) {
    const Ctmc chain = chain_of(n);
    const bool pooled =
        RandomizedDtmc(chain, 1.0).transition_transposed().nnz() >=
        SolveWorkspace::kMinPooledNnz;
    ASSERT_EQ(pooled, n == floor_states) << n;
    std::vector<double> rewards(n, 0.0);
    rewards.front() = 1.0;
    std::vector<double> initial(n, 0.0);
    initial.front() = 1.0;
    const struct {
      const char* solver;
      LentPoolUse use;
    } table[] = {{"sr", LentPoolUse::kHotLoop},
                 {"rsd", LentPoolUse::kHotLoop},
                 {"krylov", LentPoolUse::kPart}};
    for (const auto& row : table) {
      const auto solver =
          make_solver(row.solver, chain, rewards, initial, SolverConfig{});
      EXPECT_EQ(solver->lent_pool_use(request),
                pooled ? row.use : LentPoolUse::kNone)
          << row.solver << " n=" << n;
    }
  }
}

TEST(LentPool, RrlGridOnALentPoolMatchesTheSerialSolve) {
  const MultiprocModel m = build_multiproc_availability({});
  RrlOptions options;
  options.epsilon = 1e-12;
  const RegenerativeRandomizationLaplace solver(
      m.chain, m.failure_rewards(), m.initial_distribution(),
      m.initial_state, options);
  ThreadPool pool(4);
  for (const MeasureKind measure : {MeasureKind::kTrr, MeasureKind::kMrr}) {
    const SolveRequest request{measure, log_time_grid(0.5, 1e4, 8), -1.0};
    ASSERT_EQ(solver.lent_pool_use(request), LentPoolUse::kPart);
    SolveWorkspace serial;
    const SolveReport want = solver.solve_grid(request, serial);

    SolveWorkspace lent;
    lent.lent_pool = &pool;
    const PoolTally tally;
    const SolveReport got = solver.solve_grid(request, lent);
    EXPECT_EQ(tally.loops(), 1u);  // the grid's inversions, one loop
    EXPECT_EQ(tally.indices(), request.times.size());
    expect_same(got, want, measure_name(measure));
  }
  // Two points or fewer stay on the caller, pool or not.
  EXPECT_EQ(solver.lent_pool_use(SolveRequest::trr({1.0, 2.0})),
            LentPoolUse::kNone);
  SolveWorkspace lent;
  lent.lent_pool = &pool;
  const PoolTally tally;
  (void)solver.solve_grid(SolveRequest::trr({1.0, 2.0}), lent);
  EXPECT_EQ(tally.loops(), 0u);
}

TEST(LentPool, OneRrlScenarioAtFourJobsMatchesOneJob) {
  const auto batch = [] {
    BatchRequest b;
    b.scenarios.push_back(
        raid40_scenario("rrl", log_time_grid(1.0, 1e3, 6)));
    return b;
  };
  ThreadPool one(1);
  const SweepReport want = run_sweep(batch(), one);

  ThreadPool four(4);
  BatchRequest unit = batch();  // one unit on four workers
  const PoolTally tally;
  const SweepReport got = run_sweep(std::move(unit), four);
  // The six inversions; the unit-parallel route would run one unit, one
  // index.
  EXPECT_EQ(tally.indices(), 6u);
  expect_same(got, want, "rrl jobs 4 vs 1");
}

TEST(LentPool, SrPlusRrlOnRaid40TakesTheModelParallelRoute) {
  const auto batch = [] {
    BatchRequest b;
    b.scenarios.push_back(raid40_scenario("sr", {1.0, 3.0, 9.0}));
    b.scenarios.push_back(raid40_scenario("rrl", {1.0, 3.0, 9.0}));
    return b;
  };
  ThreadPool one(1);
  const SweepReport want = run_sweep(batch(), one);

  ThreadPool four(4);
  BatchRequest units = batch();  // two units on four workers
  const PoolTally tally;
  const SweepReport got = run_sweep(std::move(units), four);
  // Unit-parallel would run one loop (the units); model-parallel runs
  // RRL's inversions and SR's pooled products.
  EXPECT_GT(tally.loops(), 2u);
  expect_same(got, want, "sr + rrl jobs 4 vs 1");
}

TEST(LentPool, PairsOfPartPooledUnitsStayUnitParallel) {
  // RRL compiles its schema and Krylov orthogonalizes on the calling
  // thread; two such units run side by side rather than one after the
  // other with only their inversions or products on the pool.
  for (const std::string solver : {"rrl", "krylov"}) {
    const auto batch = [&] {
      BatchRequest b;
      b.scenarios.push_back(raid40_scenario(solver, {1.0, 3.0, 9.0}));
      b.scenarios.push_back(raid40_scenario(solver, {1.0, 3.0, 9.0}, 1e-8));
      return b;
    };
    ThreadPool one(1);
    const SweepReport want = run_sweep(batch(), one);

    ThreadPool four(4);
    BatchRequest pair = batch();
    const PoolTally tally;
    const SweepReport got = run_sweep(std::move(pair), four);
    // The units, one loop of two indices.
    EXPECT_EQ(tally.loops(), 1u) << solver;
    EXPECT_EQ(tally.indices(), 2u) << solver;
    expect_same(got, want, solver + " pair jobs 4 vs 1");
  }
}

TEST(LentPool, KrylovScenarioRunsItsProductsOnThePool) {
  // Krylov steps through SolveWorkspace::pooled_spmv like SR and RSD, so
  // a lone Krylov scenario on a big model is lent the pool too.
  BatchRequest batch;
  batch.scenarios.push_back(raid40_scenario("krylov", {1.0, 10.0, 100.0}));
  ThreadPool one(1);
  const SweepReport want = run_sweep(batch, one);

  ThreadPool four(4);
  const PoolTally tally;
  const SweepReport got = run_sweep(batch, four);
  // Unit-parallel would run exactly one loop: the sweep's own.
  EXPECT_GT(tally.loops(), 1u);
  expect_same(got, want, "krylov jobs 4 vs 1");
}

TEST(LentPool, RouteFollowsTheSolverNotItsRegisteredName) {
  // SR registered under another name takes the route "sr" takes.
  register_solver(
      "sr-under-another-name",
      [](const Ctmc& chain, std::vector<double> rewards,
         std::vector<double> initial, const SolverConfig& config) {
        SrOptions options;
        options.epsilon = config.epsilon;
        options.rate_factor = config.rate_factor;
        options.step_cap = config.step_cap;
        return std::make_unique<StandardRandomization>(
            chain, std::move(rewards), std::move(initial), options);
      });
  std::vector<std::uint64_t> loops;
  std::vector<SweepReport> reports;
  for (const std::string name : {"sr", "sr-under-another-name"}) {
    BatchRequest batch;
    batch.scenarios.push_back(
        raid40_scenario(name, {1.0, 5.0}, 1e-10, /*spread=*/true));
    ThreadPool pool(4);
    const PoolTally tally;
    reports.push_back(run_sweep(std::move(batch), pool));
    loops.push_back(tally.loops());
  }
  EXPECT_GT(loops[0], 2u);  // one loop per pooled product
  EXPECT_EQ(loops[1], loops[0]);
  expect_same(reports[1], reports[0], "sr under another name vs sr");
}

TEST(LentPool, RrlAtOneJobRunsOnOneThread) {
  BatchRequest batch;
  batch.scenarios.push_back(
      raid40_scenario("rrl", log_time_grid(1.0, 1e4, 16)));
  ThreadPool pool(1);
  const double process0 = cpu_seconds(RUSAGE_SELF);
  const double thread0 = cpu_seconds(RUSAGE_THREAD);
  const PoolTally tally;
  const SweepReport report = run_sweep(std::move(batch), pool);
  const double own = cpu_seconds(RUSAGE_THREAD) - thread0;
  const double others = cpu_seconds(RUSAGE_SELF) - process0 - own;
  ASSERT_EQ(report.failed(), 0u);
  // The sweep's own loop of one unit, inline: nothing else ran on a pool,
  // and no other thread spent CPU on the solve, as a second thread runtime
  // spreading the inversions would (whichever test started its threads).
  EXPECT_EQ(tally.loops(), 1u);
  EXPECT_EQ(tally.indices(), 1u);
  EXPECT_LE(others, 0.02 + 0.1 * own) << "calling thread " << own << " s";
}

}  // namespace
}  // namespace rrl
