// One excursion series per solver: a regenerative schema for a looser
// (t, eps) key is a prefix of a tighter key's, so it can be cut instead of
// stepped. (1) truncate_regenerative_schema equals a fresh
// compute_regenerative_schema field for field and byte for byte over a
// (t, eps) grid — absorbing chains, a primed chain, an exactly ending
// excursion, step caps and all-zero rewards included — and refuses keys its
// source stops short of; (2) SchemaCache serves misses by cutting, builds
// single-flight, and exports the same bytes as a cache that built every key;
// (3) the sweep engine's leaders-first hand-out steps one schema per shared
// solver and cuts the rest, with reports bitwise equal to fresh solvers'.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_artifact.hpp"
#include "core/schema_cache.hpp"
#include "core/sweep_engine.hpp"
#include "io/artifact_codec.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

struct Model {
  std::string label;
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
  index_t regenerative = 0;
};

Model raid_model(bool reliability) {
  Raid5Params p;
  p.groups = 20;
  const Raid5Model m = reliability ? build_raid5_reliability(p)
                                   : build_raid5_availability(p);
  return {reliability ? "raid5-g20-ur" : "raid5-g20-ua", m.chain,
          m.failure_rewards(), m.initial_distribution(), m.initial_state};
}

/// RAID-5 G=20 UA started with a quarter of its mass away from r, so the
/// schema carries a primed chain.
Model primed_model() {
  Model m = raid_model(false);
  m.label = "raid5-g20-ua-primed";
  const auto r = static_cast<std::size_t>(m.regenerative);
  const std::size_t other = r == 0 ? 1 : 0;
  m.initial[r] = 0.75;
  m.initial[other] = 0.25;
  return m;
}

/// A deterministic 3-cycle 0 -> 1 -> 2 -> 0 with equal exit rates: the
/// randomized DTMC has no self-loops, so every excursion from r = 0 returns
/// at step 3 and a(3) == 0 exactly.
Model cycle_model() {
  std::vector<Triplet> rates = {{0, 1, 2.0}, {1, 2, 2.0}, {2, 0, 2.0}};
  return {"cycle", Ctmc::from_transitions(3, std::move(rates)),
          {0.0, 1.0, 0.5}, {1.0, 0.0, 0.0}, 0};
}

RegenerativeOptions options(double eps, std::int64_t step_cap = -1) {
  RegenerativeOptions o;
  o.epsilon = eps;
  o.step_cap = step_cap;
  return o;
}

RegenerativeSchema fresh(const Model& m, double t, double eps,
                         std::int64_t step_cap = -1) {
  return compute_regenerative_schema(m.chain, m.rewards, m.initial,
                                     m.regenerative, t,
                                     options(eps, step_cap));
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_series(const ExcursionSeries& cut,
                        const ExcursionSeries& built,
                        const std::string& where) {
  EXPECT_TRUE(same_bytes(cut.a, built.a)) << where << " a";
  EXPECT_TRUE(same_bytes(cut.c, built.c)) << where << " c";
  EXPECT_TRUE(same_bytes(cut.qa, built.qa)) << where << " qa";
  ASSERT_EQ(cut.va.size(), built.va.size()) << where;
  for (std::size_t i = 0; i < cut.va.size(); ++i) {
    EXPECT_TRUE(same_bytes(cut.va[i], built.va[i])) << where << " va" << i;
  }
  EXPECT_EQ(cut.exact, built.exact) << where;
}

void expect_same_schema(const RegenerativeSchema& cut,
                        const RegenerativeSchema& built,
                        const std::string& where) {
  EXPECT_TRUE(same_bytes(cut.lambda, built.lambda)) << where;
  EXPECT_TRUE(same_bytes(cut.alpha_r, built.alpha_r)) << where;
  EXPECT_TRUE(same_bytes(cut.r_max, built.r_max)) << where;
  EXPECT_TRUE(same_bytes(cut.t, built.t)) << where;
  EXPECT_EQ(cut.regenerative, built.regenerative) << where;
  EXPECT_EQ(cut.absorbing, built.absorbing) << where;
  EXPECT_TRUE(same_bytes(cut.f_rewards, built.f_rewards)) << where;
  EXPECT_EQ(cut.has_primed, built.has_primed) << where;
  EXPECT_EQ(cut.capped, built.capped) << where;
  expect_same_series(cut.main, built.main, where + " main");
  expect_same_series(cut.primed, built.primed, where + " primed");
}

/// Cut every (t, eps) of the grid from `longer` and compare with a fresh
/// build; returns how many keys were cut.
int expect_cuts_match(const Model& m, const RegenerativeSchema& longer,
                      const std::vector<double>& times,
                      const std::vector<double>& epsilons,
                      std::int64_t step_cap = -1) {
  int cut_count = 0;
  for (const double t : times) {
    for (const double eps : epsilons) {
      const std::string where =
          m.label + " t=" + std::to_string(t) + " eps=" + std::to_string(eps);
      const auto cut =
          truncate_regenerative_schema(longer, t, options(eps, step_cap));
      const RegenerativeSchema built = fresh(m, t, eps, step_cap);
      if (!cut) {
        // Only a key the source stops short of may be refused.
        EXPECT_GT(built.dtmc_steps(), 0) << where;
        EXPECT_TRUE(built.K() > longer.K() ||
                    (built.has_primed && built.L() > longer.L()))
            << where;
        continue;
      }
      ++cut_count;
      expect_same_schema(*cut, built, where);
    }
  }
  return cut_count;
}

const std::vector<double> kTimes = {0.5, 10.0, 1e3, 1e5};
const std::vector<double> kEpsilons = {1e-8, 1e-10, 1e-12};

TEST(SchemaSeries, CutEqualsFreshBuildOnRaid5) {
  for (const bool reliability : {false, true}) {
    const Model m = raid_model(reliability);
    const RegenerativeSchema longer = fresh(m, 1e5, 1e-12);
    EXPECT_EQ(reliability, !longer.absorbing.empty());
    EXPECT_FALSE(longer.has_primed);
    EXPECT_EQ(expect_cuts_match(m, longer, kTimes, kEpsilons),
              static_cast<int>(kTimes.size() * kEpsilons.size()))
        << m.label;
  }
}

TEST(SchemaSeries, CutEqualsFreshBuildWithPrimedChain) {
  const Model m = primed_model();
  const RegenerativeSchema longer = fresh(m, 1e5, 1e-12);
  ASSERT_TRUE(longer.has_primed);
  ASSERT_GT(longer.L(), 0);
  EXPECT_EQ(expect_cuts_match(m, longer, kTimes, kEpsilons),
            static_cast<int>(kTimes.size() * kEpsilons.size()));
}

TEST(SchemaSeries, ExactExcursionServesEveryKey) {
  const Model m = cycle_model();
  // Built for a short horizon, the series already ends exactly, so it
  // serves longer horizons and tighter eps too.
  const RegenerativeSchema longer = fresh(m, 10.0, 1e-12);
  ASSERT_TRUE(longer.main.exact);
  ASSERT_EQ(longer.K(), 3);
  const std::vector<double> times = {1e-3, 0.1, 10.0, 1e6};
  EXPECT_EQ(expect_cuts_match(m, longer, times, {1e-6, 1e-12, 1e-15}),
            static_cast<int>(times.size() * 3));
  // A tiny horizon stops before the excursion ends: not exact.
  const auto early = truncate_regenerative_schema(longer, 1e-3, options(1e-6));
  ASSERT_TRUE(early.has_value());
  EXPECT_LT(early->K(), 3);
  EXPECT_FALSE(early->main.exact);
}

TEST(SchemaSeries, StepCapIsHonoredAndCutFromCappedSeries) {
  const Model m = raid_model(false);
  constexpr std::int64_t kCap = 40;
  const RegenerativeSchema capped = fresh(m, 1e5, 1e-12, kCap);
  ASSERT_TRUE(capped.capped);
  ASSERT_EQ(capped.K(), kCap);
  // Same cap: tight keys cap at 40 again, loose short ones finish below it.
  EXPECT_EQ(expect_cuts_match(m, capped, {0.01, 1.0, 1e3, 1e5}, kEpsilons,
                              kCap),
            12);
  EXPECT_TRUE(truncate_regenerative_schema(capped, 1e3, options(1e-12, kCap))
                  ->capped);
  EXPECT_FALSE(
      truncate_regenerative_schema(capped, 0.01, options(1e-8, kCap))
          ->capped);
  // A larger cap needs steps the capped series never took.
  EXPECT_FALSE(
      truncate_regenerative_schema(capped, 1e5, options(1e-12, kCap + 1)));
  // And a small cap cuts a capped prefix from an uncapped series.
  const RegenerativeSchema longer = fresh(m, 1e5, 1e-12);
  ASSERT_FALSE(longer.capped);
  EXPECT_EQ(expect_cuts_match(m, longer, {1e3, 1e5}, kEpsilons, kCap), 6);
}

TEST(SchemaSeries, AllZeroRewardsStopAtZero) {
  Model m = raid_model(true);
  std::fill(m.rewards.begin(), m.rewards.end(), 0.0);
  const RegenerativeSchema longer = fresh(m, 1e5, 1e-12);
  EXPECT_EQ(longer.K(), 0);
  EXPECT_EQ(expect_cuts_match(m, longer, kTimes, kEpsilons),
            static_cast<int>(kTimes.size() * kEpsilons.size()));
}

TEST(SchemaSeries, RefusesKeysTheSourceStopsShortOf) {
  const Model m = raid_model(false);
  const RegenerativeSchema loose = fresh(m, 10.0, 1e-8);
  EXPECT_FALSE(truncate_regenerative_schema(loose, 1e5, options(1e-8)));
  EXPECT_FALSE(truncate_regenerative_schema(loose, 10.0, options(1e-12)));
  EXPECT_TRUE(truncate_regenerative_schema(loose, 10.0, options(1e-8)));
  // Refusals are exactly the keys whose fresh build is longer.
  const std::vector<double> times = {0.5, 10.0, 1e3};
  expect_cuts_match(m, loose, times, kEpsilons);

  const Model primed = primed_model();
  const RegenerativeSchema primed_loose = fresh(primed, 10.0, 1e-8);
  EXPECT_FALSE(
      truncate_regenerative_schema(primed_loose, 1e3, options(1e-12)));
  expect_cuts_match(primed, primed_loose, times, kEpsilons);
}

// ---------------------------------------------------------------------------
// SchemaCache: cuts, single flight, artifacts.

/// Growth of a process-wide schema memo counter (rrl_cache_schema_<name>_
/// total) since construction.
struct SchemaCounts {
  metrics::MetricsSnapshot before = metrics::snapshot();
  [[nodiscard]] std::uint64_t operator()(const std::string& name) const {
    const std::string counter = "rrl_cache_schema_" + name + "_total";
    return metrics::snapshot().value(counter) - before.value(counter);
  }
};

/// A real builder/cutter pair over one model, counting builder calls.
struct SchemaSource {
  const Model* model = nullptr;
  std::atomic<int> builds{0};

  SchemaCache::Builder builder(double t, double eps) {
    return [this, t, eps] {
      ++builds;
      return fresh(*model, t, eps);
    };
  }
  static SchemaCache::Cutter cutter(double t, double eps) {
    return [t, eps](const RegenerativeSchema& longer) {
      return truncate_regenerative_schema(longer, t, options(eps));
    };
  }
  std::shared_ptr<const CompiledSchema> get(const SchemaCache& cache,
                                            double t, double eps) {
    return cache.get(t, eps, builder(t, eps), cutter(t, eps));
  }
};

TEST(SchemaCacheCuts, CutCountsAsOneBuildAndOneCut) {
  const Model m = raid_model(false);
  SchemaSource source{&m};
  const SchemaCache cache;
  const SchemaCounts counts;

  (void)source.get(cache, 1e3, 1e-12);  // stepped
  const auto cut = source.get(cache, 1e3, 1e-8);
  (void)source.get(cache, 1e3, 1e-8);  // hit
  EXPECT_EQ(source.builds.load(), 1);
  expect_same_schema(cut->schema, fresh(m, 1e3, 1e-8), "cache cut");

  EXPECT_EQ(counts("builds"), 2u);
  EXPECT_EQ(counts("cuts"), 1u);
  EXPECT_EQ(counts("hits"), 1u);
}

TEST(SchemaCacheCuts, ConcurrentMissesOnOneKeyBuildOnce) {
  const Model m = cycle_model();
  constexpr int kThreads = 6;
  const SchemaCache cache;
  const SchemaCounts counts;
  std::latch arrived(kThreads);
  std::atomic<int> builds{0};
  // The builder holds its flight until every thread has arrived, and a
  // little longer so the others are inside get() by the time it lands.
  const auto build = [&] {
    ++builds;
    arrived.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return fresh(m, 10.0, 1e-12);
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      arrived.count_down();
      (void)cache.get(10.0, 1e-12, build, SchemaSource::cutter(10.0, 1e-12));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(counts("builds"), 1u);
  EXPECT_EQ(counts("hits"), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SchemaCacheCuts, TighterKeyWaitsForTheFlightThenLooserKeyCuts) {
  const Model m = raid_model(false);
  const SchemaCache cache;
  const SchemaCounts counts;
  std::mutex events_mutex;
  std::vector<std::string> events;
  const auto note = [&](const std::string& event) {
    const std::lock_guard<std::mutex> lock(events_mutex);
    events.push_back(event);
  };
  std::latch loose_started(1);
  std::latch release_loose(1);

  std::thread loose([&] {
    (void)cache.get(
        10.0, 1e-8,
        [&] {
          note("loose start");
          loose_started.count_down();
          release_loose.wait();
          note("loose end");
          return fresh(m, 10.0, 1e-8);
        },
        SchemaSource::cutter(10.0, 1e-8));
  });
  loose_started.wait();
  std::thread tight([&] {
    (void)cache.get(
        1e3, 1e-12,
        [&] {
          note("tight start");
          return fresh(m, 1e3, 1e-12);
        },
        SchemaSource::cutter(1e3, 1e-12));
  });
  // Give the tight miss time to reach the cache while the loose flight is
  // still held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_loose.count_down();
  loose.join();
  tight.join();
  EXPECT_EQ(events, (std::vector<std::string>{"loose start", "loose end",
                                              "tight start"}));
  EXPECT_EQ(counts("builds"), 2u);
  EXPECT_EQ(counts("cuts"), 0u);  // the loose series was too short

  // A third, looser key cuts from the tight series.
  const auto third = cache.get(
      100.0, 1e-10,
      [&] {
        note("third start");
        return fresh(m, 100.0, 1e-10);
      },
      SchemaSource::cutter(100.0, 1e-10));
  EXPECT_EQ(events.size(), 3u);
  EXPECT_EQ(counts("cuts"), 1u);
  expect_same_schema(third->schema, fresh(m, 100.0, 1e-10), "third key");
}

std::string artifact_bytes(const CompiledArtifact& artifact) {
  return encode_artifact(artifact);
}

TEST(SchemaCacheCuts, CutFilledCacheExportsFreshBuildBytes) {
  const Model m = raid_model(true);
  // Tightest first, so every later key of the shared solver is cut.
  const std::vector<std::pair<double, double>> keys = {
      {100.0, 1e-12}, {100.0, 1e-8}, {10.0, 1e-10}, {1.0, 1e-12}, {0.5, 1e-8}};
  for (const std::string name : {"rr", "rrl"}) {
    SolverConfig config;
    config.epsilon = 1e-12;
    config.regenerative = m.regenerative;
    const auto shared =
        make_solver(name, m.chain, m.rewards, m.initial, config);
    const SchemaCounts counts;
    for (const auto& [t, eps] : keys) {
      (void)shared->solve_grid(SolveRequest::trr({t}, eps));
    }
    EXPECT_EQ(counts("cuts"), keys.size() - 1) << name;
    const CompiledArtifact cut = export_artifact(*shared, 7, config);
    ASSERT_EQ(cut.schemas.size(), keys.size());

    // The same keys, each stepped by a solver of its own, exported in the
    // snapshot's (t, eps) order.
    CompiledArtifact built = cut;
    built.schemas.clear();
    std::vector<std::pair<double, double>> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [t, eps] : sorted) {
      const auto own = make_solver(name, m.chain, m.rewards, m.initial, config);
      (void)own->solve_grid(SolveRequest::trr({t}, eps));
      const CompiledArtifact one = export_artifact(*own, 7, config);
      ASSERT_EQ(one.schemas.size(), 1u);
      built.schemas.push_back(one.schemas.front());
    }
    EXPECT_EQ(artifact_bytes(cut), artifact_bytes(built)) << name;
  }
}

// ---------------------------------------------------------------------------
// Leaders-first hand-out in the sweep engine.

void expect_same_reports(const SweepReport& a, const SweepReport& b,
                         const std::string& where) {
  ASSERT_EQ(a.results.size(), b.results.size()) << where;
  for (std::size_t s = 0; s < a.results.size(); ++s) {
    const ScenarioResult& x = a.results[s];
    const ScenarioResult& y = b.results[s];
    EXPECT_EQ(x.error, y.error) << where << " scenario " << s;
    ASSERT_EQ(x.report.points.size(), y.report.points.size()) << where;
    for (std::size_t p = 0; p < x.report.points.size(); ++p) {
      const TransientValue& u = x.report.points[p];
      const TransientValue& v = y.report.points[p];
      EXPECT_TRUE(same_bytes(u.value, v.value))
          << where << " scenario " << s << " point " << p;
      EXPECT_EQ(u.stats.dtmc_steps, v.stats.dtmc_steps) << where;
      EXPECT_EQ(u.stats.vmodel_steps, v.stats.vmodel_steps) << where;
      EXPECT_EQ(u.stats.abscissae, v.stats.abscissae) << where;
      EXPECT_EQ(u.stats.capped, v.stats.capped) << where;
      EXPECT_EQ(u.stats.inversion_converged, v.stats.inversion_converged)
          << where;
    }
    EXPECT_EQ(x.report.total.dtmc_steps, y.report.total.dtmc_steps) << where;
    EXPECT_EQ(x.report.total.vmodel_steps, y.report.total.vmodel_steps)
        << where;
  }
}

/// One solver x 2 measures x 3 eps on one grid, in plan order (measure,
/// then eps). `shared` set: every scenario drives it; null: each scenario
/// constructs its own solver (what the study layer does with its cache
/// off).
BatchRequest one_solver_batch(const Model& m, const std::string& name,
                              std::shared_ptr<const TransientSolver> shared) {
  BatchRequest batch;
  for (const MeasureKind measure : {MeasureKind::kTrr, MeasureKind::kMrr}) {
    for (const double eps : {1e-8, 1e-10, 1e-12}) {
      SweepScenario scenario;
      scenario.solver = shared;
      if (shared == nullptr) {
        SolverConfig config;
        config.epsilon = 1e-12;
        config.regenerative = m.regenerative;
        scenario.solver =
            make_solver(name, m.chain, m.rewards, m.initial, config);
      }
      scenario.request = SolveRequest{measure, {1.0, 10.0, 100.0}, eps};
      scenario.chain = &m.chain;
      batch.scenarios.push_back(std::move(scenario));
    }
  }
  return batch;
}

TEST(LeadersFirst, SharedSolverStepsOneSchemaAndCutsTheRest) {
  // rrl runs as units of one, rr as one unit per schema key; both hand
  // out the tightest request first and cut the other two keys.
  const Model m = raid_model(false);
  for (const std::string name : {"rrl", "rr"}) {
    SolverConfig config;
    config.epsilon = 1e-12;
    config.regenerative = m.regenerative;
    ThreadPool four(4);
    const SweepReport fresh_report =
        run_sweep(one_solver_batch(m, name, nullptr), four);
    EXPECT_EQ(fresh_report.failed(), 0u);
    for (const int jobs : {4, 1}) {
      const std::shared_ptr<const TransientSolver> shared =
          make_solver(name, m.chain, m.rewards, m.initial, config);
      ThreadPool pool(jobs);
      const SchemaCounts counts;
      const SweepReport report =
          run_sweep(one_solver_batch(m, name, shared), pool);
      const std::string where = name + " jobs=" + std::to_string(jobs);
      expect_same_reports(report, fresh_report, where);
      EXPECT_EQ(counts("builds"), 3u) << where;
      EXPECT_EQ(counts("cuts"), 2u) << where;
    }
  }
}

TEST(LeadersFirst, PrecompileMemoizesExactlySolveGridsSchema) {
  // precompile() must build the one schema solve_grid(request) runs on and
  // nothing else: an extra key would change exported artifacts.
  const Model m = raid_model(false);
  SolverConfig config;
  config.epsilon = 1e-12;
  config.regenerative = m.regenerative;
  for (const std::string name : {"rr", "rrl"}) {
    const auto solver =
        make_solver(name, m.chain, m.rewards, m.initial, config);
    const SolveRequest request = SolveRequest::mrr({1.0, 50.0, 10.0}, 1e-9);
    const SchemaCounts counts;
    solver->precompile(request);
    EXPECT_EQ(counts("builds"), 1u) << name;
    (void)solver->solve_grid(request);
    EXPECT_EQ(counts("builds"), 1u) << name;
    EXPECT_EQ(counts("hits"), 1u) << name;
    const CompiledArtifact artifact = export_artifact(*solver, 7, config);
    ASSERT_EQ(artifact.schemas.size(), 1u) << name;
    EXPECT_EQ(artifact.schemas[0].t, 50.0) << name;
    EXPECT_EQ(artifact.schemas[0].eps, 1e-9) << name;
    EXPECT_THROW(solver->precompile(SolveRequest::trr({})), contract_error)
        << name;
  }
  // rrl's solve_grid needs no schema at t = 0 alone or with zero rewards.
  const SchemaCounts counts;
  const auto rrl = make_solver("rrl", m.chain, m.rewards, m.initial, config);
  rrl->precompile(SolveRequest::trr({0.0}));
  std::vector<double> zero(m.rewards.size(), 0.0);
  const auto zero_rrl = make_solver("rrl", m.chain, zero, m.initial, config);
  zero_rrl->precompile(SolveRequest::trr({10.0}));
  EXPECT_EQ(counts("builds"), 0u);
}

TEST(LeadersFirst, ScheduleOrdersLeadersByChainSizeThenIndex) {
  int a = 0;
  int b = 0;
  const std::vector<CompileDemand> demands = {
      {&a, 1e-8, 10.0, 100},  {nullptr, 1e-12, 1e5, 500},
      {&b, 1e-10, 10.0, 200}, {&a, 1e-12, 10.0, 100},
      {&a, 1e-12, 20.0, 100}, {&b, 1e-10, 10.0, 200},
  };
  const LeaderSchedule schedule(demands);
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    order.push_back(schedule[k]);
  }
  // b's leader (larger chain, lowest of its equal requests), then a's
  // (smallest eps, then largest t_max), then everything else by index.
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 4, 0, 1, 3, 5}));
}

TEST(LeadersFirst, FollowerWaitsForItsLeader) {
  int solver = 0;
  const std::vector<CompileDemand> demands = {{&solver, 1e-8, 10.0, 10},
                                              {&solver, 1e-12, 10.0, 10},
                                              {nullptr, 1e-8, 10.0, 10}};
  const LeaderSchedule schedule(demands);
  ASSERT_EQ(schedule[0], 1u);
  std::mutex events_mutex;
  std::vector<std::string> events;
  const auto note = [&](const std::string& event) {
    const std::lock_guard<std::mutex> lock(events_mutex);
    events.push_back(event);
  };
  // Handed out before its leader runs, the follower must not start; the
  // solver-less iteration never waits.
  std::thread follower([&] { schedule.run(0, [&] { note("follower"); }); });
  schedule.run(2, [&] { note("no solver"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  schedule.run(1, [&] { note("leader"); });
  follower.join();
  EXPECT_EQ(events,
            (std::vector<std::string>{"no solver", "leader", "follower"}));
}

}  // namespace
}  // namespace rrl
