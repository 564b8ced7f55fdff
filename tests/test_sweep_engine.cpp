// Sweep engine + workspace reuse: (1) a 16-scenario batch (RAID-5 +
// multiproc x all four solvers x both measures) produces bit-identical
// SweepReport values at 1, 2 and 8 worker threads (deterministic ordered
// reduction); (2) repeated solve_grid() calls reusing one SolveWorkspace —
// including across models of different sizes — agree exactly with a fresh
// solver using a fresh workspace; (3) a scenario whose solver could not be
// built reports its construction error without sinking the batch; (4) one
// shared solver instance is safe to drive from concurrent workers with
// per-worker workspaces.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sweep_engine.hpp"
#include "counter_delta.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"

namespace rrl {
namespace {

constexpr double kEps = 1e-10;

struct Model {
  std::string label;
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
  index_t regenerative = 0;
};

Model raid_model() {
  Raid5Params p;
  p.groups = 20;
  const Raid5Model m = build_raid5_availability(p);
  return {"raid5-g20", m.chain, m.failure_rewards(),
          m.initial_distribution(), m.initial_state};
}

Model multiproc_model() {
  const MultiprocModel m = build_multiproc_availability({});
  return {"multiproc", m.chain, m.failure_rewards(),
          m.initial_distribution(), m.initial_state};
}

SolverConfig config_of(const Model& model, double eps = kEps) {
  SolverConfig config;
  config.epsilon = eps;
  config.regenerative = model.regenerative;
  return config;
}

// A scenario with a fresh solver of its own (what a study builds with its
// cache off), or with the error its construction raised.
SweepScenario fresh_scenario(const std::string& solver, const Model& model,
                             const SolverConfig& config,
                             SolveRequest request) {
  SweepScenario scenario;
  scenario.chain = &model.chain;
  scenario.request = std::move(request);
  try {
    scenario.solver = make_solver(solver, model.chain, model.rewards,
                                  model.initial, config);
  } catch (const std::exception& e) {
    scenario.error = e.what();
  }
  return scenario;
}

// The acceptance batch: 2 models x 4 solvers x 2 measures = 16 scenarios.
std::vector<SweepScenario> make_scenarios(const Model& a, const Model& b) {
  std::vector<SweepScenario> scenarios;
  const std::vector<double> grid = log_time_grid(1.0, 1e3, 6);
  for (const Model* model : {&a, &b}) {
    for (const std::string solver : {"sr", "rsd", "rr", "rrl"}) {
      for (const MeasureKind measure :
           {MeasureKind::kTrr, MeasureKind::kMrr}) {
        scenarios.push_back(fresh_scenario(solver, *model, config_of(*model),
                                           SolveRequest{measure, grid, -1.0}));
      }
    }
  }
  return scenarios;
}

TEST(SweepEngine, DeterministicAcrossWorkerCounts) {
  const Model raid = raid_model();
  const Model multi = multiproc_model();
  // Each run builds its own solvers, so every worker count compiles
  // afresh instead of reading what an earlier run left in the memos.
  const auto run = [&](int jobs) {
    BatchRequest batch;
    batch.scenarios = make_scenarios(raid, multi);
    ThreadPool pool(jobs);
    return run_sweep(std::move(batch), pool);
  };

  const SweepReport reference = run(1);
  ASSERT_EQ(reference.results.size(), 16u);
  EXPECT_EQ(reference.failed(), 0u);
  EXPECT_EQ(reference.jobs, 1);

  for (const int jobs : {2, 8}) {
    const SweepReport report = run(jobs);
    ASSERT_EQ(report.results.size(), reference.results.size());
    EXPECT_EQ(report.failed(), 0u);
    EXPECT_EQ(report.jobs, jobs);
    for (std::size_t s = 0; s < report.results.size(); ++s) {
      const SolveReport& got = report.results[s].report;
      const SolveReport& want = reference.results[s].report;
      ASSERT_EQ(got.points.size(), want.points.size()) << "scenario " << s;
      for (std::size_t i = 0; i < got.points.size(); ++i) {
        // Bit-identical, not merely close: the engine's contract.
        EXPECT_EQ(got.points[i].value, want.points[i].value)
            << "scenario " << s << " jobs=" << jobs << " point " << i;
        EXPECT_EQ(got.points[i].stats.dtmc_steps,
                  want.points[i].stats.dtmc_steps);
      }
      EXPECT_EQ(got.total.dtmc_steps, want.total.dtmc_steps);
    }
  }
}

TEST(SweepEngine, ReusedPoolAndThroughputAccounting) {
  const Model multi = multiproc_model();
  const auto batch = [&] {
    BatchRequest b;
    for (const std::string solver : {"sr", "rrl"}) {
      b.scenarios.push_back(fresh_scenario(
          solver, multi, config_of(multi), SolveRequest::trr({10.0, 100.0})));
    }
    return b;
  };
  ThreadPool pool(2);
  const SweepReport first = run_sweep(batch(), pool);
  const SweepReport second = run_sweep(batch(), pool);  // pool is reusable
  EXPECT_EQ(first.failed(), 0u);
  EXPECT_EQ(second.failed(), 0u);
  EXPECT_GT(first.seconds, 0.0);
  EXPECT_GT(first.scenarios_per_second(), 0.0);
  for (std::size_t s = 0; s < first.results.size(); ++s) {
    EXPECT_EQ(first.results[s].report.values(),
              second.results[s].report.values());
  }
}

TEST(SweepEngine, FailingScenarioDoesNotSinkTheBatch) {
  const Model multi = multiproc_model();
  const MultiprocModel reliability = build_multiproc_reliability({});

  BatchRequest batch;
  const SolveRequest request = SolveRequest::trr({100.0});
  batch.scenarios.push_back(
      fresh_scenario("rrl", multi, config_of(multi), request));

  // rsd requires an irreducible chain; the reliability model is absorbing.
  const Model absorbing{"multiproc-rel", reliability.chain,
                        reliability.failure_rewards(),
                        reliability.initial_distribution(),
                        reliability.initial_state};
  batch.scenarios.push_back(
      fresh_scenario("rsd", absorbing, config_of(absorbing), request));

  // And an unknown solver name.
  batch.scenarios.push_back(
      fresh_scenario("no-such-method", multi, config_of(multi), request));
  ASSERT_EQ(batch.scenarios[2].solver, nullptr);

  const CounterDelta failed("rrl_scenarios_failed_total");
  ThreadPool pool(2);
  const SweepReport report = run_sweep(batch, pool);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_FALSE(report.results[1].ok());
  EXPECT_FALSE(report.results[2].ok());
  EXPECT_EQ(report.failed(), 2u);
  EXPECT_EQ(failed(), 2u);
  EXPECT_EQ(report.results[2].error, batch.scenarios[2].error);
  EXPECT_NE(report.results[2].error.find("no-such-method"),
            std::string::npos);
  const auto fresh = make_solver("rrl", multi.chain, multi.rewards,
                                 multi.initial, config_of(multi));
  EXPECT_EQ(report.results[0].report.points[0].value,
            fresh->solve_grid(request).points[0].value);
}

// A solver that counts the live instances of its kind; each solve records
// how many were alive when it ran.
class CountedSolver final : public TransientSolver {
 public:
  CountedSolver(const Model& model, int& live, std::vector<int>& seen)
      : TransientSolver(model.chain, model.rewards, model.initial, kEps),
        live_(live),
        seen_(seen) {
    ++live_;
  }
  ~CountedSolver() override { --live_; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "counted";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "counts its live instances";
  }
  [[nodiscard]] std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& /*workspace*/) const override {
    seen_.push_back(live_);
    return std::vector<SharedResult>(requests.size());
  }

 private:
  int& live_;
  std::vector<int>& seen_;
};

TEST(SweepEngine, EachSolverIsReleasedOnceItsUnitIsAnswered) {
  // A study with its cache off hands the sweep one solver per scenario;
  // each must be freed when its scenario is answered, not when the batch
  // ends. One worker runs the units one after the other.
  const Model multi = multiproc_model();
  int live = 0;
  std::vector<int> seen;
  BatchRequest batch;
  for (int i = 0; i < 4; ++i) {
    SweepScenario scenario;
    scenario.solver = std::make_shared<CountedSolver>(multi, live, seen);
    scenario.request = SolveRequest::trr({1.0 + i});
    scenario.chain = &multi.chain;
    batch.scenarios.push_back(std::move(scenario));
  }
  ThreadPool pool(1);
  const SweepReport report = run_sweep(std::move(batch), pool);
  EXPECT_EQ(report.failed(), 0u);
  EXPECT_EQ(seen, (std::vector<int>{4, 3, 2, 1}));
  EXPECT_EQ(live, 0);

  // A solver the caller still holds outlives the sweep.
  const auto kept = std::make_shared<CountedSolver>(multi, live, seen);
  BatchRequest again;
  again.scenarios.push_back(
      SweepScenario{kept, SolveRequest::trr({1.0}), &multi.chain, {}});
  (void)run_sweep(std::move(again), pool);
  EXPECT_EQ(live, 1);
}

TEST(SweepEngine, SharedSolverScenariosMatchConstructedOnes) {
  // One pre-built solver drives many scenarios (the study subsystem's
  // cache path); results must be bit-identical to a fresh solver per
  // scenario, at 1 worker and at many.
  const Model multi = multiproc_model();
  const SolverConfig config = config_of(multi);
  const std::shared_ptr<const TransientSolver> shared =
      make_solver("rrl", multi.chain, multi.rewards, multi.initial, config);

  // `shared` set: every scenario drives it; null: each scenario gets a
  // fresh solver of its own, built anew for every run.
  const auto batch = [&](std::shared_ptr<const TransientSolver> solver) {
    BatchRequest b;
    for (int i = 0; i < 6; ++i) {
      const SolveRequest request{
          i % 2 == 0 ? MeasureKind::kTrr : MeasureKind::kMrr,
          log_time_grid(1.0, 100.0 + 50.0 * i, 3), -1.0};
      SweepScenario scenario = fresh_scenario("rrl", multi, config, request);
      if (solver != nullptr) scenario.solver = solver;
      b.scenarios.push_back(std::move(scenario));
    }
    return b;
  };

  for (const int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    const SweepReport a = run_sweep(batch(nullptr), pool);
    const SweepReport b = run_sweep(batch(shared), pool);
    ASSERT_EQ(a.results.size(), b.results.size());
    EXPECT_EQ(a.failed(), 0u);
    EXPECT_EQ(b.failed(), 0u);
    for (std::size_t s = 0; s < a.results.size(); ++s) {
      EXPECT_EQ(a.results[s].report.values(), b.results[s].report.values())
          << "jobs=" << jobs << " scenario " << s;
    }
  }
}

TEST(SweepEngine, SmallBatchModelParallelPathIsBitIdentical) {
  // A batch with (2x) fewer scenarios than workers on a large model takes
  // the model-parallel path: scenarios run serially and the pool
  // row-partitions the SpMVs. Values must be bit-identical to the
  // 1-worker scenario-parallel run.
  Raid5Params params;
  params.groups = 40;  // 8161 states, 45520 transitions: above the floor
  const Raid5Model raid = build_raid5_availability(params);
  ASSERT_GE(raid.chain.num_transitions(), SolveWorkspace::kMinPooledNnz);

  const Model model{"raid5-g40", raid.chain, raid.failure_rewards(),
                    raid.initial_distribution(), raid.initial_state};
  const auto run = [&](int jobs) {
    BatchRequest batch;
    for (const std::string solver : {"sr", "rsd"}) {
      batch.scenarios.push_back(
          fresh_scenario(solver, model, config_of(model, 1e-8),
                         SolveRequest::trr({1.0, 10.0})));
    }
    ThreadPool pool(jobs);
    return run_sweep(std::move(batch), pool);
  };

  const SweepReport reference = run(1);
  ASSERT_EQ(reference.failed(), 0u);

  // 2 scenarios * 2 <= 8 workers: model-parallel path
  const SweepReport pooled = run(8);
  ASSERT_EQ(pooled.failed(), 0u);
  for (std::size_t s = 0; s < reference.results.size(); ++s) {
    EXPECT_EQ(pooled.results[s].report.values(),
              reference.results[s].report.values())
        << "scenario " << s;
  }
}

TEST(SweepEngine, SharedRrUnitsMatchPerScenarioStepping) {
  // Scenarios sharing an RR solver with one compiled schema form one unit
  // and read one V-pass; distinct schemas are units of their own. Values
  // AND step accounting must be bit-identical to direct per-scenario
  // solve_grid() calls, at every worker count.
  const Model raid = raid_model();
  const Model multi = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;

  std::vector<std::shared_ptr<const TransientSolver>> solvers;
  BatchRequest batch;
  for (const Model* model : {&raid, &multi}) {
    SolverConfig model_config = config;
    model_config.regenerative = model->regenerative;
    const std::shared_ptr<const TransientSolver> shared = make_solver(
        "rr", model->chain, model->rewards, model->initial, model_config);
    solvers.push_back(shared);
    // Mix of shared and distinct schemas: same horizon at two grid
    // resolutions (one V-pass), a different horizon, a different request
    // epsilon (its own schema), and both measures throughout.
    const std::vector<std::vector<double>> grids = {
        log_time_grid(1.0, 400.0, 4), log_time_grid(2.0, 400.0, 2),
        log_time_grid(1.0, 80.0, 3)};
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      for (const auto& grid : grids) {
        for (const double request_eps : {-1.0, 1e-6}) {
          SweepScenario scenario;
          scenario.solver = shared;
          scenario.request = SolveRequest{measure, grid, request_eps};
          scenario.chain = &model->chain;
          batch.scenarios.push_back(std::move(scenario));
        }
      }
    }
  }
  ASSERT_EQ(batch.scenarios.size(), 24u);

  // Reference: the per-scenario stepping path, no engine involved.
  std::vector<SolveReport> reference;
  reference.reserve(batch.scenarios.size());
  for (const SweepScenario& scenario : batch.scenarios) {
    reference.push_back(scenario.solver->solve_grid(scenario.request));
  }

  for (const int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    const SweepReport report = run_sweep(batch, pool);
    ASSERT_EQ(report.failed(), 0u) << "jobs=" << jobs;
    for (std::size_t s = 0; s < reference.size(); ++s) {
      const SolveReport& got = report.results[s].report;
      const SolveReport& want = reference[s];
      ASSERT_EQ(got.points.size(), want.points.size());
      for (std::size_t i = 0; i < got.points.size(); ++i) {
        EXPECT_EQ(got.points[i].value, want.points[i].value)
            << "jobs=" << jobs << " scenario " << s << " point " << i;
        EXPECT_EQ(got.points[i].stats.dtmc_steps,
                  want.points[i].stats.dtmc_steps);
        EXPECT_EQ(got.points[i].stats.vmodel_steps,
                  want.points[i].stats.vmodel_steps);
        EXPECT_EQ(got.points[i].stats.capped, want.points[i].stats.capped);
      }
      EXPECT_EQ(got.total.dtmc_steps, want.total.dtmc_steps);
      EXPECT_EQ(got.total.vmodel_steps, want.total.vmodel_steps);
    }
  }
}

TEST(SweepEngine, RrSolveSharedOverDistinctSchemasIsBitIdentical) {
  // Ten distinct horizons are ten schema keys: solve_shared compiles and
  // steps one V-pass per key, serially or with a pool lent to the
  // V-model products, and must match the per-request solves bitwise.
  const Model raid = raid_model();
  SolverConfig config;
  config.epsilon = 1e-12;  // the paper's budget: K ~ thousands
  config.regenerative = raid.regenerative;
  const std::shared_ptr<const TransientSolver> shared = make_solver(
      "rr", raid.chain, raid.rewards, raid.initial, config);

  std::vector<SolveRequest> requests;
  for (int g = 0; g < 10; ++g) {
    SolveRequest request;
    request.measure = MeasureKind::kTrr;
    request.times = log_time_grid(1.0, 50.0 + 10.0 * g, 3);
    requests.push_back(std::move(request));
  }

  // Reference first (also warms the schema memo, so the shared runs
  // exercise only the execute phase).
  std::vector<SolveReport> reference;
  for (const SolveRequest& request : requests) {
    reference.push_back(shared->solve_grid(request));
  }

  std::vector<const SolveRequest*> ptrs;
  for (const SolveRequest& request : requests) ptrs.push_back(&request);
  const auto run_shared = [&](ThreadPool* pool) {
    SolveWorkspace workspace;
    workspace.lent_pool = pool;
    std::vector<SolveReport> reports;
    for (SharedResult& result : shared->solve_shared(ptrs, workspace)) {
      EXPECT_EQ(result.error, nullptr);
      reports.push_back(std::move(result.report));
    }
    return reports;
  };

  const std::vector<SolveReport> serial = run_shared(nullptr);
  ThreadPool pool(4);
  const std::vector<SolveReport> pooled = run_shared(&pool);
  for (std::size_t s = 0; s < requests.size(); ++s) {
    EXPECT_EQ(serial[s].values(), reference[s].values()) << s;
    EXPECT_EQ(pooled[s].values(), reference[s].values()) << s;
    EXPECT_EQ(pooled[s].total.vmodel_steps, reference[s].total.vmodel_steps);
  }
}

TEST(SweepEngine, SharedRrUnitIsolatesBadItems) {
  const Model multi = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = multi.regenerative;
  const std::shared_ptr<const TransientSolver> shared = make_solver(
      "rr", multi.chain, multi.rewards, multi.initial, config);

  BatchRequest batch;
  SweepScenario good;
  good.solver = shared;
  good.request.times = {10.0, 100.0};
  good.chain = &multi.chain;
  batch.scenarios.push_back(good);

  // MRR at t = 0 violates the request contract; its largest time puts it
  // in the good scenarios' unit, which it must not sink.
  SweepScenario bad = good;
  bad.request.measure = MeasureKind::kMrr;
  bad.request.times = {0.0, 100.0};
  batch.scenarios.push_back(bad);
  batch.scenarios.push_back(good);

  ThreadPool pool(1);
  const SweepReport report = run_sweep(std::move(batch), pool);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_FALSE(report.results[1].ok());
  EXPECT_TRUE(report.results[2].ok());
  EXPECT_EQ(report.results[0].report.values(),
            shared->solve_grid(good.request).values());
}

TEST(Workspace, PooledSpmvGuards) {
  // pooled_spmv: needs a pool with real workers, a big enough matrix, and
  // no enclosing parallel region.
  SolveWorkspace workspace;
  EXPECT_EQ(workspace.pooled_spmv(1 << 20), nullptr);  // no pool

  ThreadPool single(1);
  workspace.lent_pool = &single;
  EXPECT_EQ(workspace.pooled_spmv(1 << 20), nullptr);  // no real workers

  ThreadPool pool(2);
  workspace.lent_pool = &pool;
  EXPECT_EQ(workspace.pooled_spmv(SolveWorkspace::kMinPooledNnz - 1),
            nullptr);  // below the size floor
  EXPECT_EQ(workspace.pooled_spmv(SolveWorkspace::kMinPooledNnz), &pool);

  // Inside a multi-threaded parallel region the guard wins.
  ThreadPool outer(2);
  std::vector<ThreadPool*> seen(2, &pool);
  outer.parallel_for(2, [&](std::size_t i, std::size_t) {
    seen[i] = workspace.pooled_spmv(1 << 20);
  });
  EXPECT_EQ(seen[0], nullptr);
  EXPECT_EQ(seen[1], nullptr);
}

TEST(Workspace, RepeatedSolveGridReuseAgreesWithFreshSolver) {
  const Model raid = raid_model();
  const Model multi = multiproc_model();
  const std::vector<double> grid = log_time_grid(1.0, 500.0, 5);

  for (const std::string name : {"sr", "rsd", "rr", "rrl"}) {
    SolverConfig config;
    config.epsilon = kEps;
    SolveWorkspace reused;
    for (const Model* model : {&raid, &multi, &raid}) {  // sizes alternate
      config.regenerative = model->regenerative;
      const auto solver = make_solver(name, model->chain, model->rewards,
                                      model->initial, config);
      for (const MeasureKind measure :
           {MeasureKind::kTrr, MeasureKind::kMrr}) {
        SolveRequest request;
        request.measure = measure;
        request.times = grid;
        const SolveReport warm = solver->solve_grid(request, reused);
        SolveWorkspace fresh;
        const SolveReport cold = solver->solve_grid(request, fresh);
        ASSERT_EQ(warm.points.size(), cold.points.size());
        for (std::size_t i = 0; i < warm.points.size(); ++i) {
          EXPECT_EQ(warm.points[i].value, cold.points[i].value)
              << name << " " << model->label << " point " << i;
        }
        EXPECT_EQ(warm.total.dtmc_steps, cold.total.dtmc_steps) << name;
      }
    }
  }
}

TEST(Workspace, SharedSolverConcurrentWorkspaces) {
  // One solver instance, many concurrent solve_grid calls with per-worker
  // workspaces: the documented threading contract. The calls race the
  // solver's first use, so SR's DTMC and RR's memoized schema and V-model
  // DTMC are built under contention, then read by every call.
  const Model multi = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = multi.regenerative;
  const std::vector<double> grid = log_time_grid(1.0, 200.0, 4);
  for (const std::string name : {"sr", "rr"}) {
    const SolveReport reference =
        make_solver(name, multi.chain, multi.rewards, multi.initial, config)
            ->solve_grid(SolveRequest::trr(grid));
    const auto solver = make_solver(name, multi.chain, multi.rewards,
                                    multi.initial, config);
    ThreadPool pool(4);
    std::vector<SolveWorkspace> workspaces(4);
    std::vector<SolveReport> reports(16);
    pool.parallel_for(reports.size(), [&](std::size_t i, std::size_t worker) {
      reports[i] = solver->solve_grid(SolveRequest::trr(grid),
                                      workspaces[worker]);
    });
    for (const SolveReport& report : reports) {
      EXPECT_EQ(report.values(), reference.values()) << name;
    }
  }
}

}  // namespace
}  // namespace rrl
