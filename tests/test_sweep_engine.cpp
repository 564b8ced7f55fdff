// Sweep engine + workspace reuse: (1) a 16-scenario batch (RAID-5 +
// multiproc x all four solvers x both measures) produces bit-identical
// SweepReport values at 1, 2 and 8 worker threads (deterministic ordered
// reduction); (2) repeated solve_grid() calls reusing one SolveWorkspace —
// including across models of different sizes — agree exactly with a fresh
// solver using a fresh workspace; (3) a failing scenario reports its error
// without sinking the batch; (4) one shared solver instance is safe to
// drive from concurrent workers with per-worker workspaces.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sweep_engine.hpp"
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

// The acceptance batch: 2 models x 4 solvers x 2 measures = 16 scenarios.
std::vector<SweepScenario> make_scenarios(const Model& a, const Model& b) {
  std::vector<SweepScenario> scenarios;
  const std::vector<double> grid = log_time_grid(1.0, 1e3, 6);
  for (const Model* model : {&a, &b}) {
    for (const std::string solver : {"sr", "rsd", "rr", "rrl"}) {
      for (const MeasureKind measure :
           {MeasureKind::kTrr, MeasureKind::kMrr}) {
        SweepScenario scenario;
        scenario.model = model->label;
        scenario.solver = solver;
        scenario.chain = &model->chain;
        scenario.rewards = model->rewards;
        scenario.initial = model->initial;
        scenario.config.epsilon = kEps;
        scenario.config.regenerative = model->regenerative;
        scenario.request.measure = measure;
        scenario.request.times = grid;
        scenarios.push_back(std::move(scenario));
      }
    }
  }
  return scenarios;
}

TEST(SweepEngine, DeterministicAcrossWorkerCounts) {
  const Model raid = raid_model();
  const Model multi = multiproc_model();
  BatchRequest batch;
  batch.scenarios = make_scenarios(raid, multi);
  ASSERT_EQ(batch.scenarios.size(), 16u);

  batch.jobs = 1;
  const SweepReport reference = run_sweep(batch);
  ASSERT_EQ(reference.results.size(), 16u);
  EXPECT_EQ(reference.failed(), 0u);
  EXPECT_EQ(reference.jobs, 1);

  for (const int jobs : {2, 8}) {
    batch.jobs = jobs;
    const SweepReport report = run_sweep(batch);
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
            << batch.scenarios[s].model << "/" << batch.scenarios[s].solver
            << " jobs=" << jobs << " point " << i;
        EXPECT_EQ(got.points[i].stats.dtmc_steps,
                  want.points[i].stats.dtmc_steps);
      }
      EXPECT_EQ(got.total.dtmc_steps, want.total.dtmc_steps);
    }
  }
}

TEST(SweepEngine, ReusedPoolAndThroughputAccounting) {
  const Model multi = multiproc_model();
  BatchRequest batch;
  for (const std::string solver : {"sr", "rrl"}) {
    SweepScenario scenario;
    scenario.model = multi.label;
    scenario.solver = solver;
    scenario.chain = &multi.chain;
    scenario.rewards = multi.rewards;
    scenario.initial = multi.initial;
    scenario.config.epsilon = kEps;
    scenario.config.regenerative = multi.regenerative;
    scenario.request.times = {10.0, 100.0};
    batch.scenarios.push_back(std::move(scenario));
  }
  ThreadPool pool(2);
  const SweepReport first = run_sweep(batch, pool);
  const SweepReport second = run_sweep(batch, pool);  // pool is reusable
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
  batch.jobs = 2;
  SweepScenario good;
  good.model = multi.label;
  good.solver = "rrl";
  good.chain = &multi.chain;
  good.rewards = multi.rewards;
  good.initial = multi.initial;
  good.config.epsilon = kEps;
  good.config.regenerative = multi.regenerative;
  good.request.times = {100.0};
  batch.scenarios.push_back(good);

  // rsd requires an irreducible chain; the reliability model is absorbing.
  SweepScenario bad = good;
  bad.model = "multiproc-rel";
  bad.solver = "rsd";
  bad.chain = &reliability.chain;
  bad.rewards = reliability.failure_rewards();
  bad.initial = reliability.initial_distribution();
  batch.scenarios.push_back(bad);

  // And an unknown solver name.
  SweepScenario unknown = good;
  unknown.solver = "no-such-method";
  batch.scenarios.push_back(unknown);

  const SweepReport report = run_sweep(batch);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_FALSE(report.results[1].ok());
  EXPECT_FALSE(report.results[2].ok());
  EXPECT_EQ(report.failed(), 2u);
  EXPECT_NE(report.results[2].error.find("no-such-method"),
            std::string::npos);
  const auto fresh = make_solver("rrl", multi.chain, multi.rewards,
                                 multi.initial, good.config);
  EXPECT_EQ(report.results[0].report.points[0].value,
            fresh->solve_grid(good.request).points[0].value);
}

TEST(SweepEngine, SharedSolverScenariosMatchConstructedOnes) {
  // One pre-built solver drives many scenarios (the study subsystem's
  // cache path); results must be bit-identical to engine-side
  // construction, at 1 worker and at many.
  const Model multi = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = multi.regenerative;
  const std::shared_ptr<const TransientSolver> shared =
      make_solver("rrl", multi.chain, multi.rewards, multi.initial, config);

  BatchRequest constructed;
  BatchRequest cached;
  for (int i = 0; i < 6; ++i) {
    SweepScenario scenario;
    scenario.model = multi.label;
    scenario.solver = "rrl";
    scenario.chain = &multi.chain;
    scenario.rewards = multi.rewards;
    scenario.initial = multi.initial;
    scenario.config = config;
    scenario.request.measure =
        i % 2 == 0 ? MeasureKind::kTrr : MeasureKind::kMrr;
    scenario.request.times = log_time_grid(1.0, 100.0 + 50.0 * i, 3);
    constructed.scenarios.push_back(scenario);
    scenario.shared_solver = shared;
    scenario.rewards.clear();  // metadata only on the shared path
    scenario.initial.clear();
    cached.scenarios.push_back(std::move(scenario));
  }

  for (const int jobs : {1, 4}) {
    constructed.jobs = jobs;
    cached.jobs = jobs;
    const SweepReport a = run_sweep(constructed);
    const SweepReport b = run_sweep(cached);
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

  BatchRequest batch;
  for (const std::string solver : {"sr", "rsd"}) {
    SweepScenario scenario;
    scenario.model = "raid5-g40";
    scenario.solver = solver;
    scenario.chain = &raid.chain;
    scenario.rewards = raid.failure_rewards();
    scenario.initial = raid.initial_distribution();
    scenario.config.epsilon = 1e-8;
    scenario.config.regenerative = raid.initial_state;
    scenario.request.times = {1.0, 10.0};
    batch.scenarios.push_back(std::move(scenario));
  }

  batch.jobs = 1;
  const SweepReport reference = run_sweep(batch);
  ASSERT_EQ(reference.failed(), 0u);

  batch.jobs = 8;  // 2 scenarios * 2 <= 8 workers: model-parallel path
  const SweepReport pooled = run_sweep(batch);
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
          scenario.model = model->label;
          scenario.solver = "rr";
          scenario.chain = &model->chain;
          scenario.config = model_config;
          scenario.request.measure = measure;
          scenario.request.times = grid;
          scenario.request.epsilon = request_eps;
          scenario.shared_solver = shared;
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
    reference.push_back(scenario.shared_solver->solve_grid(scenario.request));
  }

  for (const int jobs : {1, 4}) {
    batch.jobs = jobs;
    const SweepReport report = run_sweep(batch);
    ASSERT_EQ(report.failed(), 0u) << "jobs=" << jobs;
    for (std::size_t s = 0; s < reference.size(); ++s) {
      const SolveReport& got = report.results[s].report;
      const SolveReport& want = reference[s];
      ASSERT_EQ(got.points.size(), want.points.size());
      for (std::size_t i = 0; i < got.points.size(); ++i) {
        EXPECT_EQ(got.points[i].value, want.points[i].value)
            << batch.scenarios[s].model << " jobs=" << jobs
            << " scenario " << s << " point " << i;
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
  good.model = multi.label;
  good.solver = "rr";
  good.chain = &multi.chain;
  good.config = config;
  good.request.times = {10.0, 100.0};
  good.shared_solver = shared;
  batch.scenarios.push_back(good);

  // MRR at t = 0 violates the request contract; its largest time puts it
  // in the good scenarios' unit, which it must not sink.
  SweepScenario bad = good;
  bad.request.measure = MeasureKind::kMrr;
  bad.request.times = {0.0, 100.0};
  batch.scenarios.push_back(bad);
  batch.scenarios.push_back(good);

  const SweepReport report = run_sweep(batch);
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
