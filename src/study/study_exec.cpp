#include "study/study_exec.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {

ExecutedSlice execute_scenarios(const StudyPlan& plan,
                                const std::vector<std::size_t>& positions,
                                SolverCache& cache,
                                const ExecOptions& options, ThreadPool* pool,
                                std::vector<SolveWorkspace>* workspaces) {
  const trace::Span span("slice.execute", positions.size());
  static auto& slices = metrics::counter("rrl_exec_slices_total");
  static auto& scenarios_in =
      metrics::counter("rrl_exec_scenarios_total");
  slices.add(1);
  scenarios_in.add(positions.size());

  std::optional<ThreadPool> own_pool;
  std::vector<SolveWorkspace> own_workspaces;
  if (pool == nullptr) {
    pool = &own_pool.emplace(options.jobs);
    workspaces = &own_workspaces;
  }
  RRL_EXPECTS(workspaces != nullptr);

  ExecutedSlice slice;
  slice.tiers.assign(positions.size(), CacheTier::kNone);
  slice.grids = plan.grids;
  for (const std::size_t p : positions) {
    RRL_EXPECTS(p < plan.scenarios.size());
    slice.scenarios.push_back(plan.scenarios[p].meta);
  }

  // Every solver is built before the sweep: one per key through the
  // cache, serially (a failed key is built once and rethrows its error),
  // or one per scenario across the pool.
  BatchRequest batch;
  batch.scenarios.resize(positions.size());
  const auto build = [&](std::size_t k) {
    const PlannedScenario& planned = plan.scenarios[positions[k]];
    SweepScenario& scenario = batch.scenarios[k];
    scenario.request = planned.request;
    scenario.chain = &planned.model->file.chain;
    try {
      scenario.solver =
          options.use_cache
              ? cache.get_or_build(planned.model, planned.meta.solver,
                                   planned.config, &slice.tiers[k])
              : make_solver(planned.meta.solver, planned.model->file.chain,
                            planned.model->file.rewards,
                            planned.model->file.initial, planned.config);
    } catch (const std::exception& e) {
      scenario.error = e.what();
    }
  };
  if (options.use_cache) {
    for (std::size_t k = 0; k < positions.size(); ++k) build(k);
  } else {
    pool->parallel_for(positions.size(), build);
  }

  // The plan (and the cache entries) pin the models the sweep borrows
  // chains from; both outlive the returned slice in every caller.
  slice.sweep = run_sweep(std::move(batch), *pool, *workspaces);
  return slice;
}

ExecutedSlice execute_unit(const StudyPlan& plan, const WorkUnit& unit,
                           SolverCache& cache, const ExecOptions& options,
                           ThreadPool* pool,
                           std::vector<SolveWorkspace>* workspaces) {
  RRL_EXPECTS(unit.count > 0 &&
              unit.first + unit.count <= plan.scenarios.size());
  const trace::Span span("unit.execute", unit.id);
  static auto& units = metrics::counter("rrl_exec_units_total");
  units.add(1);
  std::vector<std::size_t> positions(unit.count);
  for (std::size_t i = 0; i < unit.count; ++i) positions[i] = unit.first + i;
  return execute_scenarios(plan, positions, cache, options, pool,
                           workspaces);
}

std::vector<ReportRow> ExecutedSlice::rows() const {
  std::vector<ReportRow> out;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const StudyScenario& scenario = scenarios[s];
    const ScenarioResult& result = sweep.results[s];
    ReportRow base;
    base.scenario = scenario.index;
    base.model = scenario.model;
    base.solver = scenario.solver;
    base.measure = measure_name(scenario.measure);
    base.epsilon = scenario.epsilon;
    base.seconds = result.seconds;
    base.tier = cache_tier_name(tiers[s]);
    if (!result.ok()) {
      base.error = result.error;
      out.push_back(std::move(base));
      continue;
    }
    const std::vector<double>& times = grids[scenario.grid];
    for (std::size_t p = 0; p < result.report.points.size(); ++p) {
      ReportRow row = base;
      row.point = p;
      const TransientValue& point = result.report.points[p];
      row.t = times[p];
      row.value = point.value;
      row.dtmc_steps = point.stats.dtmc_steps;
      out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace rrl
