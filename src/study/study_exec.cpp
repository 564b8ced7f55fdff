#include "study/study_exec.hpp"

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

  ExecutedSlice slice;
  slice.scenarios.reserve(positions.size());
  slice.tiers.reserve(positions.size());

  BatchRequest batch;
  batch.scenarios.reserve(positions.size());
  for (const std::size_t p : positions) {
    RRL_EXPECTS(p < plan.scenarios.size());
    const PlannedScenario& planned = plan.scenarios[p];
    slice.scenarios.push_back(planned.meta);

    SweepScenario scenario;
    scenario.model = planned.meta.model;
    scenario.solver = planned.meta.solver;
    scenario.config = planned.config;
    scenario.request = planned.request;
    CacheTier tier = CacheTier::kNone;
    if (options.use_cache) {
      // Shared compiled solver. A construction failure (structural
      // precondition, e.g. rsd on an absorbing chain) caches nothing and
      // leaves shared_solver null: the fallback below reconstructs per
      // scenario inside the sweep, which records the same error in that
      // scenario's slot — per-scenario isolation identical to the
      // uncached path.
      try {
        scenario.shared_solver = cache.get_or_build(
            planned.model, planned.meta.solver, planned.config, &tier);
      } catch (const std::exception&) {
        tier = CacheTier::kNone;
      }
    }
    // The chain is always advertised (the engine's model-size scheduling
    // heuristic reads it); the data vectors are only copied when the
    // sweep must construct the solver itself.
    scenario.chain = &planned.model->file.chain;
    if (scenario.shared_solver == nullptr) {
      scenario.rewards = planned.model->file.rewards;
      scenario.initial = planned.model->file.initial;
    }
    slice.tiers.push_back(tier);
    batch.scenarios.push_back(std::move(scenario));
  }

  batch.jobs = options.jobs;
  if (pool != nullptr) {
    RRL_EXPECTS(workspaces != nullptr);
    slice.sweep = run_sweep(batch, *pool, *workspaces);
  } else {
    slice.sweep = run_sweep(batch);
  }
  slice.jobs = slice.sweep.jobs;

  // The plan (and the cache entries) pin the models the sweep borrowed
  // chains from; both outlive the returned slice in every caller.
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

std::vector<ReportRow> report_rows(
    const std::vector<StudyScenario>& scenarios, const SweepReport& sweep,
    const std::vector<CacheTier>& tiers,
    const std::vector<std::vector<double>>& grids) {
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
    base.tier =
        cache_tier_name(s < tiers.size() ? tiers[s] : CacheTier::kNone);
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
