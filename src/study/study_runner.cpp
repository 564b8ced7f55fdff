#include "study/study_runner.hpp"

namespace rrl {

std::vector<ReportRow> StudyRun::rows() const {
  return report_rows(scenarios, sweep, tiers, grids);
}

StudyRun run_study(const StudySpec& spec, ModelRepository& repository,
                   SolverCache& cache, const StudyOptions& options) {
  if (!options.shard.valid()) {
    throw contract_error("invalid shard " +
                         std::to_string(options.shard.index) + "/" +
                         std::to_string(options.shard.count) +
                         " (expected 1 <= k <= N)");
  }

  const StudyPlan plan = build_study_plan(spec, repository);

  // Round-robin slice: shard k of N owns every index % N == k-1.
  const auto shard_count = static_cast<std::uint64_t>(options.shard.count);
  const auto shard_slot = static_cast<std::uint64_t>(options.shard.index - 1);
  std::vector<std::size_t> positions;
  positions.reserve(plan.scenarios.size() / shard_count + 1);
  for (std::size_t i = shard_slot; i < plan.scenarios.size();
       i += shard_count) {
    positions.push_back(i);
  }

  ExecOptions exec;
  exec.jobs = options.jobs > 0 ? options.jobs : spec.jobs;
  exec.use_cache = options.use_cache;
  ExecutedSlice slice = execute_scenarios(plan, positions, cache, exec);

  StudyRun run;
  run.scenarios = std::move(slice.scenarios);
  run.sweep = std::move(slice.sweep);
  run.tiers = std::move(slice.tiers);
  run.grids = plan.grids;
  run.total_scenarios = plan.total_scenarios;
  run.shard = options.shard;
  run.jobs = slice.jobs;
  return run;
}

}  // namespace rrl
