#include "study/study_runner.hpp"

namespace rrl {

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
  return {execute_scenarios(plan, positions, cache, exec),
          plan.total_scenarios, options.shard};
}

}  // namespace rrl
