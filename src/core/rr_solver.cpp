#include "core/rr_solver.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "support/stopwatch.hpp"

namespace rrl {

VModelPass::VModelPass(const RegenerativeSchema& schema,
                       std::int64_t step_cap)
    : model(build_vmodel(schema)),
      sr(model.chain, model.rewards, model.initial,
         SrOptions{.rate_factor = 1.0, .step_cap = step_cap}) {}

RegenerativeRandomization::RegenerativeRandomization(
    const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, index_t regenerative_state,
    RrOptions options)
    : RegenerativeSolver(
          chain, std::move(rewards), std::move(initial), regenerative_state,
          {options.epsilon, options.rate_factor, options.schema_step_cap},
          [cap = options.vmodel_step_cap](CompiledSchema& compiled) {
            compiled.vmodel =
                std::make_shared<const VModelPass>(compiled.schema, cap);
          }) {}

bool RegenerativeRandomization::shares_pass(const SolveRequest& a,
                                            const SolveRequest& b) const {
  if (a.times.empty() || b.times.empty()) return false;
  return effective_epsilon(a) == effective_epsilon(b) &&
         std::ranges::max(a.times) == std::ranges::max(b.times);
}

std::vector<SharedResult> RegenerativeRandomization::solve_shared(
    std::span<const SolveRequest* const> requests,
    SolveWorkspace& workspace) const {
  return solve_in_groups(requests, [&](auto readers, double eps, auto out) {
    run_pass(requests, readers, eps, out, workspace);
  });
}

void RegenerativeRandomization::run_pass(
    std::span<const SolveRequest* const> requests,
    std::span<const std::size_t> readers, double eps,
    std::span<SharedResult> results, SolveWorkspace& workspace) const {
  const Stopwatch watch;

  // One schema for the whole group, computed at the largest time: for
  // t < t_max the truncation bound at K(t_max) is only smaller
  // (E[(N(Lambda t) - K)^+] decreases in K), so the longer series stays
  // within budget at every requested time. The compiled artifact (schema,
  // V_{K,L} and V's randomization) is memoized per (t_max, eps), and a new
  // key is cut from the longest memoized series when it fits — repeated
  // sweeps (another grid resolution or eps, the study subsystem's shared
  // solvers) pay the K model-sized steps and V's randomization once.
  const auto compiled =
      compiled_for(std::ranges::max(requests[readers.front()]->times), eps);
  const RegenerativeSchema& sch = compiled->schema;

  // One standard-randomization pass of V_{K,L} serves every grid point of
  // every member, with the remaining eps/2 budget.
  std::vector<SolveRequest> inner_requests;
  inner_requests.reserve(readers.size());
  for (const std::size_t k : readers) {
    inner_requests.push_back(*requests[k]);
    inner_requests.back().epsilon = eps / 2.0;
  }
  std::vector<const SolveRequest*> inner_ptrs;
  inner_ptrs.reserve(readers.size());
  for (const SolveRequest& r : inner_requests) inner_ptrs.push_back(&r);
  // The V-model is (much) smaller than X, so reusing the caller's buffers
  // just resizes them down for the inner pass.
  std::vector<SharedResult> inner_results =
      compiled->vmodel->sr.solve_shared(inner_ptrs, workspace);

  // The schema's steps on every point; the V-pass steps as vmodel_steps.
  const auto rr_stats = [&sch](const SolverStats& v) {
    SolverStats stats;
    stats.dtmc_steps = sch.dtmc_steps();
    stats.vmodel_steps = v.dtmc_steps;
    stats.lambda = sch.lambda;
    stats.capped = sch.capped || v.capped;
    return stats;
  };
  for (std::size_t j = 0; j < readers.size(); ++j) {
    SharedResult& result = results[readers[j]];
    if (inner_results[j].error) {
      result.error = inner_results[j].error;
      continue;
    }
    const SolveReport& inner_report = inner_results[j].report;
    SolveReport& report = result.report;
    report.points.resize(inner_report.points.size());
    for (std::size_t i = 0; i < report.points.size(); ++i) {
      report.points[i].value = inner_report.points[i].value;
      report.points[i].stats = rr_stats(inner_report.points[i].stats);
    }
    report.total = rr_stats(inner_report.total);
  }
  const double seconds = watch.seconds();
  for (const std::size_t k : readers) results[k].report.total.seconds = seconds;
}

}  // namespace rrl
