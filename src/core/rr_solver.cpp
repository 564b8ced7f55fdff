#include "core/rr_solver.hpp"

#include <algorithm>
#include <utility>

#include "core/compiled_artifact.hpp"
#include "core/standard_randomization.hpp"
#include "core/vmodel.hpp"
#include "support/stopwatch.hpp"

namespace rrl {

RegenerativeRandomization::RegenerativeRandomization(
    const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, index_t regenerative_state,
    RrOptions options)
    : chain_(chain),
      rewards_(std::move(rewards)),
      initial_(std::move(initial)),
      regenerative_(regenerative_state),
      options_(options) {
  RRL_EXPECTS(options_.epsilon > 0.0);
  RRL_EXPECTS(static_cast<index_t>(rewards_.size()) == chain.num_states());
  check_distribution(initial_, chain.num_states());
}

RegenerativeSchema RegenerativeRandomization::schema(double t) const {
  return compute_regenerative_schema(chain_, rewards_, initial_,
                                     regenerative_, t,
                                     schema_options(options_.epsilon));
}

RegenerativeOptions RegenerativeRandomization::schema_options(
    double eps) const {
  RegenerativeOptions opts;
  opts.epsilon = eps;
  opts.rate_factor = options_.rate_factor;
  opts.step_cap = options_.schema_step_cap;
  return opts;
}

std::shared_ptr<const CompiledSchema> RegenerativeRandomization::compiled_for(
    double t, double eps) const {
  const RegenerativeOptions opts = schema_options(eps);
  return schema_cache_.get(
      t, eps, /*want_transform=*/false, /*want_vmodel=*/true,
      [&] {
        return compute_regenerative_schema(chain_, rewards_, initial_,
                                           regenerative_, t, opts);
      },
      [&](const RegenerativeSchema& longer) {
        return truncate_regenerative_schema(longer, t, opts);
      });
}

void RegenerativeRandomization::export_compiled(
    CompiledArtifact& artifact) const {
  for (const SchemaCache::Entry& e : schema_cache_.snapshot()) {
    artifact.schemas.push_back(
        ArtifactSchemaEntry{e.t, e.eps, e.compiled->schema});
  }
}

void RegenerativeRandomization::import_compiled(
    CompiledArtifact&& artifact) {
  for (ArtifactSchemaEntry& e : artifact.schemas) {
    // Structural sanity only (identity matching is the caller's job): a
    // schema for another regenerative state or with an empty series can
    // never be ours.
    if (e.schema.regenerative != regenerative_ || e.schema.main.a.empty()) {
      continue;
    }
    schema_cache_.seed(e.t, e.eps, std::move(e.schema),
                       /*want_transform=*/false, /*want_vmodel=*/true);
  }
}

void RegenerativeRandomization::precompile(
    const SolveRequest& request) const {
  const double eps = validated_epsilon(request, options_.epsilon);
  (void)compiled_for(
      *std::max_element(request.times.begin(), request.times.end()), eps);
}

TransientValue RegenerativeRandomization::trr(double t) const {
  RRL_EXPECTS(t >= 0.0);
  return solve_point(t, MeasureKind::kTrr);
}

TransientValue RegenerativeRandomization::mrr(double t) const {
  RRL_EXPECTS(t > 0.0);
  return solve_point(t, MeasureKind::kMrr);
}

bool RegenerativeRandomization::shares_pass(const SolveRequest& a,
                                            const SolveRequest& b) const {
  if (a.times.empty() || b.times.empty()) return false;
  const auto schema_key = [this](const SolveRequest& r) {
    return std::make_pair(
        r.epsilon > 0.0 ? r.epsilon : options_.epsilon,
        *std::max_element(r.times.begin(), r.times.end()));
  };
  return schema_key(a) == schema_key(b);
}

std::vector<SharedResult> RegenerativeRandomization::solve_shared(
    std::span<const SolveRequest* const> requests,
    SolveWorkspace& workspace) const {
  return solve_in_groups(
      requests, options_.epsilon,
      [&](std::span<const std::size_t> readers, double eps,
          std::span<SharedResult> results) {
        run_pass(requests, readers, eps, results, workspace);
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
  // within budget at every requested time. The compiled artifact (schema +
  // materialized V_{K,L}) is memoized per (t_max, eps), and a new key is
  // cut from the longest memoized series when it fits — repeated sweeps
  // (another grid resolution or eps, the study subsystem's shared
  // solvers) pay the K model-sized steps once.
  const std::vector<double>& lead = requests[readers.front()]->times;
  const auto compiled =
      compiled_for(*std::max_element(lead.begin(), lead.end()), eps);
  const RegenerativeSchema& sch = compiled->schema;
  const VModel& vmodel = *compiled->vmodel;

  // One standard-randomization pass of V_{K,L} serves every grid point of
  // every member, with the remaining eps/2 budget.
  SrOptions sr;
  sr.epsilon = eps / 2.0;
  sr.rate_factor = 1.0;
  sr.step_cap = options_.vmodel_step_cap;
  const StandardRandomization inner(vmodel.chain, vmodel.rewards,
                                    vmodel.initial, sr);
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
      inner.solve_shared(inner_ptrs, workspace);

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
