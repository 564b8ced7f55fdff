#include "core/regenerative_solver.hpp"

#include <algorithm>
#include <utility>

#include "core/compiled_artifact.hpp"

namespace rrl {

RegenerativeSolver::RegenerativeSolver(const Ctmc& chain,
                                       std::vector<double> rewards,
                                       std::vector<double> initial,
                                       index_t regenerative_state,
                                       const RegenerativeOptions& options,
                                       SchemaCache::Derive derive)
    : TransientSolver(chain, std::move(rewards), std::move(initial),
                      options.epsilon),
      regenerative_(regenerative_state),
      schema_options_(options),
      schema_cache_(std::move(derive)) {}

RegenerativeSchema RegenerativeSolver::schema(double t) const {
  return compute_regenerative_schema(chain_, rewards_, initial_,
                                     regenerative_, t, schema_options_);
}

std::shared_ptr<const CompiledSchema> RegenerativeSolver::compiled_for(
    double t, double eps) const {
  RegenerativeOptions opts = schema_options_;
  opts.epsilon = eps;
  return schema_cache_.get(
      t, eps,
      [&] {
        return compute_regenerative_schema(chain_, rewards_, initial_,
                                           regenerative_, t, opts);
      },
      [&](const RegenerativeSchema& longer) {
        return truncate_regenerative_schema(longer, t, opts);
      });
}

void RegenerativeSolver::precompile(const SolveRequest& request) const {
  const double eps = validated_epsilon(request);
  const double t_max = std::ranges::max(request.times);
  if (needs_schema(t_max)) (void)compiled_for(t_max, eps);
}

void RegenerativeSolver::export_compiled(CompiledArtifact& artifact) const {
  for (const SchemaCache::Entry& e : schema_cache_.snapshot()) {
    artifact.schemas.push_back(
        ArtifactSchemaEntry{e.t, e.eps, e.compiled->schema});
  }
}

void RegenerativeSolver::import_compiled(CompiledArtifact&& artifact) {
  for (ArtifactSchemaEntry& e : artifact.schemas) {
    // Structural sanity only (identity matching is the caller's job): a
    // schema for another regenerative state or with an empty series can
    // never be ours.
    if (e.schema.regenerative != regenerative_ || e.schema.main.a.empty()) {
      continue;
    }
    schema_cache_.seed(e.t, e.eps, std::move(e.schema));
  }
}

}  // namespace rrl
