#include "core/compiled_artifact.hpp"

#include <utility>

#include "core/transient_solver.hpp"

namespace rrl {

CompiledArtifact export_artifact(const TransientSolver& solver,
                                 std::uint64_t model_hash,
                                 const SolverConfig& config) {
  CompiledArtifact artifact;
  artifact.solver = std::string(solver.name());
  artifact.model_hash = model_hash;
  artifact.config = config;
  solver.export_compiled(artifact);
  return artifact;
}

void export_dtmc(const RandomizedDtmc& dtmc, CompiledArtifact& artifact) {
  artifact.lambda = dtmc.lambda();
  artifact.dtmc_pt = dtmc.transition_transposed();
  const auto loops = dtmc.self_loops();
  artifact.self_loop.assign(loops.begin(), loops.end());
}

void import_dtmc(CompiledArtifact& artifact, LazyDtmc& dtmc) {
  (void)dtmc.adopt(std::move(artifact.dtmc_pt),
                   std::move(artifact.self_loop), artifact.lambda);
}

bool artifact_matches(const CompiledArtifact& artifact,
                      const std::string& solver, std::uint64_t model_hash,
                      const SolverConfig& config) {
  return artifact.solver == solver && artifact.model_hash == model_hash &&
         artifact.config.epsilon == config.epsilon &&
         artifact.config.rate_factor == config.rate_factor &&
         artifact.config.regenerative == config.regenerative &&
         artifact.config.step_cap == config.step_cap;
}

}  // namespace rrl
