#include "core/compiled_artifact.hpp"

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
