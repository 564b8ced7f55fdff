#include "core/compiled_artifact.hpp"

#include "core/transient_solver.hpp"

namespace rrl {

CompiledArtifact export_artifact(const TransientSolver& solver,
                                 std::uint64_t model_hash,
                                 const SolverConfig& config) {
  CompiledArtifact artifact;
  artifact.key = {model_hash, std::string(solver.name()), config};
  solver.export_compiled(artifact);
  return artifact;
}

}  // namespace rrl
