#include "core/randomized_solver.hpp"

#include <utility>

#include "core/compiled_artifact.hpp"

namespace rrl {

RandomizedSolver::RandomizedSolver(const Ctmc& chain,
                                   std::vector<double> rewards,
                                   std::vector<double> initial,
                                   double epsilon, double rate_factor,
                                   LentPoolUse pooled, bool row_form)
    : TransientSolver(chain, std::move(rewards), std::move(initial),
                      epsilon),
      dtmc_(chain, rate_factor, row_form),
      pooled_(pooled) {}

LentPoolUse RandomizedSolver::lent_pool_use(const SolveRequest&) const {
  return dtmc_.get().transition_transposed().nnz() >=
                 SolveWorkspace::kMinPooledNnz
             ? pooled_
             : LentPoolUse::kNone;
}

void RandomizedSolver::export_compiled(CompiledArtifact& artifact) const {
  const RandomizedDtmc& dtmc = dtmc_.get();
  artifact.lambda = dtmc.lambda();
  artifact.dtmc_pt = dtmc.transition_transposed();
  const auto loops = dtmc.self_loops();
  artifact.self_loop.assign(loops.begin(), loops.end());
}

void RandomizedSolver::import_compiled(CompiledArtifact&& artifact) {
  // A payload not shaped for the chain is adopted as nothing, and the
  // DTMC is built on first use instead (LazyDtmc::adopt).
  (void)dtmc_.adopt(std::move(artifact.dtmc_pt),
                    std::move(artifact.self_loop), artifact.lambda);
}

}  // namespace rrl
