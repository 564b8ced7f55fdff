// The compile half RR and RRL share.
//
// Both regenerative methods step the same K (+ L) excursion series of the
// randomized chain (the paper's Section 2) and differ only in how they
// read the resulting schema: RR randomizes the explicit V_{K,L}, RRL
// inverts its closed-form transform. RegenerativeSolver owns what that
// shared half needs beyond the rewarded chain — the regenerative state,
// schema options and the (t, eps)-keyed memo (core/schema_cache) — and
// implements the memoized build-or-cut lookup, precompile and the
// artifact export/import once. A derived solver names the one object it
// derives from each schema when it constructs this base, and keeps only
// its execute half.
#pragma once

#include <memory>
#include <vector>

#include "core/regenerative.hpp"
#include "core/schema_cache.hpp"
#include "core/transient_solver.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

class RegenerativeSolver : public TransientSolver {
 public:
  /// Memoizes the schema solve_grid(request) runs on.
  void precompile(const SolveRequest& request) const override;

  /// Compile → execute split: the compiled state is the memoized
  /// (t, eps)-keyed schemas; each schema's derived object is re-derived
  /// deterministically on import.
  void export_compiled(CompiledArtifact& artifact) const override;
  void import_compiled(CompiledArtifact&& artifact) override;

  /// The schema computed for time horizon t at the constructed eps, not
  /// memoized (exposed for analysis and the ablation benches).
  [[nodiscard]] RegenerativeSchema schema(double t) const;

  /// The compiled artifact (schema + derived object) for horizon t at
  /// error budget eps, through the memo: a memoized copy, a cut from the
  /// longest memoized series, or a fresh build — the compile step of every
  /// solve, public for analysis and tests.
  [[nodiscard]] std::shared_ptr<const CompiledSchema> compiled_for(
      double t, double eps) const;

 protected:
  /// Preconditions: TransientSolver's; paper structure (S strongly
  /// connected, f_i absorbing); `regenerative_state` in S; no initial mass
  /// on absorbing states. Every artifact of the memo carries what `derive`
  /// sets on it.
  RegenerativeSolver(const Ctmc& chain, std::vector<double> rewards,
                     std::vector<double> initial, index_t regenerative_state,
                     const RegenerativeOptions& options,
                     SchemaCache::Derive derive);

  /// Whether solve_grid needs a schema for a request whose largest time
  /// is t_max (precompile builds nothing otherwise).
  [[nodiscard]] virtual bool needs_schema(double /*t_max*/) const {
    return true;
  }

  index_t regenerative_;

 private:
  RegenerativeOptions schema_options_;
  // Internally synchronized, so the solver remains shareable across
  // concurrent solve_grid() calls.
  SchemaCache schema_cache_;
};

}  // namespace rrl
