// The compile half SR, RSD and Krylov share: the randomized DTMC.
//
// All three step P = I + Q/Lambda of the same chain — SR forward
// (pi_0 P^n), RSD backward (P^n r, with P in row form), Krylov through
// A v = Lambda (P^T v - v) — so their compiled state is one object, the
// DTMC, built lazily on first use or adopted from an artifact in place of
// that build (markov/dtmc.hpp's LazyDtmc). RandomizedSolver owns it and
// implements compile, the artifact export/import, lambda() and the lent
// pool rule once; a derived solver names what a lent pool carries of its
// solve when it constructs this base, and keeps only its pass.
#pragma once

#include <vector>

#include "core/transient_solver.hpp"
#include "markov/ctmc.hpp"
#include "markov/dtmc.hpp"

namespace rrl {

class RandomizedSolver : public TransientSolver {
 public:
  /// `pooled` once P's stored entries reach SolveWorkspace::kMinPooledNnz
  /// (below that, pool synchronization costs more than the products).
  [[nodiscard]] LentPoolUse lent_pool_use(const SolveRequest&) const final;

  /// Compile → execute split: the compiled state is the randomized DTMC
  /// (P transposed in CSR gather form, self-loops, Lambda), built on first
  /// use or adopted from an import; RSD's row-form P is derived from it by
  /// exact transposition either way.
  void compile() const final { (void)dtmc_.get(); }
  void export_compiled(CompiledArtifact& artifact) const final;
  void import_compiled(CompiledArtifact&& artifact) final;

  [[nodiscard]] double lambda() const { return dtmc_.get().lambda(); }

 protected:
  /// Preconditions: TransientSolver's and LazyDtmc's (a chain with some
  /// exit rate, rate_factor >= 1). `pooled` is what a lent pool carries of
  /// a solve on a large enough P: its hot loop, or part of it.
  RandomizedSolver(const Ctmc& chain, std::vector<double> rewards,
                   std::vector<double> initial, double epsilon,
                   double rate_factor, LentPoolUse pooled,
                   bool row_form = false);

  LazyDtmc dtmc_;

 private:
  LentPoolUse pooled_;
};

}  // namespace rrl
