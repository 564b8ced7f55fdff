// The serializable compiled artifact of one (model, solver, config) — the
// compile half of the compile → execute split.
//
// Every solver in this library separates into a deterministic COMPILE step
// (model-derived state that is expensive or repeated: the randomized DTMC
// in CSR gather form for SR/RSD/Krylov, the regenerative schema — and with
// it the V-model and the TRR transform coefficients — for RR/RRL) and a
// cheap EXECUTE step (the per-request sweep over the compiled state). The
// artifact captures exactly the compile half in plain data, so it can be
// handed across process boundaries: serialized by io/artifact_codec,
// persisted by the study subsystem's disk tier (study/artifact_store), and
// re-imported into a freshly constructed solver, which then answers every
// request bit-identically to one that compiled from scratch.
//
// What is stored vs derived: for RR/RRL only the schemas are stored — the
// V_{K,L} model and the transform coefficients are pure deterministic
// functions of a schema (build_vmodel, TrrTransform), so import
// re-materializes them and bit-identity is preserved without shipping the
// redundant bytes. For SR/RSD/Krylov the randomized DTMC (P transposed
// in CSR gather form, self-loops, Lambda) IS the compiled state and is
// stored whole; a warm solver adopts it by move in place of randomizing
// its chain (core/randomized_solver.hpp), and RSD's row-form P for the
// backward pass is re-derived by exact transposition.
//
// Identity: the artifact's SolverKey names the compilation inputs exactly
// — the disk tier refuses artifacts whose key does not equal the requested
// one, so a stale or foreign file degrades to a cache miss, never to a
// wrong answer.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/regenerative.hpp"
#include "core/registry.hpp"
#include "sparse/csr.hpp"

namespace rrl {

/// One memoized (t, eps) schema of a regenerative solver.
struct ArtifactSchemaEntry {
  double t = 0.0;    ///< time horizon the truncation was chosen for
  double eps = 0.0;  ///< total error budget the truncation met
  RegenerativeSchema schema;
};

/// What names one compiled solver: the source model's content hash
/// (study/model_repository.hpp's hash_model; 0 when the producer did not
/// know it), the method's registry name ("sr", "rsd", "rr", "rrl",
/// "krylov", ...) and every construction config field. The solver cache
/// keys its entries by it, the artifact store addresses files by it, an
/// artifact carries it, and a remote worker's fetch asks for it.
struct SolverKey {
  std::uint64_t model_hash = 0;
  std::string solver;
  SolverConfig config;

  [[nodiscard]] auto tie() const {
    return std::tie(model_hash, solver, config.epsilon, config.rate_factor,
                    config.regenerative, config.step_cap);
  }
  [[nodiscard]] friend bool operator==(const SolverKey& a,
                                       const SolverKey& b) {
    return a.tie() == b.tie();
  }
  [[nodiscard]] friend bool operator<(const SolverKey& a,
                                      const SolverKey& b) {
    return a.tie() < b.tie();
  }
};

/// The compiled state of one solver instance, in plain serializable data.
struct CompiledArtifact {
  /// The compilation this artifact holds the compiled state of.
  SolverKey key;

  /// Provenance of a GENERATED model (markov/generator.hpp): the
  /// canonical spec the chain was expanded from, empty for explicit
  /// models. Informational — identity is still the key; hash_model
  /// derives the key's model_hash from this very spec for
  /// generated models, so the content-addressed cache and remote artifact
  /// fetch work unchanged, and the spec here lets an operator read WHAT a
  /// cached blob solves without re-expanding it.
  std::string model_spec;
  /// State count before the generator's lumping pass
  /// (markov/lumping.hpp); -1 when no lumping was applied. Records that
  /// the artifact's (lumped) state space is an exact quotient of a larger
  /// one.
  index_t pre_lump_states = -1;

  /// SR/RSD/Krylov: randomization rate Lambda (0 when the artifact
  /// carries no DTMC payload).
  double lambda = 0.0;
  /// SR/RSD/Krylov: P transposed in CSR gather form (empty otherwise).
  CsrMatrix dtmc_pt;
  /// SR/RSD/Krylov: per-state self-loop probabilities 1 - exit(i)/Lambda.
  std::vector<double> self_loop;

  /// RR/RRL: the memoized schemas, one per (t, eps) horizon solved.
  std::vector<ArtifactSchemaEntry> schemas;

  /// True if the artifact carries any compiled payload worth persisting.
  [[nodiscard]] bool has_payload() const noexcept {
    return lambda > 0.0 || !schemas.empty();
  }
};

/// Export `solver`'s compiled state stamped with the key {model_hash,
/// solver.name(), config}; the payload is whatever the solver's
/// export_compiled() fills in (possibly nothing — see
/// CompiledArtifact::has_payload).
[[nodiscard]] CompiledArtifact export_artifact(const TransientSolver& solver,
                                               std::uint64_t model_hash,
                                               const SolverConfig& config);

}  // namespace rrl
