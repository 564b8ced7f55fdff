// Model-keyed solver cache (the heart of the study subsystem).
//
// The regenerative methods pay a substantial one-time cost per model —
// regenerative-state selection, randomized-DTMC construction, and (per
// horizon, memoized inside RR/RRL) the schema — that the single-shot sweep
// engine rebuilt for every scenario. The cache shares ONE immutable
// compiled solver across all scenarios keyed to the same SolverKey
// (model content hash, solver name, SolverConfig;
// core/compiled_artifact.hpp): solvers are safe to
// drive from concurrent workers as long as each worker brings its own
// SolveWorkspace, which the sweep engine guarantees, so sharing the
// instance is free — and because solver construction and solve_grid() are
// deterministic, batch results through cached solvers are bit-identical to
// per-scenario fresh-solver runs.
//
// Epsilon note: scenarios that differ only in their error target SHOULD
// share a solver — SolveRequest::epsilon overrides the constructed default
// in every method — so callers maximize sharing by constructing with one
// canonical config.epsilon (the study runner uses the study's tightest)
// and carrying the per-scenario epsilon in the request.
//
// Failures: a key whose construction throws (rsd on an absorbing chain)
// is recorded with its error; every later lookup rethrows it without a
// second construction, so a failing key costs one build however many
// scenarios name it.
//
// Disk tier: attach_store() adds a second, cross-process tier
// (study/artifact_store.hpp). A memory miss then first consults the store
// — a verified artifact warm-starts the freshly constructed solver via
// import_compiled(), skipping the schema compilation — and
// flush_to_store() persists every entry's compiled state after a run, so
// the next process (a repeat study, the other shards of a --shard k/N
// run) starts warm. Warm-started solvers answer bit-identically to cold
// ones, so the tier is invisible in results.
//
// Each cache entry pins the StudyModel it was compiled from, so a cached
// solver's borrowed chain stays alive as long as the entry does.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "study/artifact_store.hpp"
#include "study/model_repository.hpp"

namespace rrl {

/// Where a resolved solver came from — the provenance get_or_build reports
/// per lookup (and the study report's `cache_tier` column under
/// --timings, where stragglers caused by cold compiles become visible).
enum class CacheTier {
  kNone,      ///< no solver from the cache: no-cache mode, or a key
              ///< whose construction failed
  kMemory,    ///< shared an already-compiled in-memory solver
  kDisk,      ///< memory miss warm-started from the disk artifact tier
  kFetched,   ///< memory+disk miss warm-started through the fetcher hook
              ///< (a remote worker pulling from the parent's store)
  kCompiled,  ///< memory miss compiled cold
};

/// Compact spelling for report rows:
/// "none" | "mem" | "disk" | "fetch" | "cold".
[[nodiscard]] constexpr const char* cache_tier_name(CacheTier tier) noexcept {
  switch (tier) {
    case CacheTier::kMemory:
      return "mem";
    case CacheTier::kDisk:
      return "disk";
    case CacheTier::kFetched:
      return "fetch";
    case CacheTier::kCompiled:
      return "cold";
    case CacheTier::kNone:
    default:
      return "none";
  }
}

/// A last-chance artifact source consulted after memory and disk both
/// miss (remote workers wire this to an artifact_request round trip with
/// the parent). Returning nullopt means "not available, compile cold" —
/// a counted miss, never an error. Called under the cache lock, so a
/// fetcher must not re-enter the cache.
using ArtifactFetcher =
    std::function<std::optional<CompiledArtifact>(const SolverKey&)>;

class SolverCache {
 public:
  /// The shared solver for (model, solver_name, config), built on first
  /// use. The config participates in the key exactly as given —
  /// regenerative = -1 (auto) is its own key and constructs through the
  /// registry's deterministic auto-selection, identically to the uncached
  /// path; callers meaning "the model file's hint" resolve that
  /// themselves first (see io/model_solver.hpp's resolved_config).
  /// A construction error (unknown solver, structural precondition) is
  /// recorded under the key and thrown to the caller; every later lookup
  /// of the key rethrows it without a second construction and counts no
  /// hit or miss. Thread-safe; a miss builds under the lock (the study
  /// runner resolves scenarios serially before fanning out, so misses
  /// are never on a hot concurrent path). When `tier` is non-null it
  /// receives the lookup's provenance (memory share / disk warm-start /
  /// cold compile); untouched on throw.
  [[nodiscard]] std::shared_ptr<const TransientSolver> get_or_build(
      const std::shared_ptr<const StudyModel>& model,
      const std::string& solver_name, SolverConfig config,
      CacheTier* tier = nullptr);

  /// Attach the cross-process disk tier. `read` = false ("cold" mode)
  /// skips disk loads but keeps flush_to_store() writing, refreshing the
  /// store from a from-scratch compile. Call before the first
  /// get_or_build; the store must outlive the cache's use of it.
  void attach_store(std::shared_ptr<const ArtifactStore> store,
                    bool read = true);

  /// Install the last-chance artifact source (see ArtifactFetcher).
  /// Consulted on a memory+disk double miss, before the cold compile;
  /// a fetched artifact warm-starts construction exactly like a disk hit
  /// and is marked imported, so flush_to_store treats it as disk-current.
  /// Call before the first get_or_build.
  void set_fetcher(ArtifactFetcher fetcher);

  /// Export every entry's compiled state to the attached store (no-op
  /// without one). Called after a run so the artifacts include whatever
  /// schemas the sweep actually computed. Returns the number of artifacts
  /// written.
  std::size_t flush_to_store();

  /// Number of compiled solvers held.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const StudyModel> model;  ///< keeps the chain alive
    std::shared_ptr<const TransientSolver> solver;
    /// Disk-tier provenance: set when the entry was warm-started, with
    /// the (t, eps) schema keys the imported artifact carried (sorted).
    /// flush_to_store skips entries whose compiled state is still exactly
    /// what the disk already holds — a fully warm N-shard run then
    /// rewrites nothing.
    bool imported = false;
    std::vector<std::pair<double, double>> imported_keys;
  };

  mutable std::mutex mutex_;
  std::map<SolverKey, Entry> entries_;
  /// Keys whose construction threw, with what it threw.
  std::map<SolverKey, std::exception_ptr> failures_;
  std::shared_ptr<const ArtifactStore> store_;
  bool read_disk_ = true;
  ArtifactFetcher fetcher_;
};

}  // namespace rrl
