#include "study/solver_cache.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/compiled_artifact.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

// Unified cache-tier namespace: every tier of the two-tier + fetcher
// stack reports under rrl_cache_* so the Prometheus view (and the fleet
// merge) reads as one funnel instead of three ad-hoc stat structs.
struct CacheCounters {
  metrics::Counter& mem_hits = metrics::counter("rrl_cache_memory_hits_total");
  metrics::Counter& mem_misses =
      metrics::counter("rrl_cache_memory_misses_total");
  metrics::Counter& disk_hits = metrics::counter("rrl_cache_disk_hits_total");
  metrics::Counter& disk_misses =
      metrics::counter("rrl_cache_disk_misses_total");
  metrics::Counter& disk_stores =
      metrics::counter("rrl_cache_disk_stores_total");
  metrics::Counter& fetch_hits =
      metrics::counter("rrl_cache_fetch_hits_total");
  metrics::Counter& fetch_misses =
      metrics::counter("rrl_cache_fetch_misses_total");
  metrics::Counter& compiles = metrics::counter("rrl_solver_compiles_total");
};

CacheCounters& cache_counters() {
  static CacheCounters c;
  return c;
}

/// The artifact's (t, eps) schema keys, sorted — the flush-time "is the
/// disk already current" comparison (empty for a DTMC payload, which
/// flush_to_store never rewrites).
std::vector<std::pair<double, double>> schema_keys(
    const CompiledArtifact& artifact) {
  std::vector<std::pair<double, double>> keys;
  keys.reserve(artifact.schemas.size());
  for (const ArtifactSchemaEntry& e : artifact.schemas) {
    keys.emplace_back(e.t, e.eps);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::shared_ptr<const TransientSolver> SolverCache::get_or_build(
    const std::shared_ptr<const StudyModel>& model,
    const std::string& solver_name, SolverConfig config, CacheTier* tier) {
  RRL_EXPECTS(model != nullptr);
  // The config is keyed EXACTLY as given — in particular regenerative = -1
  // (auto) stays -1, constructing through the registry's deterministic
  // auto-selection just like the uncached per-scenario path, so cached and
  // fresh results cannot diverge. Callers that mean "use the model file's
  // hint" resolve that sentinel themselves (the study runner and the CLI
  // both do, via the file's hint / io-layer resolved_config), which also
  // makes "hint spelled out" and "hint from the file" key identically.

  SolverKey key{model->hash, solver_name, config};

  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    cache_counters().mem_hits.add(1);
    if (tier != nullptr) *tier = CacheTier::kMemory;
    return it->second.solver;
  }
  const auto failed = failures_.find(key);
  if (failed != failures_.end()) std::rethrow_exception(failed->second);
  cache_counters().mem_misses.add(1);
  // Memory miss: consult the disk tier first (when attached and not in
  // cold mode) so a verified artifact can warm-start the construction.
  std::optional<CompiledArtifact> artifact;
  CacheTier resolved = CacheTier::kCompiled;
  if (store_ != nullptr && read_disk_) {
    artifact = store_->load(key);
    if (artifact.has_value()) {
      resolved = CacheTier::kDisk;
      cache_counters().disk_hits.add(1);
    } else {
      cache_counters().disk_misses.add(1);
    }
  }
  // Disk miss (or no disk): the fetcher hook is the last warm source —
  // a remote worker pulling the artifact from its parent's store over
  // the wire. nullopt degrades to a cold compile, never an error.
  if (!artifact.has_value() && fetcher_) {
    artifact = fetcher_(key);
    if (artifact.has_value()) {
      resolved = CacheTier::kFetched;
      cache_counters().fetch_hits.add(1);
    } else {
      cache_counters().fetch_misses.add(1);
    }
  }
  // Build under the lock: construction either throws (the failure is
  // recorded under the key) or yields the immutable shared instance. The
  // solver borrows the model's chain, which the entry pins alongside it.
  // The artifact import is part of construction — it must precede any
  // sharing across threads — and hands the artifact over, so a DTMC
  // payload is adopted, not copied.
  std::unique_ptr<TransientSolver> built;
  Entry entry{model, nullptr, false, {}};
  {
    const trace::Span span(artifact.has_value() ? "solver.import"
                                                : "solver.compile");
    try {
      built = make_solver(solver_name, model->file.chain,
                          model->file.rewards, model->file.initial, config);
    } catch (...) {
      failures_.emplace(std::move(key), std::current_exception());
      throw;
    }
    if (artifact.has_value()) {
      entry.imported = true;
      entry.imported_keys = schema_keys(*artifact);
      built->import_compiled(std::move(*artifact));
    } else {
      built->compile();
      cache_counters().compiles.add(1);
    }
  }
  std::shared_ptr<const TransientSolver> solver = std::move(built);
  if (tier != nullptr) *tier = resolved;
  entry.solver = solver;
  entries_.emplace(std::move(key), std::move(entry));
  return solver;
}

void SolverCache::attach_store(std::shared_ptr<const ArtifactStore> store,
                               bool read) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
  read_disk_ = read;
}

void SolverCache::set_fetcher(ArtifactFetcher fetcher) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fetcher_ = std::move(fetcher);
}

std::size_t SolverCache::flush_to_store() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (store_ == nullptr) return 0;
  std::size_t written = 0;
  for (const auto& [key, entry] : entries_) {
    // A warm-started entry whose artifact carried no schemas holds a DTMC
    // payload (SR, RSD, Krylov): a pure function of the model and config
    // that never grows after import, so the disk copy is current. Decided
    // before exporting, which would copy the whole DTMC to discard it.
    if (entry.imported && entry.imported_keys.empty()) continue;
    // Keyed under the REGISTRY name from the cache key (a custom-registered
    // factory may wrap a class whose name() differs), so store and load
    // address the same file.
    CompiledArtifact artifact;
    artifact.key = key;
    // Generated-model provenance rides along (informational — identity
    // stays the key; for generated models the hash IS the spec hash, so
    // the stored spec names the blob's content readably).
    artifact.model_spec = entry.model->file.spec_key;
    artifact.pre_lump_states = entry.model->file.pre_lump_states;
    entry.solver->export_compiled(artifact);
    // A warm-started entry whose compiled state holds nothing beyond what
    // the disk already has (schema keys a subset of the imported ones;
    // the series under a key are deterministic) has nothing new to
    // publish — a fully warm N-shard run rewrites nothing. Note subset,
    // not equality: when a solver memoizes more horizons than its
    // SchemaCache retains, each run holds a capacity-limited selection of
    // the disk's keys, and equality would re-publish a shrunken artifact
    // forever.
    const std::vector<std::pair<double, double>> exported_keys =
        schema_keys(artifact);
    if (entry.imported &&
        std::includes(entry.imported_keys.begin(),
                      entry.imported_keys.end(), exported_keys.begin(),
                      exported_keys.end())) {
      continue;
    }
    // Publishing genuinely new schemas: keep the disk's horizons this
    // run's capacity-limited memo no longer holds, so the stored artifact
    // only ever grows toward the study's full horizon set instead of
    // oscillating between subsets.
    if (entry.imported) {
      const auto on_disk = store_->load(key);
      if (on_disk.has_value()) {
        for (const ArtifactSchemaEntry& e : on_disk->schemas) {
          const std::pair<double, double> k{e.t, e.eps};
          if (!std::binary_search(exported_keys.begin(),
                                  exported_keys.end(), k)) {
            artifact.schemas.push_back(e);
          }
        }
      }
    }
    if (store_->store(artifact)) {
      ++written;
      cache_counters().disk_stores.add(1);
    }
  }
  return written;
}

std::size_t SolverCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace rrl
