// Memo for the compiled regenerative artifact of RR/RRL.
//
// The dominant one-time cost of the regenerative methods is the schema —
// K (+ L) model-sized DTMC steps — plus the derived execute-side objects
// assembled from it: the explicit V_{K,L} model for RR and the transform
// evaluator for RRL. All of it depends only on (time horizon, epsilon) for
// a fixed (chain, rewards, initial, regenerative state, options), so a
// solver answering many requests over the same horizon (a batch varying
// measure or grid resolution, the study subsystem's shared solvers)
// recomputes an identical artifact per request. SchemaCache memoizes it.
//
// Correctness contract: entries are keyed by the EXACT (t, eps) pair the
// schema was computed for, never by dominance (a schema for a larger t
// over-covers smaller horizons but is not the artifact a fresh solve would
// build, and results must stay bit-identical to fresh-solver runs). The
// builder is deterministic, so a hit returns bit-identical series, and the
// derived V-model/transform are pure functions of the schema — which is
// also why seed() can re-materialize them from a deserialized schema
// (io/artifact_codec) without breaking bit-identity: warm-starting a
// solver is pre-populating this memo.
//
// Threading: the cache is the only mutable state inside RR/RRL solvers and
// is internally synchronized, preserving the solver layer's share-one-
// instance-across-workers contract. A miss computes OUTSIDE the lock (two
// workers missing the same key may both compute; the first insert wins and
// the loser adopts it — identical by determinism), so concurrent misses on
// different keys never serialize. The store is a small clock-stamped pool
// (capacity entries, least recently used evicted) to bound memory: schemas
// are O(K) series and only a handful of horizons are live in any real
// sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/regenerative.hpp"
#include "core/rrl_transform.hpp"
#include "core/vmodel.hpp"

namespace rrl {

/// The compiled artifact: the schema plus the derived execute-side objects
/// its owner asked for. `vmodel` is null for solvers that never asked for
/// one (RRL), `transform` likewise (RR).
struct CompiledSchema {
  RegenerativeSchema schema;
  std::shared_ptr<const VModel> vmodel;
  std::shared_ptr<const TrrTransform> transform;
};

/// Hit/miss accounting (monotone; read under the cache's own lock).
/// `seeded` counts entries imported from a previously exported artifact
/// (the disk tier's warm-start path) rather than computed here.
struct SchemaCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t seeded = 0;
};

class SchemaCache {
 public:
  /// Default number of entries retained; the least recently used entry is
  /// evicted beyond the capacity.
  static constexpr std::size_t kDefaultCapacity = 8;

  /// A cache holding at most `capacity` entries. Capacity 0 is legal and
  /// degenerates to "always compute": get() builds and returns without
  /// retaining anything (every call a miss), seed() is a no-op.
  explicit SchemaCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// The artifact for exactly (t, eps): a memoized copy when one exists,
  /// otherwise build(t, eps) — invoked without the lock held — inserted
  /// under the key. `want_transform` / `want_vmodel` additionally
  /// guarantee the respective derived object is non-null on the returned
  /// artifact (callers of one cache always pass the same values: RR wants
  /// the V-model, RRL wants the transform).
  [[nodiscard]] std::shared_ptr<const CompiledSchema> get(
      double t, double eps, bool want_transform, bool want_vmodel,
      const std::function<RegenerativeSchema()>& build) const;

  /// Pre-populate the (t, eps) entry from an already computed schema (the
  /// artifact import path); the requested derived objects are
  /// re-materialized from it. An existing entry for the key is kept as is
  /// (it is bit-identical by determinism). Counts in stats().seeded, not
  /// as a hit or miss.
  void seed(double t, double eps, RegenerativeSchema schema,
            bool want_transform, bool want_vmodel) const;

  /// One retained entry, for artifact export.
  struct Entry {
    double t = 0.0;
    double eps = 0.0;
    std::shared_ptr<const CompiledSchema> compiled;
  };
  /// The current entries in increasing (t, eps) order: which entries a
  /// cache holds depends on its call history, but the order they are
  /// exported in does not, so equal contents write byte-identical
  /// artifacts however concurrent workers interleaved their calls.
  [[nodiscard]] std::vector<Entry> snapshot() const;

  [[nodiscard]] SchemaCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;

 private:
  struct Slot {
    double t = 0.0;
    double eps = 0.0;
    std::shared_ptr<const CompiledSchema> compiled;
    std::uint64_t last_used = 0;
  };

  /// Materialize the derived objects the caller asked for (outside the
  /// lock; pure function of the schema).
  [[nodiscard]] static std::shared_ptr<CompiledSchema> compile(
      RegenerativeSchema schema, bool want_transform, bool want_vmodel);
  [[nodiscard]] static bool satisfies(const CompiledSchema& compiled,
                                      bool want_transform, bool want_vmodel);
  /// Insert under the lock, evicting the least recently used slot when at
  /// capacity. Caller must hold mutex_.
  void insert(double t, double eps,
              std::shared_ptr<const CompiledSchema> compiled) const;

  std::size_t capacity_ = kDefaultCapacity;
  mutable std::mutex mutex_;
  mutable std::vector<Slot> slots_;
  mutable std::uint64_t clock_ = 0;
  mutable SchemaCacheStats stats_;
};

}  // namespace rrl
