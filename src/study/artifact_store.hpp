// Content-addressed on-disk artifact store — the solver cache's second
// tier.
//
// The in-memory SolverCache shares compiled solvers within one process;
// this store persists their compiled state (core/compiled_artifact.hpp,
// serialized by io/artifact_codec) so the NEXT process starts warm:
// repeated CI studies, every shard of a `--shard k/N` run, and re-runs
// after a crash all skip the schema compilation entirely. Because compile
// and import are deterministic and the codec is bit-exact, a warm run's
// report is byte-for-byte the cold run's report.
//
// Layout: one file per cache key under the store root,
//
//   <root>/<model-hash-hex>/<solver>-<config-hash-hex>.rrla
//
// where the directory is the model's 64-bit content hash (so all
// compilations of one model live together and invalidate together when
// the model changes — a changed model is a NEW address, never an
// overwritten one) and the file name carries the solver plus a hash of
// the exact SolverConfig. The whole SolverKey is ALSO stored inside the
// artifact and compared on load, so hash collisions and hand-copied files
// degrade to misses.
//
// Write discipline: store() serializes to a sibling temp file and
// atomically renames it over the final path — concurrent shards writing
// the same key land one complete file, never a torn one. Load failures of
// any kind (absent, truncated, corrupt, foreign endianness, stale
// identity) are counted and reported as misses; the store never throws on
// the read path and never lets a bad file produce a wrong answer.
//
// Retention: entries are content-addressed, so they never go stale — but
// they also never expire on their own, and a large model fleet's store
// grows without bound. gc() is the explicit sweep (`rrl_solve
// --cache-gc`): it removes leftover temp files (crashed writers) and
// unreadable/foreign entries, and with a byte cap (`--cache-cap`) evicts
// least-recently-USED entries — load() touches an entry's mtime on every
// verified hit, so recency tracks use, not creation — until the surviving
// entries fit. Eviction can only ever cost a future recompile; gc is safe
// to run while a fleet is using the store (a racing load of an evicted
// entry degrades to a miss by design).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/compiled_artifact.hpp"

namespace rrl {

/// Outcome of one gc() sweep.
struct ArtifactGcStats {
  std::size_t scanned = 0;          ///< entries (.rrla files) examined
  std::size_t removed_temp = 0;     ///< leftover writer temp files removed
  std::size_t removed_invalid = 0;  ///< unreadable entries removed
  std::size_t evicted = 0;          ///< valid entries evicted under the cap
  std::uint64_t bytes_before = 0;   ///< valid-entry bytes before eviction
  std::uint64_t bytes_after = 0;    ///< valid-entry bytes after eviction
};

class ArtifactStore {
 public:
  /// A store rooted at `root` (created on first write; a missing root
  /// just means every load misses).
  explicit ArtifactStore(std::string root);

  [[nodiscard]] const std::string& root() const noexcept { return root_; }

  /// The verified artifact for `key`, or nullopt. Never throws: a file
  /// that is absent, unreadable, corrupt, of a foreign format/endianness,
  /// or whose embedded key does not equal `key` is a miss.
  [[nodiscard]] std::optional<CompiledArtifact> load(
      const SolverKey& key) const;

  /// Persist `artifact` under its own key (atomic rename-on-write).
  /// Returns false (and counts nothing) if the artifact has no payload;
  /// filesystem failures are swallowed — the store is a cache, losing a
  /// write costs a future recompile, not correctness.
  bool store(const CompiledArtifact& artifact) const;

  /// The file path a key resolves to (exposed for tests and tooling).
  [[nodiscard]] std::string entry_path(const SolverKey& key) const;

  /// Sweep the store: remove leftover `.tmp*` files and entries that fail
  /// to parse (corrupt, truncated, foreign endianness). With cap_bytes >
  /// 0, additionally evict valid entries in least-recently-used order
  /// (oldest mtime first; load() touches entries on verified hits) until
  /// the remaining bytes are <= cap_bytes — an exactly-full store evicts
  /// nothing. A missing root is an empty sweep. Filesystem errors on
  /// individual files are skipped (the entry is simply retained);
  /// eviction order ties break by path so sweeps are deterministic.
  ArtifactGcStats gc(std::uint64_t cap_bytes = 0) const;

 private:
  std::string root_;
};

}  // namespace rrl
