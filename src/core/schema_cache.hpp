// Memo for the compiled regenerative artifact of RR/RRL.
//
// The dominant one-time cost of the regenerative methods is the schema —
// K (+ L) model-sized DTMC steps — plus the one execute-side object its
// solver derives from it: RR's V_{K,L} pass, RRL's transform evaluator.
// All of it depends only on (time horizon, epsilon) for a fixed (chain,
// rewards, initial, regenerative state, options), so a solver answering
// many requests over the same horizon (a batch varying measure or grid
// resolution, the study subsystem's shared solvers) recomputes an
// identical artifact per request. SchemaCache memoizes it. Which object
// is derived is fixed when the memo is constructed: every artifact of one
// memo carries the same kind.
//
// One series per solver. Entries are keyed by the exact (t, eps) pair a
// schema was requested for, and a hit returns that key's artifact. The
// excursion series themselves depend on neither t nor eps — only the index
// the truncation rule stops them at does — so a looser key's schema is a
// prefix of a tighter key's, bit for bit. An exact-key miss therefore first
// tries to CUT the key from the longest retained entry (the caller's cut
// function, truncate_regenerative_schema for RR/RRL) and steps the chain
// only when that entry stops too early. Either way the stored artifact is
// the one a fresh solver would build, so results and exported artifacts
// stay bit-identical to fresh-solver runs. The derived object is a pure
// function of the schema — which is also why seed() can re-materialize it
// from a deserialized schema (io/artifact_codec) without breaking
// bit-identity: warm-starting a solver is pre-populating this memo.
//
// Threading: the memo is the only mutable state inside RR/RRL solvers and
// is internally synchronized, preserving the solver layer's share-one-
// instance-across-workers contract. Materializing is single-flight per
// memo: one miss at a time builds or cuts, outside the lock, and a miss
// arriving meanwhile waits for it to land and then looks again for a hit
// or a cut. N workers missing one key step it once, and a worker behind a
// longer build cuts from it instead of stepping its own. Different solvers'
// memos never wait on each other; callers hand out each solver's most
// demanding request first (LeaderSchedule) so the others cut. The store
// holds kCapacity entries, the least recently used evicted beyond that, to
// bound memory: schemas are O(K) series and only a handful of horizons are
// live in any real sweep. Hits, builds, cuts and seeds are counted by the
// process-wide rrl_cache_schema_* metrics (support/metrics.hpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/regenerative.hpp"

namespace rrl {

class TrrTransform;  // core/rrl_transform.hpp
struct VModelPass;   // core/rr_solver.hpp

/// The compiled artifact: the schema plus the execute-side object its
/// memo derives from it — `vmodel` in RR's memo, `transform` in RRL's; the
/// other one (both, in a memo that derives nothing) stays null.
struct CompiledSchema {
  RegenerativeSchema schema;
  std::shared_ptr<const VModelPass> vmodel;
  std::shared_ptr<const TrrTransform> transform;
};

class SchemaCache {
 public:
  /// Steps the chain for the requested key.
  using Builder = std::function<RegenerativeSchema()>;
  /// Cuts the requested key from a longer schema; nullopt if it stops
  /// first.
  using Cutter = std::function<std::optional<RegenerativeSchema>(
      const RegenerativeSchema& longer)>;
  /// Sets the derived object on an artifact whose schema is in place; a
  /// pure function of that schema.
  using Derive = std::function<void(CompiledSchema& compiled)>;

  /// Entries retained; the least recently used entry is evicted beyond
  /// this.
  static constexpr std::size_t kCapacity = 8;

  /// A memo whose artifacts carry what `derive` sets (the schema alone
  /// when it is empty).
  explicit SchemaCache(Derive derive = {}) : derive_(std::move(derive)) {}

  /// The artifact for exactly (t, eps): a memoized copy when one exists,
  /// otherwise cut(longest retained schema) or, when that is nullopt or
  /// `cut` is empty, build() — invoked without the lock held, one miss at
  /// a time — inserted under the key.
  [[nodiscard]] std::shared_ptr<const CompiledSchema> get(
      double t, double eps, const Builder& build,
      const Cutter& cut = {}) const;

  /// Pre-populate the (t, eps) entry from an already computed schema (the
  /// artifact import path); the derived object is re-materialized from
  /// it. An existing entry for the key is kept as is (it is bit-identical
  /// by determinism) and not counted as seeded.
  void seed(double t, double eps, RegenerativeSchema schema) const;

  /// One retained entry, for artifact export.
  struct Entry {
    double t = 0.0;
    double eps = 0.0;
    std::shared_ptr<const CompiledSchema> compiled;
  };
  /// The current entries in increasing (t, eps) order: which entries a
  /// memo holds depends on its call history, but the order they are
  /// exported in does not, so equal contents write byte-identical
  /// artifacts however concurrent workers interleaved their calls.
  [[nodiscard]] std::vector<Entry> snapshot() const;

 private:
  struct Slot {
    double t = 0.0;
    double eps = 0.0;
    std::shared_ptr<const CompiledSchema> compiled;
    std::uint64_t last_used = 0;
  };

  /// Wrap a schema with its derived object (outside the lock).
  [[nodiscard]] std::shared_ptr<const CompiledSchema> compile(
      RegenerativeSchema schema) const;
  /// The slot holding exactly (t, eps), or null. Caller must hold mutex_.
  [[nodiscard]] Slot* find(double t, double eps) const;
  /// Insert under the lock, evicting the least recently used slot when
  /// full. Caller must hold mutex_ and have found no slot for the key.
  void insert(double t, double eps,
              std::shared_ptr<const CompiledSchema> compiled) const;

  Derive derive_;
  mutable std::mutex mutex_;
  /// Signalled when an in-flight build lands (or fails).
  mutable std::condition_variable landed_;
  mutable bool building_ = false;
  mutable std::vector<Slot> slots_;
  mutable std::uint64_t clock_ = 0;
};

/// One iteration of a parallel loop that compiles through shared solvers:
/// the solver it compiles on (null when it shares none), its request's
/// effective eps and largest time, and the solver's chain size.
struct CompileDemand {
  const void* solver = nullptr;
  double eps = 0.0;
  double t_max = 0.0;
  index_t states = 0;
};

/// Leaders-first hand-out for such a loop. Each shared solver's most
/// demanding iteration — its leader: smallest eps, then largest t_max, then
/// lowest index — is handed out first, the leaders of larger chains first;
/// everything else follows in index order. A follower runs its compile
/// step only once its solver's leader has run, so the leader steps the
/// longest series and the followers cut theirs from it (SchemaCache::get)
/// instead of racing it to the memo. Different solvers' leaders compile
/// side by side. No wait can deadlock: every leader is handed out before
/// its followers and never waits itself.
class LeaderSchedule {
 public:
  explicit LeaderSchedule(std::span<const CompileDemand> demands);

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  /// The iteration handed out k-th.
  [[nodiscard]] std::size_t operator[](std::size_t k) const {
    return order_[k];
  }

  /// Run iteration i's compile step: a follower first waits for its
  /// leader; a leader releases its followers once `step` returns or
  /// throws.
  template <typename Step>
  void run(std::size_t i, Step&& step) const {
    wait_for_leader(i);
    try {
      step();
    } catch (...) {
      release_followers(i);
      throw;
    }
    release_followers(i);
  }

 private:
  static constexpr std::size_t kNoLeader = static_cast<std::size_t>(-1);

  void wait_for_leader(std::size_t i) const;
  void release_followers(std::size_t i) const;

  std::vector<std::size_t> order_;
  /// Per iteration: the leader it waits for; kNoLeader for leaders and
  /// for iterations without a shared solver.
  std::vector<std::size_t> leader_;
  std::vector<std::uint8_t> is_leader_;
  mutable std::mutex mutex_;
  mutable std::condition_variable released_;
  mutable std::vector<std::uint8_t> ran_;  ///< per leader, under mutex_
};

}  // namespace rrl
