#include "study/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "io/artifact_codec.hpp"
#include "support/fnv.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

namespace fs = std::filesystem;

struct StoreCounters {
  metrics::Counter& loads = metrics::counter("rrl_artifact_loads_total");
  metrics::Counter& invalid = metrics::counter("rrl_artifact_invalid_total");
  metrics::Counter& stores = metrics::counter("rrl_artifact_stores_total");
};

StoreCounters& store_counters() {
  static StoreCounters c;
  return c;
}

/// FNV-1a over the exact bit patterns of every SolverConfig field — the
/// file-name half of the key (the full key is re-verified from the
/// artifact's embedded identity on load).
std::uint64_t hash_config(const SolverConfig& config) {
  std::uint64_t h = kFnv1aOffset;
  fnv1a_mix(h, &config.epsilon, sizeof(config.epsilon));
  fnv1a_mix(h, &config.rate_factor, sizeof(config.rate_factor));
  fnv1a_mix(h, &config.regenerative, sizeof(config.regenerative));
  fnv1a_mix(h, &config.step_cap, sizeof(config.step_cap));
  return h;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Solver names are registry identifiers; anything unexpected is escaped
/// so the file name stays path-safe.
std::string sanitized(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(safe ? c : '_');
  }
  return out;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {}

std::string ArtifactStore::entry_path(const SolverKey& key) const {
  return (fs::path(root_) / hex64(key.model_hash) /
          (sanitized(key.solver) + "-" + hex64(hash_config(key.config)) +
           ".rrla"))
      .string();
}

std::optional<CompiledArtifact> ArtifactStore::load(
    const SolverKey& key) const {
  const std::string path = entry_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;
  try {
    const trace::Span span("artifact.load");
    CompiledArtifact artifact = read_artifact_file(path);
    if (artifact.key != key) {
      throw contract_error("artifact key mismatch (stale entry)");
    }
    // Touch on use: gc()'s LRU eviction orders by mtime, so a verified
    // hit refreshes the entry's recency. Best effort — a read-only store
    // still serves hits, it just ages like nobody used it.
    std::error_code touch_ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), touch_ec);
    store_counters().loads.add(1);
    return artifact;
  } catch (const std::exception&) {
    // Corrupt, truncated, foreign or stale: a miss, never an error — the
    // caller recompiles and a later store() replaces the bad file.
    store_counters().invalid.add(1);
    return std::nullopt;
  }
}

bool ArtifactStore::store(const CompiledArtifact& artifact) const {
  if (!artifact.has_payload()) return false;
  const std::string path = entry_path(artifact.key);
  const fs::path target(path);
  // Atomic publish: write a sibling temp file, then rename over the final
  // name. Writers racing on one key each get their OWN temp — the pid
  // separates processes (shards), the counter separates threads within
  // one — and the last rename wins with a complete file either way.
  static std::atomic<unsigned long> temp_serial{0};
  fs::path temp = target;
  temp += ".tmp" + std::to_string(static_cast<unsigned long>(::getpid())) +
          "-" + std::to_string(temp_serial.fetch_add(1));
  try {
    const trace::Span span("artifact.store");
    fs::create_directories(target.parent_path());
    write_artifact_file(temp.string(), artifact);
    fs::rename(temp, target);
  } catch (const std::exception&) {
    std::error_code ec;
    fs::remove(temp, ec);
    return false;  // cache write lost; correctness unaffected
  }
  store_counters().stores.add(1);
  return true;
}

ArtifactGcStats ArtifactStore::gc(std::uint64_t cap_bytes) const {
  ArtifactGcStats out;
  std::error_code ec;
  if (!fs::exists(root_, ec) || ec) return out;

  struct Entry {
    fs::file_time_type mtime;
    std::uint64_t bytes = 0;
    std::string path;
  };
  std::vector<Entry> entries;

  for (fs::recursive_directory_iterator
           it(root_, fs::directory_options::skip_permission_denied, ec),
       end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || ec) {
      ec.clear();
      continue;
    }
    const fs::path& path = it->path();
    const std::string name = path.filename().string();
    if (name.find(".tmp") != std::string::npos) {
      // A leftover writer temp (crashed before its atomic rename): by
      // the write discipline nothing ever reads these, so removal is
      // always safe. Note a LIVE writer's temp could race this; losing
      // that write costs a recompile, never correctness (same contract
      // as store()).
      if (fs::remove(path, ec) && !ec) ++out.removed_temp;
      ec.clear();
      continue;
    }
    if (path.extension() != ".rrla") continue;
    ++out.scanned;
    try {
      (void)read_artifact_file(path.string());
    } catch (const std::exception&) {
      // Unreadable (corrupt, truncated, foreign): every load would count
      // it invalid and recompile anyway — reclaim the bytes.
      if (fs::remove(path, ec) && !ec) ++out.removed_invalid;
      ec.clear();
      continue;
    }
    Entry entry;
    entry.mtime = fs::last_write_time(path, ec);
    if (ec) {
      ec.clear();
      continue;
    }
    entry.bytes = static_cast<std::uint64_t>(fs::file_size(path, ec));
    if (ec) {
      ec.clear();
      continue;
    }
    entry.path = path.string();
    out.bytes_before += entry.bytes;
    entries.push_back(std::move(entry));
  }

  out.bytes_after = out.bytes_before;
  if (cap_bytes > 0 && out.bytes_before > cap_bytes) {
    // Least-recently-used first (oldest mtime; ties by path so repeated
    // sweeps of identical stores evict identically).
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.mtime != b.mtime ? a.mtime < b.mtime
                                          : a.path < b.path;
              });
    for (const Entry& entry : entries) {
      if (out.bytes_after <= cap_bytes) break;
      if (fs::remove(entry.path, ec) && !ec) {
        out.bytes_after -= entry.bytes;
        ++out.evicted;
      }
      ec.clear();
    }
  }

  // Sweep now-empty model directories (best effort; a racing writer
  // recreates its directory via create_directories).
  for (fs::directory_iterator it(root_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_directory(ec) && !ec && fs::is_empty(it->path(), ec) &&
        !ec) {
      fs::remove(it->path(), ec);
    }
    ec.clear();
  }
  return out;
}

}  // namespace rrl
