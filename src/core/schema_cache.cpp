#include "core/schema_cache.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

struct SchemaCounters {
  metrics::Counter& hits = metrics::counter("rrl_cache_schema_hits_total");
  metrics::Counter& builds =
      metrics::counter("rrl_cache_schema_builds_total");
  metrics::Counter& cuts = metrics::counter("rrl_cache_schema_cuts_total");
  metrics::Counter& seeded =
      metrics::counter("rrl_cache_schema_seeded_total");
};

SchemaCounters& schema_counters() {
  static SchemaCounters c;
  return c;
}

}  // namespace

std::shared_ptr<const CompiledSchema> SchemaCache::compile(
    RegenerativeSchema schema) const {
  auto compiled = std::make_shared<CompiledSchema>();
  compiled->schema = std::move(schema);
  if (derive_) derive_(*compiled);
  return compiled;
}

SchemaCache::Slot* SchemaCache::find(double t, double eps) const {
  for (Slot& s : slots_) {
    if (s.t == t && s.eps == eps) return &s;
  }
  return nullptr;
}

void SchemaCache::insert(
    double t, double eps,
    std::shared_ptr<const CompiledSchema> compiled) const {
  if (slots_.size() >= kCapacity) {
    const auto oldest = std::min_element(
        slots_.begin(), slots_.end(),
        [](const Slot& a, const Slot& b) { return a.last_used < b.last_used; });
    slots_.erase(oldest);
  }
  slots_.push_back(Slot{t, eps, std::move(compiled), ++clock_});
}

std::shared_ptr<const CompiledSchema> SchemaCache::get(
    double t, double eps, const Builder& build, const Cutter& cut) const {
  std::unique_lock<std::mutex> lock(mutex_);
  // A miss behind an in-flight build waits for it to land, then looks
  // again: the key may be there now, or cuttable from what landed.
  for (;;) {
    if (Slot* s = find(t, eps)) {
      schema_counters().hits.add(1);
      s->last_used = ++clock_;
      return s->compiled;
    }
    if (!building_) break;
    landed_.wait(lock);
  }

  // This miss owns the flight. The longest retained entry is the one most
  // likely to contain the key.
  building_ = true;
  std::shared_ptr<const CompiledSchema> longest;
  if (cut) {
    for (const Slot& s : slots_) {
      const RegenerativeSchema& sch = s.compiled->schema;
      if (longest == nullptr ||
          std::make_pair(sch.K(), sch.L()) >
              std::make_pair(longest->schema.K(), longest->schema.L())) {
        longest = s.compiled;
      }
    }
  }
  lock.unlock();

  std::shared_ptr<const CompiledSchema> fresh;
  bool was_cut = false;
  try {
    const trace::Span span("schema.build");
    std::optional<RegenerativeSchema> schema;
    if (longest != nullptr) schema = cut(longest->schema);
    was_cut = schema.has_value();
    if (!was_cut) schema = build();
    fresh = compile(std::move(*schema));
  } catch (...) {
    lock.lock();
    building_ = false;
    lock.unlock();
    landed_.notify_all();  // a waiter takes the flight and tries itself
    throw;
  }
  schema_counters().builds.add(1);
  if (was_cut) schema_counters().cuts.add(1);

  lock.lock();
  insert(t, eps, fresh);
  building_ = false;
  lock.unlock();
  landed_.notify_all();
  return fresh;
}

void SchemaCache::seed(double t, double eps,
                       RegenerativeSchema schema) const {
  // Derive outside the lock, like a miss.
  std::shared_ptr<const CompiledSchema> compiled = compile(std::move(schema));

  const std::lock_guard<std::mutex> lock(mutex_);
  if (find(t, eps) != nullptr) return;  // identical by determinism
  schema_counters().seeded.add(1);
  insert(t, eps, std::move(compiled));
}

std::vector<SchemaCache::Entry> SchemaCache::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Key order, not recency: recency follows the order concurrent workers
  // happened to call get() in, and the export must not.
  std::vector<Slot> ordered = slots_;
  std::sort(ordered.begin(), ordered.end(),
            [](const Slot& a, const Slot& b) {
              return a.t != b.t ? a.t < b.t : a.eps < b.eps;
            });
  std::vector<Entry> out;
  out.reserve(ordered.size());
  for (Slot& s : ordered) {
    out.push_back(Entry{s.t, s.eps, std::move(s.compiled)});
  }
  return out;
}

LeaderSchedule::LeaderSchedule(std::span<const CompileDemand> demands)
    : leader_(demands.size(), kNoLeader),
      is_leader_(demands.size(), 0),
      ran_(demands.size(), 0) {
  // Scanning in index order and replacing only on a strictly more
  // demanding request leaves the lowest index on ties.
  std::map<const void*, std::size_t> leader_of;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const CompileDemand& d = demands[i];
    if (d.solver == nullptr) continue;
    const auto [it, inserted] = leader_of.emplace(d.solver, i);
    const CompileDemand& leader = demands[it->second];
    if (!inserted && (d.eps < leader.eps ||
                      (d.eps == leader.eps && d.t_max > leader.t_max))) {
      it->second = i;
    }
  }
  order_.reserve(demands.size());
  for (const auto& entry : leader_of) order_.push_back(entry.second);
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return demands[a].states != demands[b].states
               ? demands[a].states > demands[b].states
               : a < b;
  });
  for (const std::size_t i : order_) is_leader_[i] = 1;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (is_leader_[i] != 0) continue;
    order_.push_back(i);
    if (demands[i].solver != nullptr) {
      leader_[i] = leader_of.at(demands[i].solver);
    }
  }
}

void LeaderSchedule::wait_for_leader(std::size_t i) const {
  const std::size_t leader = leader_[i];
  if (leader == kNoLeader) return;
  std::unique_lock<std::mutex> lock(mutex_);
  released_.wait(lock, [&] { return ran_[leader] != 0; });
}

void LeaderSchedule::release_followers(std::size_t i) const {
  if (is_leader_[i] == 0) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ran_[i] = 1;
  }
  released_.notify_all();
}

}  // namespace rrl
