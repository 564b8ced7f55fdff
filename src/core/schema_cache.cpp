#include "core/schema_cache.hpp"

#include <algorithm>
#include <utility>

#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

struct SchemaCounters {
  metrics::Counter& hits = metrics::counter("rrl_cache_schema_hits_total");
  metrics::Counter& builds =
      metrics::counter("rrl_cache_schema_builds_total");
  metrics::Counter& seeded =
      metrics::counter("rrl_cache_schema_seeded_total");
};

SchemaCounters& schema_counters() {
  static SchemaCounters c;
  return c;
}

}  // namespace

std::shared_ptr<CompiledSchema> SchemaCache::compile(
    RegenerativeSchema schema, bool want_transform, bool want_vmodel) {
  auto compiled = std::make_shared<CompiledSchema>();
  compiled->schema = std::move(schema);
  if (want_transform) {
    compiled->transform =
        std::make_shared<const TrrTransform>(compiled->schema);
  }
  if (want_vmodel) {
    compiled->vmodel =
        std::make_shared<const VModel>(build_vmodel(compiled->schema));
  }
  return compiled;
}

bool SchemaCache::satisfies(const CompiledSchema& compiled,
                            bool want_transform, bool want_vmodel) {
  return (!want_transform || compiled.transform != nullptr) &&
         (!want_vmodel || compiled.vmodel != nullptr);
}

void SchemaCache::insert(
    double t, double eps,
    std::shared_ptr<const CompiledSchema> compiled) const {
  if (slots_.size() >= capacity_) {
    const auto oldest = std::min_element(
        slots_.begin(), slots_.end(),
        [](const Slot& a, const Slot& b) { return a.last_used < b.last_used; });
    slots_.erase(oldest);
  }
  slots_.push_back(Slot{t, eps, std::move(compiled), ++clock_});
}

std::shared_ptr<const CompiledSchema> SchemaCache::get(
    double t, double eps, bool want_transform, bool want_vmodel,
    const std::function<RegenerativeSchema()>& build) const {
  // Every caller of one cache passes the same wants (RR wants the V-model,
  // RRL wants the transform), so a hit's derived objects match the
  // request; the satisfies() guard below merely rebuilds if that ever
  // changed.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Slot& s : slots_) {
      if (s.t == t && s.eps == eps &&
          satisfies(*s.compiled, want_transform, want_vmodel)) {
        ++stats_.hits;
        schema_counters().hits.add(1);
        s.last_used = ++clock_;
        return s.compiled;
      }
    }
  }

  // Miss: compute outside the lock so concurrent misses on different keys
  // proceed in parallel.
  std::shared_ptr<CompiledSchema> fresh;
  {
    const trace::Span span("schema.build");
    fresh = compile(build(), want_transform, want_vmodel);
  }
  schema_counters().builds.add(1);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  for (Slot& s : slots_) {
    if (s.t == t && s.eps == eps) {
      // A racing worker inserted the same key first; both artifacts are
      // bit-identical by determinism of the builder, so adopt whichever
      // satisfies the request.
      if (satisfies(*s.compiled, want_transform, want_vmodel)) {
        s.last_used = ++clock_;
        return s.compiled;
      }
      s.compiled = fresh;
      s.last_used = ++clock_;
      return fresh;
    }
  }
  if (capacity_ == 0) return fresh;  // degenerate cache: never retain
  insert(t, eps, fresh);
  return fresh;
}

void SchemaCache::seed(double t, double eps, RegenerativeSchema schema,
                       bool want_transform, bool want_vmodel) const {
  if (capacity_ == 0) return;
  // Derive outside the lock, like a miss.
  std::shared_ptr<CompiledSchema> compiled =
      compile(std::move(schema), want_transform, want_vmodel);

  const std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& s : slots_) {
    if (s.t == t && s.eps == eps) return;  // identical by determinism
  }
  ++stats_.seeded;
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

SchemaCacheStats SchemaCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SchemaCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace rrl
