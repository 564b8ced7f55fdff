// SchemaCache behavior at its fixed capacity (exactly full, least recently
// used evicted, re-insert after evict, seeding when full), the hit/build/
// seed accounting of the process-wide rrl_cache_schema_* counters, and the
// seed/snapshot round trip that carries compiled schemas across processes
// (core of the artifact warm-start path).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/rr_solver.hpp"
#include "core/rrl_transform.hpp"
#include "core/schema_cache.hpp"
#include "markov/ctmc.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

constexpr std::size_t kCapacity = SchemaCache::kCapacity;

/// Synthetic builder with a call counter: LRU behavior is observable as
/// "how often was the expensive compile invoked for this key".
struct CountingBuilder {
  int builds = 0;
  RegenerativeSchema operator()() {
    ++builds;
    RegenerativeSchema schema;
    schema.lambda = static_cast<double>(builds);  // marks the build
    return schema;
  }
};

/// Growth of a process-wide schema memo counter (rrl_cache_schema_<name>_
/// total) since construction.
struct SchemaCounts {
  metrics::MetricsSnapshot before = metrics::snapshot();
  [[nodiscard]] std::uint64_t operator()(const std::string& name) const {
    const std::string counter = "rrl_cache_schema_" + name + "_total";
    return metrics::snapshot().value(counter) - before.value(counter);
  }
};

TEST(SchemaCache, FullMemoEvictsLeastRecentlyUsed) {
  const SchemaCache cache;
  CountingBuilder builder;
  const auto build = [&] { return builder(); };
  const auto get = [&](std::size_t key) {
    return cache.get(static_cast<double>(key), 1e-8, build);
  };

  for (std::size_t k = 0; k < kCapacity; ++k) (void)get(k);
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity));
  // Exactly full: every key still hits — nothing was evicted early.
  for (std::size_t k = 0; k < kCapacity; ++k) (void)get(k);
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity));
  EXPECT_EQ(cache.snapshot().size(), kCapacity);

  (void)get(0);          // touch key 0: key 1 is now the LRU entry
  (void)get(kCapacity);  // a new key evicts key 1, not key 0
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity) + 1);
  EXPECT_EQ(cache.snapshot().size(), kCapacity);
  (void)get(0);  // still resident
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity) + 1);

  (void)get(1);  // re-insert after eviction builds again
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity) + 2);
  (void)get(1);  // and it is retained
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity) + 2);
}

TEST(SchemaCache, CountsHitsAndBuilds) {
  const SchemaCache cache;
  CountingBuilder builder;
  const auto build = [&] { return builder(); };
  const SchemaCounts counts;
  (void)cache.get(1.0, 1e-8, build);  // build
  (void)cache.get(1.0, 1e-8, build);  // hit
  (void)cache.get(2.0, 1e-8, build);  // build
  (void)cache.get(1.0, 1e-8, build);  // hit
  EXPECT_EQ(counts("builds"), 2u);
  EXPECT_EQ(counts("hits"), 2u);
  EXPECT_EQ(counts("cuts"), 0u);
  EXPECT_EQ(counts("seeded"), 0u);
}

TEST(SchemaCache, SeedPopulatesWithoutBuilding) {
  const SchemaCache cache;
  const SchemaCounts counts;
  RegenerativeSchema schema;
  schema.lambda = 42.0;
  schema.t = 10.0;
  cache.seed(10.0, 1e-8, schema);
  EXPECT_EQ(cache.snapshot().size(), 1u);
  EXPECT_EQ(counts("seeded"), 1u);

  // A get for the seeded key must not invoke the builder.
  CountingBuilder builder;
  const auto compiled = cache.get(10.0, 1e-8, [&] { return builder(); });
  EXPECT_EQ(builder.builds, 0);
  EXPECT_EQ(compiled->schema.lambda, 42.0);
  EXPECT_EQ(counts("hits"), 1u);

  // Seeding an existing key keeps the resident entry (both are identical
  // in real use; the marker shows which one survived).
  RegenerativeSchema other = schema;
  other.lambda = 7.0;
  cache.seed(10.0, 1e-8, other);
  EXPECT_EQ(cache.snapshot().size(), 1u);
  EXPECT_EQ(counts("seeded"), 1u);  // not again
  const auto again = cache.get(10.0, 1e-8, [&] { return builder(); });
  EXPECT_EQ(again->schema.lambda, 42.0);
}

TEST(SchemaCache, SeedingAFullMemoEvictsLeastRecentlyUsed) {
  const SchemaCache cache;
  CountingBuilder builder;
  const auto build = [&] { return builder(); };
  for (std::size_t k = 0; k < kCapacity; ++k) {
    (void)cache.get(static_cast<double>(k), 1e-8, build);
  }
  RegenerativeSchema schema;
  schema.lambda = 42.0;
  cache.seed(100.0, 1e-8, schema);  // evicts key 0
  EXPECT_EQ(cache.snapshot().size(), kCapacity);

  EXPECT_EQ(cache.get(100.0, 1e-8, build)->schema.lambda, 42.0);
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity));
  (void)cache.get(1.0, 1e-8, build);  // resident
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity));
  (void)cache.get(0.0, 1e-8, build);  // evicted by the seed
  EXPECT_EQ(builder.builds, static_cast<int>(kCapacity) + 1);
}

TEST(SchemaCache, SnapshotRoundTripsThroughSeed) {
  // Build a REAL schema on a small irreducible chain so the derived
  // objects (V-model pass, transform) can be materialized from the seeded
  // copy.
  std::vector<Triplet> rates = {{0, 1, 2.0}, {1, 0, 5.0}, {1, 2, 1.0},
                                {2, 0, 4.0}};
  const Ctmc chain = Ctmc::from_transitions(3, std::move(rates));
  const std::vector<double> rewards = {1.0, 0.5, 0.0};
  const std::vector<double> initial = {1.0, 0.0, 0.0};
  const RegenerativeSchema schema = compute_regenerative_schema(
      chain, rewards, initial, 0, 50.0, RegenerativeOptions{1e-10, 1.0, -1});
  const auto derive = [](CompiledSchema& compiled) {
    compiled.transform = std::make_shared<const TrrTransform>(compiled.schema);
    compiled.vmodel = std::make_shared<const VModelPass>(compiled.schema, -1);
  };

  const SchemaCache source(derive);
  source.seed(50.0, 1e-10, schema);
  const std::vector<SchemaCache::Entry> entries = source.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].t, 50.0);
  EXPECT_EQ(entries[0].eps, 1e-10);
  ASSERT_NE(entries[0].compiled, nullptr);
  EXPECT_NE(entries[0].compiled->transform, nullptr);
  EXPECT_NE(entries[0].compiled->vmodel, nullptr);

  // Seed a second cache from the snapshot (the import path) and verify
  // the schema series survive bit-exactly.
  const SchemaCache target(derive);
  target.seed(entries[0].t, entries[0].eps, entries[0].compiled->schema);
  CountingBuilder builder;
  const auto compiled = target.get(50.0, 1e-10, [&] { return builder(); });
  EXPECT_EQ(builder.builds, 0);
  EXPECT_EQ(compiled->schema.main.a, schema.main.a);
  EXPECT_EQ(compiled->schema.main.c, schema.main.c);
  EXPECT_EQ(compiled->schema.lambda, schema.lambda);
  ASSERT_NE(compiled->vmodel, nullptr);
  EXPECT_EQ(compiled->vmodel->model.chain.num_states(),
            entries[0].compiled->vmodel->model.chain.num_states());
}

}  // namespace
}  // namespace rrl
