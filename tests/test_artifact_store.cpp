// Disk artifact store: content-addressed store/load, corrupt and stale
// entries degrading to misses, and the acceptance criterion — a
// warm-started study (fresh in-process caches, shared store directory,
// i.e. a second process) reproduces the cold run's report byte-for-byte
// while reporting nonzero disk-tier hits.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "counter_delta.hpp"
#include "io/artifact_codec.hpp"
#include "io/model_format.hpp"
#include "models/multiproc.hpp"
#include "rrl.hpp"
#include "study/artifact_store.hpp"
#include "support/fnv.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rrl-store-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

CompiledArtifact sample_artifact(const MultiprocModel& model,
                                 const SolverConfig& config,
                                 std::uint64_t model_hash) {
  const auto solver =
      make_solver("rrl", model.chain, model.failure_rewards(),
                  model.initial_distribution(), config);
  (void)solver->solve_grid(SolveRequest::trr({50.0, 500.0}));
  return export_artifact(*solver, model_hash, config);
}

TEST(ArtifactStore, StoreThenLoadRoundTrips) {
  const TempDir dir;
  const ArtifactStore store(dir.path.string());
  const MultiprocModel model = build_multiproc_availability({});
  SolverConfig config;
  config.epsilon = 1e-8;
  config.regenerative = model.initial_state;
  const CompiledArtifact artifact = sample_artifact(model, config, 42);

  const CounterDelta stores("rrl_artifact_stores_total");
  const CounterDelta loads("rrl_artifact_loads_total");
  const CounterDelta invalid("rrl_artifact_invalid_total");
  EXPECT_TRUE(store.store(artifact));
  EXPECT_TRUE(fs::exists(store.entry_path({42, "rrl", config})));

  const auto loaded = store.load({42, "rrl", config});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->schemas.size(), artifact.schemas.size());
  EXPECT_EQ(loaded->schemas[0].schema.main.a,
            artifact.schemas[0].schema.main.a);

  EXPECT_EQ(stores(), 1u);
  EXPECT_EQ(loads(), 1u);  // the one load hit: no miss
  EXPECT_EQ(invalid(), 0u);
}

TEST(ArtifactStore, MissStaleAndCorruptAllDegradeToMisses) {
  const TempDir dir;
  const ArtifactStore store(dir.path.string());
  const MultiprocModel model = build_multiproc_availability({});
  SolverConfig config;
  config.epsilon = 1e-8;
  config.regenerative = model.initial_state;

  // Absent: plain miss, neither a load nor an invalid entry.
  const CounterDelta loads("rrl_artifact_loads_total");
  const CounterDelta invalid("rrl_artifact_invalid_total");
  EXPECT_FALSE(store.load({1, "rrl", config}).has_value());
  EXPECT_EQ(loads(), 0u);
  EXPECT_EQ(invalid(), 0u);

  const CompiledArtifact artifact = sample_artifact(model, config, 1);
  ASSERT_TRUE(store.store(artifact));

  // Different config: a different address, so a miss (never a near-match).
  SolverConfig other = config;
  other.epsilon = 1e-10;
  EXPECT_FALSE(store.load({1, "rrl", other}).has_value());

  // A file whose EMBEDDED identity does not match its address (e.g.
  // hand-copied between model directories) is rejected as stale.
  const std::string alias_path = store.entry_path({2, "rrl", config});
  fs::create_directories(fs::path(alias_path).parent_path());
  fs::copy_file(store.entry_path({1, "rrl", config}), alias_path);
  EXPECT_FALSE(store.load({2, "rrl", config}).has_value());
  EXPECT_GE(invalid(), 1u);

  // Corrupt bytes: rejected, and a later store() heals the entry.
  {
    std::ofstream out(store.entry_path({1, "rrl", config}),
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  EXPECT_FALSE(store.load({1, "rrl", config}).has_value());
  ASSERT_TRUE(store.store(artifact));
  EXPECT_TRUE(store.load({1, "rrl", config}).has_value());
}

std::uint64_t dtmc_builds() {
  return metrics::counter("rrl_dtmc_builds_total").value();
}

TEST(ArtifactStore, SolverCacheWarmStartSkipsCompilation) {
  const TempDir dir;
  const auto store =
      std::make_shared<const ArtifactStore>(dir.path.string());
  const MultiprocModel multi = build_multiproc_availability({});
  ModelFile file;
  file.chain = multi.chain;
  file.rewards = multi.failure_rewards();
  file.initial = multi.initial_distribution();
  file.regenerative = multi.initial_state;

  SolverConfig config;
  config.epsilon = 1e-10;
  config.regenerative = multi.initial_state;
  const SolveRequest request = SolveRequest::trr({10.0, 1000.0});

  for (const std::string name : {"sr", "rsd", "krylov", "rrl"}) {
    // Cold "process": compile, solve, flush.
    ModelRepository repo_cold;
    const auto model_cold = repo_cold.adopt("multiproc", file);
    SolverCache cold;
    cold.attach_store(store);
    const CounterDelta cold_hits("rrl_cache_disk_hits_total");
    const CounterDelta cold_misses("rrl_cache_disk_misses_total");
    const auto solver_cold = cold.get_or_build(model_cold, name, config);
    const SolveReport report_cold = solver_cold->solve_grid(request);
    EXPECT_EQ(cold_hits(), 0u) << name;
    EXPECT_EQ(cold_misses(), 1u) << name;
    EXPECT_EQ(cold.flush_to_store(), 1u) << name;

    // Warm "process": fresh repository and cache, shared directory. No
    // chain is randomized: SR, RSD and Krylov adopt the stored DTMC, RRL
    // answers from its seeded schema memo.
    const std::uint64_t builds = dtmc_builds();
    const std::uint64_t schema_builds =
        metrics::counter("rrl_cache_schema_builds_total").value();
    const std::uint64_t seeded =
        metrics::counter("rrl_cache_schema_seeded_total").value();
    ModelRepository repo_warm;
    const auto model_warm = repo_warm.adopt("multiproc", file);
    SolverCache warm;
    warm.attach_store(store);
    const CounterDelta warm_hits("rrl_cache_disk_hits_total");
    const auto solver_warm = warm.get_or_build(model_warm, name, config);
    EXPECT_EQ(warm_hits(), 1u) << name;
    const SolveReport report_warm = solver_warm->solve_grid(request);
    EXPECT_EQ(report_warm.values(), report_cold.values()) << name;
    EXPECT_EQ(report_warm.total.dtmc_steps, report_cold.total.dtmc_steps)
        << name;
    EXPECT_EQ(dtmc_builds(), builds) << name;
    // Nothing new to publish: the warm entry's state is the disk's.
    EXPECT_EQ(warm.flush_to_store(), 0u) << name;

    EXPECT_EQ(metrics::counter("rrl_cache_schema_builds_total").value(),
              schema_builds)
        << name;
    if (name == "rrl") {
      EXPECT_GE(metrics::counter("rrl_cache_schema_seeded_total").value(),
                seeded + 1);
    }

    // Cold mode: reads disabled, the compile runs again, the store is
    // refreshed.
    SolverCache refreshed;
    refreshed.attach_store(store, /*read=*/false);
    const CounterDelta refreshed_hits("rrl_cache_disk_hits_total");
    const CounterDelta refreshed_misses("rrl_cache_disk_misses_total");
    const auto solver_refreshed =
        refreshed.get_or_build(model_warm, name, config);
    EXPECT_EQ(refreshed_hits(), 0u) << name;
    EXPECT_EQ(refreshed_misses(), 0u) << name;  // never consulted
    EXPECT_EQ(solver_refreshed->solve_grid(request).values(),
              report_cold.values())
        << name;
  }
}

TEST(ArtifactStore, VersionTwoEntryIsAMissAndGcRemovesIt) {
  // An entry the previous format wrote (version 2, FNV-1a checksum, same
  // payload layout) at a live key: a miss counted invalid, then swept.
  const TempDir dir;
  const ArtifactStore store(dir.path.string());
  const MultiprocModel model = build_multiproc_availability({});
  SolverConfig config;
  config.epsilon = 1e-8;
  config.regenerative = model.initial_state;
  ASSERT_TRUE(store.store(sample_artifact(model, config, 1)));
  const std::string path = store.entry_path({1, "rrl", config});
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kHeaderBytes = 22;  // magic, version, endian, length
  const std::uint32_t version = 2;
  std::memcpy(blob.data() + 8, &version, sizeof(version));
  std::uint64_t fnv = kFnv1aOffset;
  fnv1a_mix(fnv, blob.data() + kHeaderBytes, blob.size() - kHeaderBytes - 8);
  std::memcpy(blob.data() + blob.size() - 8, &fnv, sizeof(fnv));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  const CounterDelta invalid("rrl_artifact_invalid_total");
  EXPECT_FALSE(store.load({1, "rrl", config}).has_value());
  EXPECT_EQ(invalid(), 1u);
  const ArtifactGcStats gc = store.gc();
  EXPECT_EQ(gc.scanned, 1u);
  EXPECT_EQ(gc.removed_invalid, 1u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactStoreGc, SweepRemovesTempAndInvalidEntries) {
  const TempDir dir;
  const ArtifactStore store(dir.path.string());
  const MultiprocModel model = build_multiproc_availability({});
  SolverConfig config;
  config.epsilon = 1e-8;
  config.regenerative = model.initial_state;
  ASSERT_TRUE(store.store(sample_artifact(model, config, 1)));
  ASSERT_TRUE(store.store(sample_artifact(model, config, 2)));

  // A crashed writer's leftover temp and a corrupt entry.
  const fs::path temp = fs::path(store.entry_path({1, "rrl", config}))
                            .parent_path() /
                        "rrl-deadbeef.rrla.tmp999-0";
  std::ofstream(temp) << "half-written";
  const fs::path bad = fs::path(store.entry_path({2, "rrl", config}))
                           .parent_path() /
                       "rsd-deadbeef.rrla";
  std::ofstream(bad) << "garbage";

  const ArtifactGcStats gc = store.gc();
  EXPECT_EQ(gc.scanned, 3u);  // 2 valid + 1 corrupt
  EXPECT_EQ(gc.removed_temp, 1u);
  EXPECT_EQ(gc.removed_invalid, 1u);
  EXPECT_EQ(gc.evicted, 0u);  // no cap: sweep only
  EXPECT_FALSE(fs::exists(temp));
  EXPECT_FALSE(fs::exists(bad));
  EXPECT_TRUE(store.load({1, "rrl", config}).has_value());
  EXPECT_TRUE(store.load({2, "rrl", config}).has_value());

  // A missing root is an empty sweep, not an error.
  const ArtifactGcStats none =
      ArtifactStore((dir.path / "absent").string()).gc(1);
  EXPECT_EQ(none.scanned, 0u);
}

TEST(ArtifactStoreGc, CapEvictsLeastRecentlyUsedFirst) {
  const TempDir dir;
  const ArtifactStore store(dir.path.string());
  const MultiprocModel model = build_multiproc_availability({});
  SolverConfig config;
  config.epsilon = 1e-8;
  config.regenerative = model.initial_state;
  for (const std::uint64_t hash : {1u, 2u, 3u}) {
    ASSERT_TRUE(store.store(sample_artifact(model, config, hash)));
  }
  const auto set_age = [&](std::uint64_t hash, int hours_old) {
    fs::last_write_time(store.entry_path({hash, "rrl", config}),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(hours_old));
  };
  set_age(1, 3);  // oldest
  set_age(2, 2);
  set_age(3, 1);  // newest

  const std::uint64_t total = store.gc().bytes_before;
  ASSERT_GT(total, 0u);

  // Cap boundary: an exactly-full store evicts nothing.
  const ArtifactGcStats at_cap = store.gc(total);
  EXPECT_EQ(at_cap.evicted, 0u);
  EXPECT_EQ(at_cap.bytes_after, total);

  // One byte over: the LEAST RECENTLY USED entry goes first, and
  // eviction stops the moment the store fits.
  const ArtifactGcStats over = store.gc(total - 1);
  EXPECT_EQ(over.evicted, 1u);
  EXPECT_FALSE(fs::exists(store.entry_path({1, "rrl", config})));
  EXPECT_TRUE(fs::exists(store.entry_path({2, "rrl", config})));
  EXPECT_TRUE(fs::exists(store.entry_path({3, "rrl", config})));
  EXPECT_LE(over.bytes_after, total - 1);

  // A verified load REFRESHES recency: after using entry 2, entry 3 is
  // the oldest and is evicted next.
  set_age(2, 30);
  ASSERT_TRUE(store.load({2, "rrl", config}).has_value());  // touch
  const ArtifactGcStats next = store.gc(1);
  EXPECT_EQ(next.evicted, 2u);  // both remaining go under a 1-byte cap...
  // ...in LRU order: had the cap allowed one survivor it would have been
  // entry 2 — assert the ORDER via a fresh pair instead.
  ASSERT_TRUE(store.store(sample_artifact(model, config, 4)));
  ASSERT_TRUE(store.store(sample_artifact(model, config, 5)));
  set_age(4, 20);
  set_age(5, 10);
  ASSERT_TRUE(store.load({4, "rrl", config}).has_value());  // 4 now newest
  const std::uint64_t pair_total = store.gc().bytes_before;
  const ArtifactGcStats lru = store.gc(pair_total - 1);
  EXPECT_EQ(lru.evicted, 1u);
  EXPECT_TRUE(fs::exists(store.entry_path({4, "rrl", config})));
  EXPECT_FALSE(fs::exists(store.entry_path({5, "rrl", config})));
}

TEST(ArtifactStore, WarmStudyReproducesColdReportByteForByte) {
  // The acceptance run: a full study cold, then the same study from a
  // fresh cache over the shared store — the CSV reports must be
  // byte-identical and the warm run must report nonzero disk hits.
  const TempDir dir;
  const MultiprocModel multi = build_multiproc_availability({});
  const fs::path model_path = dir.path / "multiproc.rrlm";
  write_model_file(model_path.string(), multi.chain,
                   multi.failure_rewards(), multi.initial_distribution(),
                   multi.initial_state);

  StudySpec spec;
  spec.models = {model_path.string()};
  spec.model_labels = {"multiproc.rrlm"};
  spec.solvers = {"sr", "rsd", "rr", "rrl"};
  spec.measures = {MeasureKind::kTrr, MeasureKind::kMrr};
  spec.epsilons = {1e-8, 1e-10};
  spec.grids = {log_time_grid(1.0, 2000.0, 4), {5.0, 50.0}};
  spec.jobs = 2;

  const auto store =
      std::make_shared<const ArtifactStore>((dir.path / "cache").string());
  const auto run_csv = [&](SolverCache& cache, StudyRun& run) {
    ModelRepository repository;  // fresh per "process"
    run = run_study(spec, repository, cache);
    std::ostringstream csv;
    write_report_csv(csv, run.total_scenarios, run.rows());
    return csv.str();
  };

  SolverCache cold_cache;
  cold_cache.attach_store(store);
  StudyRun cold_run;
  const CounterDelta cold_hits("rrl_cache_disk_hits_total");
  const std::string cold_csv = run_csv(cold_cache, cold_run);
  EXPECT_EQ(cold_run.sweep.failed(), 0u);
  EXPECT_EQ(cold_hits(), 0u);
  EXPECT_GT(cold_cache.flush_to_store(), 0u);

  SolverCache warm_cache;
  warm_cache.attach_store(store);
  StudyRun warm_run;
  const CounterDelta warm_hits("rrl_cache_disk_hits_total");
  const CounterDelta warm_misses("rrl_cache_disk_misses_total");
  const std::string warm_csv = run_csv(warm_cache, warm_run);
  EXPECT_EQ(warm_run.sweep.failed(), 0u);
  EXPECT_GT(warm_hits(), 0u);
  EXPECT_EQ(warm_misses(), 0u);
  EXPECT_EQ(warm_csv, cold_csv);
}

}  // namespace
}  // namespace rrl
