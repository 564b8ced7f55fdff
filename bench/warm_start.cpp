// Warm-vs-cold startup: the disk artifact tier's acceptance benchmark.
//
// The workload is the shape the store exists for: a study whose cold
// start is dominated by compiling — 3 RAID-5 models (G = 20, 30, 40) x RRL
// x both measures at one error target and one time, so each model has ONE
// schema of K model-sized steps and only two inversions read it — run
// twice from COLD in-process caches: once against an empty store
// directory (the cold start: every schema compiled from scratch, then
// flushed to disk) and once against the directory the cold run just
// populated (the warm start: solvers import the serialized schemas and
// skip the compilation). (A study with many inversions per schema, or
// with eps targets cut from one series — core/schema_cache.hpp — leaves
// the cold run little compile to amortize.) Per-run time covers
// everything a fresh process pays: model parsing, solver-cache resolution
// including disk I/O, the sweep, and the flush. The harness checks the two
// runs' reports are byte-for-byte identical and ASSERTS the >= 2x startup
// speedup (exit code 1 on violation, so CI tracks the regression).
//
// Usage:
//   warm_start [--eps 1e-12] [--tmax 1e4] [--jobs 2] [--reps 3]
//              [--min-speedup 2] [--json-out BENCH_warm_start.json]
// Environment: RRL_BENCH_QUICK=1 shrinks reps for CI.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rrl.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rrl;
  namespace fs = std::filesystem;
  const CliArgs args(argc, argv);
  const double eps = args.get_double("eps", 1e-12);
  const double tmax = args.get_double("tmax", 1e4);
  const int jobs = static_cast<int>(args.get_long("jobs", 2));
  const int reps = static_cast<int>(
      args.get_long("reps", env_flag("RRL_BENCH_QUICK") ? 1 : 3));
  const double min_speedup = args.get_double("min-speedup", 2.0);

  // Scratch area: exported model files plus the store directory.
  const fs::path scratch =
      fs::temp_directory_path() /
      ("rrl-warm-start-" + std::to_string(::getpid()));
  fs::create_directories(scratch);

  StudySpec spec;
  for (const int groups : {20, 30, 40}) {
    const Raid5Model m = build_raid5_availability(bench::paper_params(groups));
    const std::string path =
        (scratch / ("raid5-g" + std::to_string(groups) + ".rrlm")).string();
    write_model_file(path, m.chain, m.failure_rewards(),
                     m.initial_distribution(), m.initial_state);
    spec.models.push_back(path);
    spec.model_labels.push_back("raid5-g" + std::to_string(groups));
  }
  spec.solvers = {"rrl"};
  spec.measures = {MeasureKind::kTrr, MeasureKind::kMrr};
  spec.epsilons = {eps};  // one schema per model
  spec.grids = {{tmax}};
  spec.jobs = jobs;
  const std::size_t scenarios = spec.models.size() * spec.measures.size();

  std::printf(
      "warm-vs-cold startup: %zu scenarios (3 raid5 models x rrl x trr/mrr "
      "at t=%g, eps=%g), jobs=%d, best of %d reps\n\n",
      scenarios, tmax, eps, jobs, reps);

  // The run's disk-tier lookups, read off the process-wide counters.
  struct DiskTally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const auto disk_now = [] {
    return DiskTally{metrics::counter("rrl_cache_disk_hits_total").value(),
                     metrics::counter("rrl_cache_disk_misses_total").value()};
  };

  // One run = one simulated process: fresh repository + fresh cache, only
  // the store directory persists. Returns the report CSV for the
  // byte-identity check.
  const auto run_once = [&](const std::string& store_dir, double& seconds,
                            DiskTally& stats) {
    const DiskTally before = disk_now();
    const Stopwatch watch;
    ModelRepository repository;
    SolverCache cache;
    cache.attach_store(std::make_shared<const ArtifactStore>(store_dir));
    const StudyRun run = run_study(spec, repository, cache);
    cache.flush_to_store();
    seconds = watch.seconds();
    const DiskTally after = disk_now();
    stats = {after.hits - before.hits, after.misses - before.misses};
    if (run.sweep.failed() != 0) {
      std::fprintf(stderr, "error: %zu scenarios failed\n",
                   run.sweep.failed());
      std::exit(1);
    }
    std::ostringstream csv;
    write_report_csv(csv, run.total_scenarios, run.rows());
    return csv.str();
  };

  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  std::string cold_csv;
  std::string warm_csv;
  DiskTally cold_stats;
  DiskTally warm_stats;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string store_dir =
        (scratch / ("store-" + std::to_string(rep))).string();
    double seconds = 0.0;
    DiskTally stats;
    const std::string csv = run_once(store_dir, seconds, stats);
    if (rep == 0 || seconds < cold_seconds) {
      cold_seconds = seconds;
      cold_csv = csv;
      cold_stats = stats;
    }
    const std::string warm = run_once(store_dir, seconds, stats);
    if (rep == 0 || seconds < warm_seconds) {
      warm_seconds = seconds;
      warm_csv = warm;
      warm_stats = stats;
    }
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);

  if (warm_csv != cold_csv) {
    std::fprintf(stderr,
                 "error: warm report differs from cold report bytes\n");
    return 1;
  }
  if (warm_stats.hits == 0) {
    std::fprintf(stderr, "error: warm run reported no disk-tier hits\n");
    return 1;
  }

  const double speedup = cold_seconds / warm_seconds;
  TextTable table({"mode", "seconds", "disk hits", "disk misses"});
  table.add_row({"cold (empty store)", fmt_sig(cold_seconds, 4),
                 std::to_string(cold_stats.hits),
                 std::to_string(cold_stats.misses)});
  table.add_row({"warm (populated store)", fmt_sig(warm_seconds, 4),
                 std::to_string(warm_stats.hits),
                 std::to_string(warm_stats.misses)});
  table.print();
  std::printf("\nreports byte-identical: yes; startup speedup %.3g\n",
              speedup);

  {
    bench::BenchJson json(args, "warm_start", "BENCH_warm_start.json");
    json.field("scenarios", scenarios)
        .field("jobs", jobs)
        .field("eps", eps)
        .field("tmax", tmax)
        .field("cold_seconds", cold_seconds)
        .field("warm_seconds", warm_seconds)
        .field("disk_hits", warm_stats.hits)
        .field("speedup", speedup)
        .field("min_speedup", min_speedup);
  }

  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: warm-start speedup %.3g < required %.3g\n",
                 speedup, min_speedup);
    return 1;
  }
  std::printf("PASS: warm-start speedup %.3g >= %.3g\n", speedup,
              min_speedup);
  return 0;
}
