// Solver-cache throughput: cached (shared compiled solvers) vs
// per-scenario construction on a batch that shares models — the study
// subsystem's acceptance benchmark.
//
// The batch is the shape the cache exists for: 2 RAID-5 models (G=20 and
// G=40) x the RRL solver x both measures x 8 time grids that share one
// horizon t_max — 32 scenarios, but only TWO distinct (model, solver,
// config) keys and two distinct (t_max, eps) schema keys. Per-scenario
// construction compiles the regenerative schema 32 times; the cache
// compiles it twice and shares the immutable solver (the per-point
// inversions remain per scenario). The harness runs both ways, checks the
// values are bit-identical, and ASSERTS the >= 2x throughput bound (exit
// code 1 on violation, so CI tracks the regression).
//
// Usage:
//   study_cache [--jobs 1] [--eps 1e-12] [--tmax 1e4] [--reps 3]
//               [--min-speedup 2] [--json-out BENCH_study.json]
// Environment: RRL_BENCH_QUICK=1 shrinks reps for CI.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rrl;
  const CliArgs args(argc, argv);
  const double eps = args.get_double("eps", 1e-12);
  const double tmax = args.get_double("tmax", 1e4);
  const int jobs = static_cast<int>(args.get_long("jobs", 1));
  const int reps = static_cast<int>(
      args.get_long("reps", env_flag("RRL_BENCH_QUICK") ? 1 : 3));
  const double min_speedup = args.get_double("min-speedup", 2.0);

  // Two models interned in the repository (the cache keys on their
  // content hashes).
  ModelRepository repository;
  std::vector<std::shared_ptr<const StudyModel>> models;
  for (const int groups : {20, 40}) {
    const Raid5Model m = build_raid5_availability(bench::paper_params(groups));
    ModelFile file;
    file.chain = m.chain;
    file.rewards = m.failure_rewards();
    file.initial = m.initial_distribution();
    file.regenerative = m.initial_state;
    models.push_back(repository.adopt(
        "raid5-g" + std::to_string(groups), std::move(file)));
  }

  // 8 grids sharing the horizon t_max (different windows/resolutions), so
  // all scenarios of one model agree on the (t_max, eps) schema key.
  std::vector<std::vector<double>> grids;
  for (int g = 0; g < 8; ++g) {
    const double lo = 1.0 + static_cast<double>(g);
    grids.push_back(log_time_grid(lo, tmax, 2 + g % 3));
  }

  // The scenario list, built once: each scenario's model and request.
  // Every rep builds the solvers for it afresh.
  struct Job {
    std::shared_ptr<const StudyModel> model;
    SolveRequest request;
  };
  std::vector<Job> scenarios;
  for (const auto& model : models) {
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      for (const auto& grid : grids) {
        scenarios.push_back({model, SolveRequest{measure, grid, eps}});
      }
    }
  }

  std::printf(
      "solver-cache throughput: %zu scenarios (2 models x rrl x trr/mrr "
      "x %zu grids to t=%g), eps=%g, jobs=%d, best of %d reps\n\n",
      scenarios.size(), grids.size(), tmax, eps, jobs, reps);

  // Best-of-reps for both modes. Uncached = per-scenario construction
  // (fresh solver, fresh schema per scenario — the pre-study behavior);
  // cached = one compiled solver per (model, solver, config), schema
  // memoized inside it.
  const auto run_mode = [&](bool use_cache, double& best_seconds) {
    SweepReport best;
    for (int rep = 0; rep < reps; ++rep) {
      SolverCache cache;  // fresh each rep: cold misses counted every time
      const Stopwatch watch;  // covers the solver builds AND the sweep
      ThreadPool pool(jobs);
      BatchRequest batch;
      batch.scenarios.resize(scenarios.size());
      const auto build = [&](std::size_t i) {
        const StudyModel& model = *scenarios[i].model;
        SolverConfig config;
        config.epsilon = eps;
        config.regenerative = model.file.regenerative;
        SweepScenario& s = batch.scenarios[i];
        s.solver = use_cache
                       ? cache.get_or_build(scenarios[i].model, "rrl", config)
                       : make_solver("rrl", model.file.chain,
                                     model.file.rewards, model.file.initial,
                                     config);
        s.request = scenarios[i].request;
        s.chain = &model.file.chain;
      };
      if (use_cache) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) build(i);
      } else {
        pool.parallel_for(scenarios.size(), build);
      }
      SweepReport report = run_sweep(std::move(batch), pool);
      const double seconds = watch.seconds();
      if (report.failed() != 0) {
        std::fprintf(stderr, "error: %zu scenarios failed\n",
                     report.failed());
        std::exit(1);
      }
      if (rep == 0 || seconds < best_seconds) {
        best_seconds = seconds;
        best = std::move(report);
      }
    }
    return best;
  };

  double uncached_seconds = 0.0;
  double cached_seconds = 0.0;
  const SweepReport uncached = run_mode(false, uncached_seconds);
  const SweepReport cached = run_mode(true, cached_seconds);

  // Bit-identical values: the cache must be invisible in the results.
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const std::vector<double> a = uncached.results[s].report.values();
    const std::vector<double> b = cached.results[s].report.values();
    if (a != b) {
      std::fprintf(stderr,
                   "error: scenario %zu differs between cached and fresh "
                   "runs\n",
                   s);
      return 1;
    }
  }

  const double uncached_rate =
      static_cast<double>(scenarios.size()) / uncached_seconds;
  const double cached_rate =
      static_cast<double>(scenarios.size()) / cached_seconds;
  const double speedup = cached_rate / uncached_rate;

  TextTable table({"mode", "seconds", "scenarios/sec", "speedup"});
  table.add_row({"per-scenario construction", fmt_sig(uncached_seconds, 4),
                 fmt_sig(uncached_rate, 4), "1"});
  table.add_row({"solver cache", fmt_sig(cached_seconds, 4),
                 fmt_sig(cached_rate, 4), fmt_sig(speedup, 3)});
  table.print();
  std::printf("\nvalues bit-identical to fresh construction: yes\n");

  {
    bench::BenchJson json(args, "study_cache", "BENCH_study.json");
    json.field("scenarios", scenarios.size())
        .field("jobs", jobs)
        .field("eps", eps)
        .field("tmax", tmax)
        .field("uncached_seconds", uncached_seconds)
        .field("cached_seconds", cached_seconds)
        .field("uncached_scenarios_per_sec", uncached_rate)
        .field("cached_scenarios_per_sec", cached_rate)
        .field("speedup", speedup)
        .field("min_speedup", min_speedup);
  }

  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: solver cache speedup %.3g < required %.3g\n",
                 speedup, min_speedup);
    return 1;
  }
  std::printf("PASS: solver cache speedup %.3g >= %.3g\n", speedup,
              min_speedup);
  return 0;
}
