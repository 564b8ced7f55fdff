// Scenario-sweep throughput: scenarios/sec vs worker threads.
//
// The batch is the paper's own evaluation shape scaled out: RAID-5 (G=20)
// and multiprocessor availability models, each pushed through all
// registered solvers for both measures (TRR and MRR) over a shared
// log-spaced time grid — 16 scenarios by default. The sweep engine fans
// them over a worker pool; this harness reruns the identical batch at
// increasing thread counts and reports throughput, speedup, and a
// determinism check (every value bit-identical to the 1-thread run).
//
// Usage:
//   sweep_throughput [--jobs-list 1,2,4,8] [--reps 3] [--eps 1e-10]
//                    [--points 8] [--tmax 1e3] [--json-out BENCH_sweep.json]
// Environment: RRL_BENCH_QUICK=1 shrinks reps for CI.
//
// Besides the human-readable table, the run is emitted as machine-readable
// JSON (default BENCH_sweep.json, --json-out "" disables) — scenarios/sec
// per thread count — so the perf trajectory is tracked across PRs.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rrl;
  const CliArgs args(argc, argv);
  const double eps = args.get_double("eps", 1e-10);
  const double tmax = args.get_double("tmax", 1e3);
  const int points = static_cast<int>(args.get_long("points", 8));
  const int reps = static_cast<int>(
      args.get_long("reps", env_flag("RRL_BENCH_QUICK") ? 1 : 3));
  std::vector<int> jobs_list;
  for (const double j :
       parse_double_list(args.get_string("jobs-list", "1,2,4,8"))) {
    if (j >= 1.0) jobs_list.push_back(static_cast<int>(j));
  }
  if (jobs_list.empty() || jobs_list.front() != 1) {
    jobs_list.insert(jobs_list.begin(), 1);  // the speedup baseline
  }

  // The models outlive the batch; scenarios borrow the chains.
  const Raid5Model raid = build_raid5_availability(bench::paper_params(20));
  const MultiprocModel multi = build_multiproc_availability({});
  const std::vector<double> grid = log_time_grid(1.0, tmax, points);

  struct Model {
    const Ctmc* chain;
    std::vector<double> rewards;
    std::vector<double> initial;
    index_t regenerative;
  };
  const std::vector<Model> models = {
      {&raid.chain, raid.failure_rewards(), raid.initial_distribution(),
       raid.initial_state},
      {&multi.chain, multi.failure_rewards(), multi.initial_distribution(),
       multi.initial_state}};
  const std::vector<std::string> solvers = registered_solvers();

  // Every rep sweeps a batch of fresh solvers, built on the rep's pool:
  // scenario i is solver i / 4, measure (i / 2) % 2, model i % 2.
  const auto fresh_batch = [&](ThreadPool& pool) {
    BatchRequest batch;
    batch.scenarios.resize(solvers.size() * 4);
    pool.parallel_for(batch.scenarios.size(), [&](std::size_t i) {
      const Model& model = models[i % 2];
      SolverConfig config;
      config.epsilon = eps;
      config.regenerative = model.regenerative;
      SweepScenario& scenario = batch.scenarios[i];
      scenario.solver = make_solver(solvers[i / 4], *model.chain,
                                    model.rewards, model.initial, config);
      scenario.request = {(i / 2) % 2 == 0 ? MeasureKind::kTrr
                                           : MeasureKind::kMrr,
                          grid, eps};
      scenario.chain = model.chain;
    });
    return batch;
  };

  std::printf(
      "scenario-sweep throughput: %zu scenarios "
      "(raid5-g20 + multiproc x %zu solvers x trr/mrr), %d-point grid to "
      "t=%g, eps=%g, best of %d reps (hardware threads: %d)\n\n",
      solvers.size() * 4, solvers.size(), points, tmax,
      eps, reps, ThreadPool::hardware_threads());

  TextTable table(
      {"jobs", "seconds", "scenarios/sec", "speedup", "deterministic"});
  std::vector<std::vector<double>> baseline;  // per-scenario values, jobs=1
  double baseline_rate = 0.0;
  struct JobsResult {
    int jobs = 0;
    double seconds = 0.0;
    double rate = 0.0;
    double speedup = 0.0;
  };
  std::vector<JobsResult> json_rows;
  for (const int jobs : jobs_list) {
    ThreadPool pool(jobs);
    SweepReport best;
    for (int rep = 0; rep < reps; ++rep) {
      const Stopwatch watch;
      SweepReport report = run_sweep(fresh_batch(pool), pool);
      report.seconds = watch.seconds();  // the builds included
      if (rep == 0 || report.seconds < best.seconds) {
        best = std::move(report);
      }
    }
    if (best.failed() != 0) {
      std::fprintf(stderr, "error: %zu scenarios failed\n", best.failed());
      return 1;
    }

    bool deterministic = true;
    std::vector<std::vector<double>> values;
    values.reserve(best.results.size());
    for (const ScenarioResult& r : best.results) {
      values.push_back(r.report.values());
    }
    if (baseline.empty()) {
      baseline = values;
      baseline_rate = best.scenarios_per_second();
    } else {
      deterministic = values == baseline;  // bitwise, the engine's contract
    }

    const double speedup =
        best.scenarios_per_second() / std::max(baseline_rate, 1e-300);
    table.add_row({std::to_string(jobs), fmt_sig(best.seconds, 4),
                   fmt_sig(best.scenarios_per_second(), 4),
                   fmt_sig(speedup, 3), deterministic ? "yes" : "NO"});
    json_rows.push_back(
        {jobs, best.seconds, best.scenarios_per_second(), speedup});
    if (!deterministic) {
      std::fprintf(stderr,
                   "error: values at %d jobs differ from the 1-job run\n",
                   jobs);
      return 1;
    }
  }
  table.print();
  std::printf(
      "\nScenarios are scheduled dynamically (one shared cursor), so the\n"
      "expensive SR passes and cheap RRL inversions load-balance; values\n"
      "are reduced by scenario index and bit-identical at every job count.\n"
      "Speedup saturates at min(#scenarios, hardware threads).\n");

  {
    bench::BenchJson json(args, "sweep_throughput", "BENCH_sweep.json");
    json.field("scenarios", solvers.size() * 4)
        .field("points", points)
        .field("tmax", tmax)
        .field("eps", eps)
        .field("reps", reps);
    if (json) {
      std::ostream& out = json.raw("results");
      out << "[";
      for (std::size_t i = 0; i < json_rows.size(); ++i) {
        const JobsResult& r = json_rows[i];
        out << (i == 0 ? "\n" : ",\n")
            << "    {\"jobs\": " << r.jobs << ", \"seconds\": " << r.seconds
            << ", \"scenarios_per_sec\": " << r.rate
            << ", \"speedup\": " << r.speedup << "}";
      }
      out << "\n  ]";
    }
  }
  return 0;
}
