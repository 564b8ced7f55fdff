// Shared V-pass throughput: many RR scenarios sharing ONE compiled schema,
// answered by one solve_shared (one ~Lambda*t V-pass feeding every
// scenario's Poisson mixtures) vs per-scenario solve_grid (each scenario
// its own V-pass). The schema memo is warmed before either mode, so the
// comparison isolates exactly the execute phase the sharing targets, and
// the harness ASSERTS the >= 1.5x scenarios/sec bound (exit code 1 on
// violation, so CI tracks the regression) after checking the values are
// bit-identical.
//
// Usage:
//   vsolve_batch [--eps 1e-12] [--tmax 1e4] [--grids 8] [--reps 3]
//                [--min-speedup 1.5] [--json-out BENCH_vsolve_batch.json]
// Environment: RRL_BENCH_QUICK=1 shrinks reps for CI.
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "rrl.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rrl;
  const CliArgs args(argc, argv);
  const bool quick = env_flag("RRL_BENCH_QUICK");
  const double eps = args.get_double("eps", 1e-12);
  const double tmax = args.get_double("tmax", quick ? 1e3 : 1e4);
  const int grids = static_cast<int>(args.get_long("grids", 8));
  const int reps = static_cast<int>(args.get_long("reps", quick ? 1 : 3));
  const double min_speedup = args.get_double("min-speedup", 1.5);

  const Raid5Model raid = build_raid5_availability(bench::paper_params(20));
  SolverConfig config;
  config.epsilon = eps;
  config.regenerative = raid.initial_state;
  const std::shared_ptr<const TransientSolver> shared =
      make_solver("rr", raid.chain, raid.failure_rewards(),
                  raid.initial_distribution(), config);

  // The single-schema batch: every grid tops out at tmax (different
  // windows and resolutions below it) x both measures, so all scenarios
  // key to ONE (t_max, eps) compiled schema and share one pass.
  std::vector<SolveRequest> requests;
  for (int g = 0; g < grids; ++g) {
    const double lo = 1.0 + static_cast<double>(g);
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      SolveRequest request;
      request.measure = measure;
      request.times = log_time_grid(lo, tmax, 2 + g % 3);
      requests.push_back(std::move(request));
    }
  }

  std::vector<const SolveRequest*> ptrs;
  ptrs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0 && !shared->shares_pass(requests.front(), requests[i])) {
      std::fprintf(stderr, "error: scenario %zu does not share the pass\n",
                   i);
      return 1;
    }
    ptrs.push_back(&requests[i]);
  }

  std::printf(
      "shared V-pass: %zu RR scenarios on raid5-g20 sharing one compiled "
      "schema (t_max=%g, eps=%g), best of %d reps\n\n",
      requests.size(), tmax, eps, reps);

  // Warm the schema memo so both modes measure only the V-pass phase.
  (void)shared->solve_grid(requests.front());

  double serial_seconds = 0.0;
  std::vector<SolveReport> serial_reports(requests.size());
  for (int rep = 0; rep < reps; ++rep) {
    const Stopwatch watch;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      serial_reports[i] = shared->solve_grid(requests[i]);
    }
    const double seconds = watch.seconds();
    if (rep == 0 || seconds < serial_seconds) serial_seconds = seconds;
  }

  double batched_seconds = 0.0;
  std::vector<SharedResult> batched;
  SolveWorkspace workspace;
  for (int rep = 0; rep < reps; ++rep) {
    const Stopwatch watch;
    batched = shared->solve_shared(ptrs, workspace);
    const double seconds = watch.seconds();
    if (rep == 0 || seconds < batched_seconds) batched_seconds = seconds;
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (batched[i].error) {
      try {
        std::rethrow_exception(batched[i].error);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: scenario %zu failed: %s\n", i,
                     e.what());
      }
      return 1;
    }
    const std::vector<double> got = batched[i].report.values();
    const std::vector<double> want = serial_reports[i].values();
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) !=
            0) {
      std::fprintf(stderr,
                   "error: scenario %zu differs between the shared pass and "
                   "per-scenario stepping\n",
                   i);
      return 1;
    }
  }

  const auto n = static_cast<double>(requests.size());
  const double serial_rate = n / serial_seconds;
  const double batched_rate = n / batched_seconds;
  const double speedup = batched_rate / serial_rate;

  TextTable table({"mode", "seconds", "scenarios/sec", "speedup"});
  table.add_row({"per-scenario V-pass", fmt_sig(serial_seconds, 4),
                 fmt_sig(serial_rate, 4), "1"});
  table.add_row({"shared V-pass", fmt_sig(batched_seconds, 4),
                 fmt_sig(batched_rate, 4), fmt_sig(speedup, 3)});
  table.print();
  std::printf("\nvalues bit-identical to per-scenario stepping: yes\n");

  {
    bench::BenchJson json(args, "vsolve_batch", "BENCH_vsolve_batch.json");
    json.field("scenarios", requests.size())
        .field("eps", eps)
        .field("tmax", tmax)
        .field("serial_seconds", serial_seconds)
        .field("batched_seconds", batched_seconds)
        .field("serial_scenarios_per_sec", serial_rate)
        .field("batched_scenarios_per_sec", batched_rate)
        .field("speedup", speedup)
        .field("min_speedup", min_speedup);
  }

  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: shared V-pass speedup %.3g < required %.3g\n",
                 speedup, min_speedup);
    return 1;
  }
  std::printf("PASS: shared V-pass speedup %.3g >= %.3g\n", speedup,
              min_speedup);
  return 0;
}
