// Shared-pass randomization throughput: scenarios/sec of a warm
// shared-model epsilon sweep, per-scenario solves vs one shared pass.
//
// The workload is the study subsystem's hot shape: ONE compiled SR solver
// over a banded synthetic CTMC, driven by a family of scenarios that vary
// only the request (epsilon x TRR/MRR). Per-scenario, each solve steps its
// own randomization pass; with sharing the sweep engine hands the
// scenarios out as one unit, and the solver's solve_shared steps ONE
// iterate pi_0 P^n for all of them — each step's reward dot feeds every
// scenario still inside its truncation point (TransientSolver::
// solve_shared). This harness runs the identical batch both ways
// (BatchRequest::spmm off/on, same pool, same workspaces), byte-compares
// every report value, and asserts the throughput ratio:
//
//   scenarios/sec (shared) / scenarios/sec (per-scenario)  >=  --min-speedup
//
// The shared pass runs the same SpMV kernel as the per-scenario path, so
// the bound (default 1.8x) is enforced under every kernel, RRL_KERNEL=scalar
// included; under RRL_SPMM=off both runs are per-scenario and the run is a
// determinism smoke whose bound is reported as skipped.
//
// Usage:
//   spmm_batch [--states 20000] [--cols 8] [--tmax 100] [--eps 1e-9]
//              [--reps 3] [--min-speedup 1.8] [--json-out BENCH_spmm.json]
// Environment: RRL_BENCH_QUICK=1 shrinks the model and reps for CI.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "rrl.hpp"

namespace {

using namespace rrl;

// Banded irreducible CTMC: a ring (guarantees one SCC) plus a few
// wrap-around bands with LCG-seeded rates — ~6 nnz/row at any size, the
// shape where an SpMV is memory-bound and the SpMM's matrix-traffic
// amortization is visible. Deterministic: same n, same chain.
Ctmc banded_chain(index_t n) {
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  const auto next_rate = [&lcg]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return 0.1 + 0.9 * static_cast<double>(lcg >> 11) * 0x1.0p-53;
  };
  std::vector<Triplet> rates;
  rates.reserve(static_cast<std::size_t>(n) * 6);
  const index_t bands[] = {3, 17, 101, 997, 7919};
  for (index_t i = 0; i < n; ++i) {
    rates.push_back({i, (i + 1) % n, next_rate()});  // the ring
    for (const index_t b : bands) {
      if (b < n) rates.push_back({i, (i + b) % n, next_rate()});
    }
  }
  return Ctmc::from_transitions(n, std::move(rates));
}

// Sparse rewards (every 13th state) — exercises the sparse reward dot
// exactly like a dependability measure with few "down" states.
std::vector<double> sparse_rewards(index_t n) {
  std::vector<double> r(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; i += 13) {
    r[static_cast<std::size_t>(i)] = 1.0 + 0.5 * static_cast<double>(i % 7);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrl;
  const bool quick = env_flag("RRL_BENCH_QUICK");
  const CliArgs args(argc, argv);
  const index_t n = static_cast<index_t>(
      args.get_long("states", quick ? 4000 : 20000));
  const int cols = static_cast<int>(args.get_long("cols", 8));
  const double tmax = args.get_double("tmax", quick ? 30.0 : 100.0);
  const double eps = args.get_double("eps", 1e-9);
  const int reps =
      static_cast<int>(args.get_long("reps", quick ? 1 : 3));
  const double min_speedup = args.get_double("min-speedup", 1.8);

  const Ctmc chain = banded_chain(n);
  const std::vector<double> rewards = sparse_rewards(n);
  std::vector<double> initial(static_cast<std::size_t>(n), 0.0);
  initial[0] = 1.0;

  // ONE shared compiled solver — the engine groups by instance identity.
  SrOptions options;
  options.epsilon = eps;
  const auto solver = std::make_shared<StandardRandomization>(
      chain, rewards, initial, options);

  // Every scenario is this one with its own measure and epsilon.
  SweepScenario prototype;
  prototype.solver = solver;
  prototype.request.times = log_time_grid(1.0, tmax, 4);
  prototype.chain = &chain;
  BatchRequest batch;
  for (int c = 0; c < cols; ++c) {
    // Epsilons spread over three decades above the compiled floor; the
    // readers then stop at different truncation points of the one pass.
    const double col_eps = eps * std::pow(10.0, 3.0 * c / std::max(1, cols));
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      SweepScenario& scenario = batch.scenarios.emplace_back(prototype);
      scenario.request.measure = measure;
      scenario.request.epsilon = col_eps;
    }
  }

  std::printf(
      "shared pass: %d scenarios (1 shared SR solver, %d epsilons"
      " x trr/mrr), %lld states, %lld transitions, t<=%g, eps floor %g\n"
      "kernel: %s, sharing: %s, best of %d reps\n\n",
      static_cast<int>(batch.scenarios.size()), cols,
      static_cast<long long>(chain.num_states()),
      static_cast<long long>(chain.num_transitions()), tmax, eps,
      active_kernels().name, spmm_enabled() ? "on" : "off (RRL_SPMM)", reps);

  // Same pool and workspaces for both paths; the first run warms the
  // buffers so neither path pays first-touch allocation. A single worker
  // measures the kernel, not threading.
  ThreadPool pool(1);
  std::vector<SolveWorkspace> workspaces;
  const auto timed = [&](bool spmm) {
    batch.spmm = spmm;
    SweepReport best;
    for (int rep = 0; rep < reps + 1; ++rep) {
      SweepReport report = run_sweep(batch, pool, workspaces);
      // rep 0 is the warm-up and never counts.
      if (rep == 1 || (rep > 1 && report.seconds < best.seconds)) {
        best = std::move(report);
      }
    }
    return best;
  };

  const SweepReport ref = timed(false);
  const SweepReport spmm = timed(true);
  for (const SweepReport* rep : {&ref, &spmm}) {
    if (rep->failed() != 0) {
      for (const ScenarioResult& r : rep->results) {
        if (!r.ok()) std::fprintf(stderr, "error: %s\n", r.error.c_str());
      }
      return 1;
    }
  }

  // Byte-identity: sharing must be invisible in every report value.
  bool identical = ref.results.size() == spmm.results.size();
  for (std::size_t i = 0; identical && i < ref.results.size(); ++i) {
    const std::vector<double> a = ref.results[i].report.values();
    const std::vector<double> b = spmm.results[i].report.values();
    identical = a.size() == b.size() &&
                (a.empty() || std::memcmp(a.data(), b.data(),
                                          a.size() * sizeof(double)) == 0);
  }

  const double ref_rate = ref.scenarios_per_second();
  const double spmm_rate = spmm.scenarios_per_second();
  const double speedup = ref_rate > 0.0 ? spmm_rate / ref_rate : 0.0;

  TextTable table({"path", "seconds", "scenarios/sec", "speedup"});
  table.add_row({"per-scenario", fmt_sig(ref.seconds, 4),
                 fmt_sig(ref_rate, 4), "1.00"});
  table.add_row({"shared pass", fmt_sig(spmm.seconds, 4),
                 fmt_sig(spmm_rate, 4), fmt_sig(speedup, 3)});
  table.print();
  std::printf("\nreports byte-identical: %s\n", identical ? "yes" : "NO");

  // The perf bound is only meaningful when sharing actually ran; under
  // RRL_SPMM=off this invocation is a determinism smoke.
  const bool bound_enforced = spmm_enabled();

  {
    bench::BenchJson json(args, "spmm_batch", "BENCH_spmm.json");
    json.field("states", static_cast<std::int64_t>(chain.num_states()))
        .field("transitions",
               static_cast<std::int64_t>(chain.num_transitions()))
        .field("scenarios", static_cast<std::int64_t>(ref.results.size()))
        .field("tmax", tmax)
        .field("eps", eps)
        .field("reps", reps)
        .field("ref_seconds", ref.seconds)
        .field("spmm_seconds", spmm.seconds)
        .field("ref_scenarios_per_sec", ref_rate)
        .field("spmm_scenarios_per_sec", spmm_rate)
        .field("speedup", speedup)
        .field("min_speedup", min_speedup)
        .field("identical", identical)
        .field("bound_enforced", bound_enforced);
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: the shared pass changed report values (determinism "
                 "contract broken)\n");
    return 1;
  }
  if (!bound_enforced) {
    std::printf("PASS (speedup bound skipped: RRL_SPMM=off)\n");
    return 0;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.3f < required %.3f\n", speedup,
                 min_speedup);
    return 1;
  }
  std::printf("PASS: speedup %.3f >= %.3f, byte-identical\n", speedup,
              min_speedup);
  return 0;
}
