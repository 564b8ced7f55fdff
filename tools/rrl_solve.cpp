// rrl_solve — command-line front end to the library.
//
//   rrl_solve --model m.rrlm --t 10,100,1000 [--measure trr|mrr|both]
//             [--solver sr|rsd|rr|rrl|krylov] [--eps 1e-12]
//             [--regenerative auto|<index>] [--bounds]
//   rrl_solve --model m.rrlm --t-grid 1:1e5:20        # 20 log-spaced points
//   rrl_solve --model a.rrlm,b.rrlm --solvers all --jobs 4 --t 1,10,100
//   rrl_solve --model m.rrlm --measure both --eps 1e-8,1e-12 --t 1,100
//   rrl_solve --study s.study [--shard 2/3] [--jobs 4] [--out shard2.csv]
//   rrl_solve --serve --workers 3 --study s.study [--out report.csv]
//   rrl_solve --serve --listen 7411 --workers 2 --study s.study   # + TCP
//   rrl_solve --connect host:7411 --study s.study                 # remote
//   rrl_solve --merge s1.csv,s2.csv,s3.csv [--out report.csv]
//   rrl_solve --cache-gc --cache-dir DIR [--cache-cap BYTES]
//   rrl_solve --export raid20|raid40|multiproc --output m.rrlm
//   rrl_solve --list-solvers
//
// Solvers are selected by registry name (see src/core/registry.hpp), and a
// whole time grid is answered by one amortized solve_grid() sweep — for
// SR/RSD/RR the grid costs about as much as a single solve at the largest
// time. A single solve lends the solver a pool of every hardware thread
// if it would use one (pooled products, RRL's per-point inversions); in
// batch mode --jobs is the whole thread budget. The model file format is
// documented in src/io/model_format.hpp.
// With --export the built-in generators are serialized so they can be
// edited or fed to other tools.
//
// Batch mode (--solvers/--jobs, a comma-separated --model list, --measure
// both, or an --eps list) fans every model x solver x measure x epsilon
// scenario across a worker pool through the sweep engine
// (src/core/sweep_engine.hpp), sharing one compiled solver per (model,
// solver) via the solver cache, and prints one deterministic result table:
// values are identical for every --jobs count and bit-identical to fresh
// per-scenario construction, and a scenario that fails (e.g. rsd on an
// absorbing chain) reports its error without sinking the rest of the
// batch.
//
// Study mode (--study, src/study/) expands a cartesian .study declaration
// (models x solvers x measures x epsilons x grids), optionally slices one
// deterministic round-robin shard (--shard k/N), and emits a mergeable
// CSV report; --merge order-restores shard outputs into byte-for-byte the
// unsharded report (and exits nonzero when the merged study contains
// failed scenarios). --timings appends per-scenario wall-time and
// cache-tier diagnostic columns (excluded from byte-compare mode). See
// README.md for the grammar and a 2-process example.
//
// Serve mode (--serve --workers N, src/study/study_dispatch.hpp) runs the
// same study through the plan/dispatch/execute/reduce pipeline: the
// parent spawns N worker processes (the hidden --worker mode of this
// binary), hands out the planner's (model, solver) work units dynamically
// — work-stealing, so one heavy model never idles the fleet; a worker
// lost mid-unit has its unit re-dispatched — and streams finished units
// into the report incrementally. The merged report is byte-for-byte the
// single-process unsharded report for any worker count and completion
// order. --listen PORT additionally accepts remote workers (`rrl_solve
// --connect host:port` on other machines) into the same fleet — they may
// join and leave mid-run, heartbeat so hangs are detected, and pull
// compiled artifacts from the parent's --cache-dir over the wire instead
// of recompiling. --workers 0 / --jobs 0 mean one per hardware thread;
// --no-local (with --listen) runs a remote-only fleet.
//
// --cache-gc sweeps a --cache-dir artifact store: leftover temp files and
// corrupt entries are removed, and --cache-cap <bytes> evicts least-
// recently-used entries until the store fits.
//
// Caching (batch and study modes): one in-memory compiled solver is
// shared per (model, solver, config); --cache-dir DIR adds the
// cross-process disk tier (study/artifact_store.hpp) so a repeated run —
// or the other shards of a --shard k/N run — skips the schema
// compilation and still reproduces the cold report byte-for-byte. --cold
// skips disk reads but refreshes the store; --cache-stats prints
// hit/miss/load/store counters for both tiers; --no-cache bypasses both
// tiers entirely.
//
// Observability (any mode): --trace FILE collects scoped spans and writes
// a Perfetto-loadable Chrome trace JSON on exit; --metrics-out FILE dumps
// the process's metrics registry in Prometheus text format. Serve mode
// adds --stats-interval-ms (live fleet progress lines on stderr), a
// per-worker --timings table, and per-worker/fleet counters in --json.
// None of it perturbs results: reports are byte-identical with
// observability on or off (see README "Observability").
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "io/model_format.hpp"
#include "io/model_solver.hpp"
#include "io/net_transport.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/self_exe.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace {

using namespace rrl;

// --regenerative <index> (callers handle "auto"): a state index, so a
// negative value or one past index_t cannot wrap to another state or to
// a sentinel.
index_t regenerative_index(const CliArgs& args) {
  const long value = args.get_long("regenerative", 0);
  if (value < 0 || value > std::numeric_limits<index_t>::max()) {
    throw contract_error("--regenerative needs auto or a state index, got '" +
                         args.get_string("regenerative", "") + "'");
  }
  return static_cast<index_t>(value);
}

// Disk tier plumbing shared by study and batch modes: --cache-dir attaches
// the on-disk artifact store to the solver cache (--cold keeps writing but
// skips reads, refreshing the store from a from-scratch compile), and
// --no-cache bypasses BOTH tiers — no memory sharing, no disk reads, no
// disk writes (the pre-cache per-scenario behavior, kept for equivalence
// testing).
// --jobs 0 / --workers 0 mean "one per hardware thread". Explicit only:
// an absent flag keeps each mode's own default (a study file's jobs
// line, serve's 2 local workers, ...). A count above kMaxJobs is refused
// here, before any pool starts or worker forks.
int resolve_count(const CliArgs& args, const char* flag, int fallback) {
  const int value = args.get_count(flag, fallback, kMaxJobs);
  if (value == 0 && args.has(flag)) return ThreadPool::hardware_threads();
  return value;
}

std::shared_ptr<ArtifactStore> attach_disk_tier(const CliArgs& args,
                                                SolverCache& cache) {
  const std::string dir = args.get_string("cache-dir", "");
  if (dir.empty() || args.get_bool("no-cache", false)) return nullptr;
  auto store = std::make_shared<ArtifactStore>(dir);
  cache.attach_store(store, /*read=*/!args.get_bool("cold", false));
  return store;
}

// Cache-tier accounting, single-sourced from the metrics registry: the
// instrumented SolverCache / ArtifactStore increments are the ONLY place
// these numbers are counted, and both human-readable (--cache-stats) and
// machine-readable (--json "cache"/"disk" objects) views format the same
// snapshot. One rrl_solve process runs exactly one study/batch, so the
// process-wide counters ARE the run's counters.
struct CacheStatsView {
  std::uint64_t memory_hits = 0;    ///< solver-cache "shared"
  std::uint64_t memory_misses = 0;
  std::uint64_t compiles = 0;       ///< solver-cache "compiled": cold misses
  std::uint64_t schema_builds = 0;  ///< schemas materialized, cuts included
  std::uint64_t schema_cuts = 0;    ///< ... of which cut from a longer one
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_misses = 0;
  std::uint64_t disk_stores = 0;
  std::uint64_t invalid = 0;  ///< corrupt store entries rejected on load
};

CacheStatsView cache_stats_view() {
  const metrics::MetricsSnapshot snap = metrics::snapshot();
  CacheStatsView v;
  v.memory_hits = snap.value("rrl_cache_memory_hits_total");
  v.memory_misses = snap.value("rrl_cache_memory_misses_total");
  v.compiles = snap.value("rrl_solver_compiles_total");
  v.schema_builds = snap.value("rrl_cache_schema_builds_total");
  v.schema_cuts = snap.value("rrl_cache_schema_cuts_total");
  v.disk_hits = snap.value("rrl_cache_disk_hits_total");
  v.disk_misses = snap.value("rrl_cache_disk_misses_total");
  v.disk_stores = snap.value("rrl_cache_disk_stores_total");
  v.invalid = snap.value("rrl_artifact_invalid_total");
  return v;
}

// --cache-stats: hit/miss/load/store counters for both tiers, plus the
// regenerative schemas materialized in memory (stepped or cut). The disk
// numbers are the CACHE's view (solver warm-starts), matching the --json
// output.
void print_cache_stats(std::FILE* out, bool disk_tier) {
  const CacheStatsView v = cache_stats_view();
  std::fprintf(out,
               "cache stats: memory %llu hits / %llu misses; schemas: %llu "
               "built (%llu cut)",
               static_cast<unsigned long long>(v.memory_hits),
               static_cast<unsigned long long>(v.memory_misses),
               static_cast<unsigned long long>(v.schema_builds),
               static_cast<unsigned long long>(v.schema_cuts));
  if (!disk_tier) {
    std::fprintf(out, "; disk tier off\n");
    return;
  }
  std::fprintf(
      out, "; disk %llu hits / %llu misses, %llu stored (%llu invalid)\n",
      static_cast<unsigned long long>(v.disk_hits),
      static_cast<unsigned long long>(v.disk_misses),
      static_cast<unsigned long long>(v.disk_stores),
      static_cast<unsigned long long>(v.invalid));
}

int export_model(const std::string& which, const std::string& output) {
  if (which == "raid20" || which == "raid40") {
    Raid5Params p;
    p.groups = which == "raid20" ? 20 : 40;
    const Raid5Model m = build_raid5_availability(p);
    write_model_file(output, m.chain, m.failure_rewards(),
                     m.initial_distribution(), m.initial_state);
  } else if (which == "multiproc") {
    const MultiprocModel m = build_multiproc_availability({});
    write_model_file(output, m.chain, m.failure_rewards(),
                     m.initial_distribution(), m.initial_state);
  } else {
    std::fprintf(stderr, "unknown --export '%s' (raid20|raid40|multiproc)\n",
                 which.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

int list_solvers() {
  std::printf("registered solvers:\n");
  for (const std::string& name : registered_solvers()) {
    std::printf("  %-6s %s\n", name.c_str(),
                solver_description(name).c_str());
  }
  return 0;
}

std::vector<double> requested_times(const CliArgs& args) {
  if (args.has("t-grid")) {
    // lo:hi:count, log-spaced inclusive.
    // Each grid point precomputes a Poisson window (~MBs at the paper's
    // largest Lambda*t), so the count is bounded to keep memory sane.
    constexpr double kMaxGridPoints = 10000.0;
    const auto spec = parse_double_list(args.get_string("t-grid", ""), ':');
    if (spec.size() != 3 || spec[0] <= 0.0 || spec[1] < spec[0] ||
        spec[2] < 1.0 || spec[2] > kMaxGridPoints ||
        spec[2] != std::floor(spec[2])) {
      std::fprintf(stderr,
                   "error: --t-grid expects lo:hi:count with 0 < lo <= hi "
                   "and an integer 1 <= count <= %g\n",
                   kMaxGridPoints);
      return {};
    }
    return log_time_grid(spec[0], spec[1], static_cast<int>(spec[2]));
  }
  std::vector<double> ts = parse_double_list(args.get_string("t", ""));
  for (const double t : ts) {
    if (t <= 0.0) {
      std::fprintf(stderr, "error: --t needs times > 0, got %g\n", t);
      return {};
    }
  }
  if (ts.empty()) {
    std::fprintf(stderr, "error: no valid time points in --t\n");
  }
  return ts;
}

int solve_with_bounds(const ModelFile& model, index_t regenerative,
                      const std::vector<double>& ts, double eps,
                      bool want_mrr) {
  // Rigorous bracketing is an RRL-only capability, so --bounds bypasses the
  // registry interface and talks to the concrete class.
  RrlOptions opt;
  opt.epsilon = eps;
  const RegenerativeRandomizationLaplace solver(
      model.chain, model.rewards, model.initial, regenerative, opt);
  TextTable table({"t", "value", "lower", "upper", "steps"});
  const MeasureKind kind = want_mrr ? MeasureKind::kMrr : MeasureKind::kTrr;
  for (const double t : ts) {
    const auto b = solver.bounds(t, kind);
    table.add_row({fmt_sig(t, 6), fmt_sci(b.value, 9), fmt_sci(b.lower, 9),
                   fmt_sci(b.upper, 9), std::to_string(b.stats.dtmc_steps)});
  }
  std::printf("%s(t) bounds, solver=rrl, eps=%g:\n", want_mrr ? "MRR" : "TRR",
              eps);
  table.print();
  return 0;
}

// Batch mode: every model x solver x measure x epsilon scenario through
// the sweep engine, sharing one compiled solver per (model, solver, config)
// via the solver cache.
int run_batch(const CliArgs& args,
              const std::vector<std::string>& model_paths,
              const std::vector<double>& ts,
              const std::vector<double>& eps_list,
              const std::vector<MeasureKind>& measures) {
  // --solvers wins; a bare --solver narrows the batch to that one method;
  // neither means every registered solver.
  std::string solvers_arg = args.get_string("solvers", "");
  if (solvers_arg.empty()) solvers_arg = args.get_string("solver", "all");
  std::vector<std::string> solver_names;
  if (solvers_arg == "all") {
    solver_names = registered_solvers();
  } else {
    solver_names = parse_string_list(solvers_arg);
    for (const std::string& name : solver_names) {
      if (!solver_registered(name)) {
        std::fprintf(stderr,
                     "error: unknown solver '%s' in --solvers "
                     "(registered: %s)\n",
                     name.c_str(), registered_solver_list().c_str());
        return 2;
      }
    }
  }
  if (solver_names.empty()) {
    std::fprintf(stderr, "error: --solvers selected no solver\n");
    return 2;
  }

  // The batch is a one-grid study: the expansion, solver-cache
  // resolution protocol (canonical construction epsilon, file-hint
  // handling, per-scenario fallback on construction failure) and the
  // deterministic ordering all live in run_study — batch mode and study
  // mode can never drift apart.
  StudySpec spec;
  spec.models = model_paths;
  spec.model_labels = model_paths;
  spec.solvers = solver_names;
  spec.measures = measures;
  spec.epsilons = eps_list;
  spec.grids = {ts};
  spec.jobs = resolve_count(args, "jobs", 1);
  // --regenerative (an index for every model, or "auto") overrides each
  // file's hint; otherwise the hint, or auto-selection inside the
  // registry when the file has none.
  const std::string regen_arg = args.get_string("regenerative", "");
  spec.regenerative =
      regen_arg.empty()
          ? kRegenerativeFromModel
          : (regen_arg == "auto" ? index_t{-1} : regenerative_index(args));

  // Pre-validate the models with a friendlier message than the per-
  // scenario solver errors; the repository interns the parses, so
  // run_study reuses them.
  ModelRepository repository;
  for (const std::string& path : model_paths) {
    if (!classify_structure(repository.load(path)->file.chain).valid) {
      std::fprintf(stderr,
                   "error: %s: the non-absorbing states are not strongly "
                   "connected (the paper's structural assumption)\n",
                   path.c_str());
      return 1;
    }
  }

  SolverCache cache;
  const std::shared_ptr<ArtifactStore> store =
      attach_disk_tier(args, cache);
  StudyOptions options;
  options.use_cache = !args.get_bool("no-cache", false);
  const StudyRun run = run_study(spec, repository, cache, options);
  if (store != nullptr) cache.flush_to_store();
  if (args.get_bool("cache-stats", false)) {
    print_cache_stats(stdout, store != nullptr);
  }

  const CacheStatsView v = cache_stats_view();
  std::printf("batch sweep: %zu scenarios (%zu models x %zu solvers x "
              "%zu measures x %zu epsilons), jobs=%d, solver cache: "
              "%llu built, %llu shared\n",
              run.scenarios.size(), model_paths.size(), solver_names.size(),
              measures.size(), eps_list.size(), run.sweep.jobs,
              static_cast<unsigned long long>(v.compiles),
              static_cast<unsigned long long>(v.memory_hits));
  TextTable table({"model", "solver", "measure", "eps", "t", "value",
                   "steps"});
  for (std::size_t s = 0; s < run.scenarios.size(); ++s) {
    const StudyScenario& scenario = run.scenarios[s];
    const ScenarioResult& result = run.sweep.results[s];
    const std::string measure = measure_name(scenario.measure);
    const std::string eps = fmt_sig(scenario.epsilon, 3);
    if (!result.ok()) {
      table.add_row({scenario.model, scenario.solver, measure, eps, "-",
                     "FAILED", "-"});
      continue;
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const TransientValue& p = result.report.points[i];
      table.add_row({scenario.model, scenario.solver, measure, eps,
                     fmt_sig(ts[i], 6), fmt_sci(p.value, 9),
                     std::to_string(p.stats.dtmc_steps)});
    }
  }
  table.print();
  for (std::size_t s = 0; s < run.sweep.results.size(); ++s) {
    if (!run.sweep.results[s].ok()) {
      std::fprintf(stderr, "scenario %s/%s/%s failed: %s\n",
                   run.scenarios[s].model.c_str(),
                   run.scenarios[s].solver.c_str(),
                   measure_name(run.scenarios[s].measure),
                   run.sweep.results[s].error.c_str());
    }
  }
  std::printf("batch total: %zu scenarios (%zu failed), %.3gs, "
              "%.3g scenarios/sec\n",
              run.sweep.results.size(), run.sweep.failed(),
              run.sweep.seconds, run.sweep.scenarios_per_second());
  return run.sweep.failed() == 0 ? 0 : 1;
}

// Worker modes. --worker (hidden, spawned by --serve) talks to its parent
// over the stdio pipes, so everything human-readable goes to stderr —
// stdout carries frames only. --connect host:port talks over one TCP
// socket to a parent on another machine, with a heartbeat thread (the
// parent's hang detection) and the parent-served artifact fetch (its
// --cache-dir cannot be reached from here). Both re-read and re-plan the
// study, which must describe the one the parent planned (shared
// filesystem or a copied file; the fingerprint handshake verifies it),
// then execute whatever units the parent assigns.
int run_worker_mode(const CliArgs& args, bool remote) {
  const std::string study_path = args.get_string("study", "");
  if (study_path.empty()) {
    std::fprintf(stderr, "error: --%s needs --study <file.study>\n",
                 remote ? "connect" : "worker");
    return 2;
  }
  const StudySpec spec = read_study_file(study_path);
  ModelRepository repository;
  const StudyPlan plan = build_study_plan(spec, repository);

  SolverCache cache;
  const std::shared_ptr<ArtifactStore> store =
      attach_disk_tier(args, cache);
  WorkerOptions options;
  options.jobs = resolve_count(args, "jobs", spec.jobs);
  options.use_cache = !args.get_bool("no-cache", false);
  options.die_after_units =
      static_cast<int>(args.get_long("test-die-after", -1));
  options.die_delay_ms =
      static_cast<int>(args.get_long("test-die-delay-ms", 0));
  options.deaf_after_units =
      static_cast<int>(args.get_long("test-deaf-after", -1));
  options.mute_after_units =
      static_cast<int>(args.get_long("test-mute-after", -1));
  if (!remote) {
    return run_worker_loop(
        plan, cache, options,
        FrameChannel(STDIN_FILENO, STDOUT_FILENO, /*is_socket=*/false));
  }
  options.heartbeat_ms =
      static_cast<int>(args.get_long("heartbeat-ms", 1000));
  options.fetch_artifacts = !args.get_bool("no-fetch", false);
  const HostPort target = parse_host_port(args.get_string("connect", ""));
  const int fd = tcp_connect(target.host, target.port);
  std::fprintf(stderr, "worker: connected to %s:%d\n", target.host.c_str(),
               target.port);
  return run_worker_loop(plan, cache, options,
                         FrameChannel(fd, fd, /*is_socket=*/true));
}

// Serve mode: the work-stealing multi-process orchestrator. Plans the
// study, spawns --workers copies of this binary in --worker mode (and,
// with --listen, accepts remote --connect workers over TCP), hands out
// work units dynamically and streams the merged report incrementally.
int run_serve_mode(const CliArgs& args, const char* argv0) {
  const std::string study_path = args.get_string("study", "");
  if (study_path.empty()) {
    std::fprintf(stderr, "error: --serve needs --study <file.study>\n");
    return 2;
  }
  if (args.has("shard")) {
    std::fprintf(stderr,
                 "error: --serve replaces static --shard slicing; drop "
                 "one of them\n");
    return 2;
  }
  const bool listening = args.has("listen");
  const bool no_local = args.get_bool("no-local", false);
  if (no_local && !listening) {
    std::fprintf(stderr,
                 "error: --no-local only makes sense with --listen (who "
                 "would do the work?)\n");
    return 2;
  }
  const int workers = no_local ? 0 : resolve_count(args, "workers", 2);
  if (workers < 1 && !listening) {
    std::fprintf(stderr,
                 "error: --workers must be >= 1 (or 0 for one per "
                 "hardware thread)\n");
    return 2;
  }

  const StudySpec spec = read_study_file(study_path);
  ModelRepository repository;
  const StudyPlan plan = build_study_plan(spec, repository);

  DispatchOptions options;
  options.workers = workers;
  // argv[0] fallback: serve then requires being invoked via a
  // resolvable path.
  options.worker_command = {self_exe_path(argv0), "--worker", "--study",
                            study_path};
  const auto forward = [&](const char* flag) {
    if (args.has(flag)) {
      options.worker_command.push_back(std::string("--") + flag);
      const std::string value = args.get_string(flag, "");
      if (value != "true") options.worker_command.push_back(value);
    }
  };
  forward("jobs");
  forward("cache-dir");
  forward("cold");
  forward("no-cache");

  options.heartbeat_timeout_ms =
      static_cast<int>(args.get_long("heartbeat-timeout-ms", 10000));
  // Live progress lines to stderr (observability only; the reduced
  // report is byte-identical with or without them).
  options.stats_interval_ms =
      static_cast<int>(args.get_long("stats-interval-ms", 0));

  // The parent's own handle on the artifact store, for serving remote
  // workers' artifact_request frames (--cache-dir is also forwarded to
  // local workers above, who reach the same store through the
  // filesystem).
  std::shared_ptr<ArtifactStore> store;
  const std::string cache_dir = args.get_string("cache-dir", "");
  if (!cache_dir.empty() && !args.get_bool("no-cache", false)) {
    store = std::make_shared<ArtifactStore>(cache_dir);
    options.artifact_store = store.get();
  }

  // --listen PORT arms the TCP listener (0 = ephemeral; the bound port
  // goes to stderr and, with --port-file, to a file scripts can poll).
  TcpListener listener;
  if (listening) {
    listener = tcp_listen(static_cast<int>(args.get_long("listen", 0)));
    options.listen_fd = listener.fd;
    std::fprintf(stderr, "serve: listening on port %d\n", listener.port);
    const std::string port_file = args.get_string("port-file", "");
    if (!port_file.empty()) {
      std::ofstream pf(port_file);
      pf << listener.port << "\n";
      if (!pf) {
        std::fprintf(stderr, "error: cannot write port file: %s\n",
                     port_file.c_str());
        ::close(listener.fd);
        return 1;
      }
    }
  }

  const bool timings = args.get_bool("timings", false);
  const std::string out_path = args.get_string("out", "");
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot open output file: %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  StudyReducer reducer(out, plan.total_scenarios, timings);
  const DispatchReport report = dispatch_study(plan, options, reducer);
  if (listener.fd >= 0) ::close(listener.fd);

  const std::size_t fleet_size =
      static_cast<std::size_t>(report.workers) + report.remote_workers;
  std::FILE* summary = out_path.empty() ? stderr : stdout;
  std::fprintf(summary,
               "serve: %llu scenarios in %zu work units over %d local + "
               "%zu remote workers (%zu failed), %.3gs, "
               "%.3g scenarios/sec\n"
               "dispatch: %zu workers lost, %zu units re-dispatched, "
               "%.0f%% fleet efficiency\n",
               static_cast<unsigned long long>(report.scenarios),
               report.units, report.workers, report.remote_workers,
               report.failed_scenarios, report.seconds,
               report.seconds > 0.0
                   ? static_cast<double>(report.scenarios) / report.seconds
                   : 0.0,
               report.workers_lost, report.redispatched,
               report.seconds > 0.0 && fleet_size > 0
                   ? 100.0 * report.worker_seconds /
                         (report.seconds *
                          static_cast<double>(fleet_size))
                   : 0.0);
  if (report.artifact_requests > 0 || report.remotes_rejected > 0) {
    std::fprintf(summary,
                 "fleet: %zu artifact requests served (%zu hits), "
                 "%zu remotes rejected\n",
                 report.artifact_requests, report.artifact_hits,
                 report.remotes_rejected);
  }

  // --timings: the per-worker utilization breakdown (busy = summed
  // per-unit solve wall-clock; util = busy / dispatch wall-clock).
  if (timings && !report.worker_stats.empty()) {
    TextTable workers_table(
        {"worker", "units", "scenarios", "busy-s", "util%"});
    for (const WorkerStats& ws : report.worker_stats) {
      const double util = report.seconds > 0.0
                              ? 100.0 * ws.busy_seconds / report.seconds
                              : 0.0;
      workers_table.add_row(
          {ws.lost ? ws.label + " (lost)" : ws.label,
           std::to_string(ws.units), std::to_string(ws.scenarios),
           fmt_sig(ws.busy_seconds, 4), fmt_sig(util, 3)});
    }
    std::fprintf(summary, "per-worker timings:\n");
    std::fflush(summary);
    workers_table.print(summary == stdout ? std::cout : std::cerr);
  }

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "error: cannot open json file: %s\n",
                   json_path.c_str());
      return 1;
    }
    json << "{\n"
         << "  \"total_scenarios\": " << plan.total_scenarios << ",\n"
         << "  \"units\": " << report.units << ",\n"
         << "  \"workers\": " << report.workers << ",\n"
         << "  \"remote_workers\": " << report.remote_workers << ",\n"
         << "  \"remotes_rejected\": " << report.remotes_rejected << ",\n"
         << "  \"failed\": " << report.failed_scenarios << ",\n"
         << "  \"workers_lost\": " << report.workers_lost << ",\n"
         << "  \"redispatched\": " << report.redispatched << ",\n"
         << "  \"artifact_requests\": " << report.artifact_requests
         << ",\n"
         << "  \"artifact_hits\": " << report.artifact_hits << ",\n"
         << "  \"seconds\": " << report.seconds << ",\n"
         << "  \"worker_seconds\": " << report.worker_seconds << ",\n";
    // Per-worker accounting: sum of "units" over worker_stats equals the
    // top-level "units" (every unit is completed by exactly one worker).
    json << "  \"worker_stats\": [";
    for (std::size_t i = 0; i < report.worker_stats.size(); ++i) {
      const WorkerStats& ws = report.worker_stats[i];
      json << (i == 0 ? "\n" : ",\n") << "    {\"label\": \"" << ws.label
           << "\", \"remote\": " << (ws.remote ? "true" : "false")
           << ", \"lost\": " << (ws.lost ? "true" : "false")
           << ", \"units\": " << ws.units
           << ", \"scenarios\": " << ws.scenarios
           << ", \"busy_seconds\": " << ws.busy_seconds
           << ", \"utilization\": "
           << (report.seconds > 0.0 ? ws.busy_seconds / report.seconds
                                    : 0.0)
           << "}";
    }
    json << (report.worker_stats.empty() ? "],\n" : "\n  ],\n");
    // Fleet-wide counter totals: every worker's latest metrics snapshot
    // summed by name (absolute per-process values; see WireStatsReport).
    json << "  \"fleet_counters\": {";
    for (std::size_t i = 0; i < report.fleet_counters.size(); ++i) {
      json << (i == 0 ? "\n" : ",\n") << "    \""
           << report.fleet_counters[i].first
           << "\": " << report.fleet_counters[i].second;
    }
    json << (report.fleet_counters.empty() ? "}\n" : "\n  }\n") << "}\n";
  }
  // Partial failures: results are all present (error rows included), and
  // the exit code says so — same contract as single-process study mode.
  return report.failed_scenarios == 0 ? 0 : 1;
}

// Cache maintenance: sweep a --cache-dir artifact store, optionally
// evicting down to --cache-cap bytes (LRU by last verified use).
int run_cache_gc_mode(const CliArgs& args) {
  const std::string dir = args.get_string("cache-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "error: --cache-gc needs --cache-dir DIR\n");
    return 2;
  }
  // get_double so caps read naturally ("--cache-cap 1e9"); a cap the
  // byte count cannot hold is an error, not a cast out of range.
  const double cap_bytes = args.get_double("cache-cap", 0.0);
  if (cap_bytes < 0.0 || cap_bytes >= 0x1p64) {
    throw contract_error("--cache-cap needs a byte count in [0, 2^64), got '" +
                         args.get_string("cache-cap", "") + "'");
  }
  const auto cap = static_cast<std::uint64_t>(cap_bytes);
  // A missing root would be a successful-looking empty sweep; refuse it
  // so a typo'd path cannot masquerade as a healthy store in a cron job.
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "error: --cache-dir is not a directory: %s\n",
                 dir.c_str());
    return 1;
  }
  const ArtifactStore store(dir);
  const ArtifactGcStats gc = store.gc(cap);
  std::printf(
      "cache-gc %s: %zu entries (%llu bytes), removed %zu temp + %zu "
      "invalid, evicted %zu",
      dir.c_str(), gc.scanned,
      static_cast<unsigned long long>(gc.bytes_before), gc.removed_temp,
      gc.removed_invalid, gc.evicted);
  if (cap > 0) {
    std::printf(" (cap %llu bytes)", static_cast<unsigned long long>(cap));
  }
  std::printf("; %llu bytes kept\n",
              static_cast<unsigned long long>(gc.bytes_after));
  return 0;
}

// Study mode: expand a .study declaration, solve one shard (or all of it),
// and write the mergeable CSV report.
int run_study_mode(const CliArgs& args) {
  StudyOptions options;
  const std::string shard_arg = args.get_string("shard", "");
  if (!shard_arg.empty()) {
    int k = 0, n = 0;
    char slash = 0;
    std::istringstream ss(shard_arg);
    if (!(ss >> k >> slash >> n) || slash != '/' || !ss.eof() || n < 1 ||
        k < 1 || k > n) {
      std::fprintf(stderr,
                   "error: --shard expects k/N with 1 <= k <= N (got "
                   "'%s')\n",
                   shard_arg.c_str());
      return 2;
    }
    options.shard = ShardSpec{k, n};
  }
  options.jobs = resolve_count(args, "jobs", 0);
  options.use_cache = !args.get_bool("no-cache", false);

  const StudySpec spec = read_study_file(args.get_string("study", ""));
  ModelRepository repository;
  SolverCache cache;
  const std::shared_ptr<ArtifactStore> store =
      attach_disk_tier(args, cache);
  const StudyRun run = run_study(spec, repository, cache, options);
  // Flush AFTER the sweep so the stored artifacts include the schemas the
  // scenarios actually computed — that is what makes the next process's
  // run skip the compilation.
  if (store != nullptr) cache.flush_to_store();

  const bool timings = args.get_bool("timings", false);
  const std::string out_path = args.get_string("out", "");
  const std::vector<ReportRow> rows = run.rows();
  if (out_path.empty()) {
    // CSV to stdout, human summary to stderr.
    write_report_csv(std::cout, run.total_scenarios, rows, timings);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open output file: %s\n",
                   out_path.c_str());
      return 1;
    }
    write_report_csv(out, run.total_scenarios, rows, timings);
  }

  std::FILE* summary = out_path.empty() ? stderr : stdout;
  const CacheStatsView v = cache_stats_view();
  std::fprintf(summary,
               "study: %llu scenarios total, shard %d/%d ran %zu "
               "(%zu failed), jobs=%d, %.3gs, %.3g scenarios/sec\n"
               "solver cache: %llu compiled, %llu shared; %zu distinct "
               "models\n",
               static_cast<unsigned long long>(run.total_scenarios),
               run.shard.index, run.shard.count, run.scenarios.size(),
               run.sweep.failed(), run.sweep.jobs, run.sweep.seconds,
               run.sweep.scenarios_per_second(),
               static_cast<unsigned long long>(v.compiles),
               static_cast<unsigned long long>(v.memory_hits),
               repository.size());
  if (args.get_bool("cache-stats", false)) {
    print_cache_stats(summary, store != nullptr);
  }
  for (std::size_t s = 0; s < run.sweep.results.size(); ++s) {
    if (!run.sweep.results[s].ok()) {
      std::fprintf(stderr, "scenario %llu (%s/%s/%s) failed: %s\n",
                   static_cast<unsigned long long>(run.scenarios[s].index),
                   run.scenarios[s].model.c_str(),
                   run.scenarios[s].solver.c_str(),
                   measure_name(run.scenarios[s].measure),
                   run.sweep.results[s].error.c_str());
    }
  }

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "error: cannot open json file: %s\n",
                   json_path.c_str());
      return 1;
    }
    // The cache/disk objects are formatted from the same metrics snapshot
    // as --cache-stats (cache_stats_view); warm-start tooling greps the
    // "disk" object, so the key shape is load-bearing.
    json << "{\n"
         << "  \"total_scenarios\": " << run.total_scenarios << ",\n"
         << "  \"shard\": {\"index\": " << run.shard.index
         << ", \"count\": " << run.shard.count << "},\n"
         << "  \"scenarios_run\": " << run.scenarios.size() << ",\n"
         << "  \"failed\": " << run.sweep.failed() << ",\n"
         << "  \"jobs\": " << run.sweep.jobs << ",\n"
         << "  \"seconds\": " << run.sweep.seconds << ",\n"
         << "  \"scenarios_per_sec\": " << run.sweep.scenarios_per_second()
         << ",\n"
         << "  \"cache\": {\"compiled\": " << v.compiles
         << ", \"shared\": " << v.memory_hits << "},\n"
         << "  \"disk\": {\"hits\": " << v.disk_hits
         << ", \"misses\": " << v.disk_misses
         << ", \"stores\": " << v.disk_stores << "}\n"
         << "}\n";
  }
  return run.sweep.failed() == 0 ? 0 : 1;
}

// Merge mode: order-restore shard reports into the unsharded report.
int run_merge_mode(const CliArgs& args) {
  const std::vector<std::string> paths =
      parse_string_list(args.get_string("merge", ""));
  if (paths.empty()) {
    std::fprintf(stderr, "error: --merge needs a list of shard reports\n");
    return 2;
  }
  std::vector<std::vector<ReportRow>> shards;
  std::vector<std::uint64_t> totals;
  bool timings = true;  // preserved iff every input carries the columns
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open shard report: %s\n",
                   path.c_str());
      return 1;
    }
    std::uint64_t total = 0;
    bool shard_timings = false;
    shards.push_back(read_report_csv(in, total, &shard_timings));
    totals.push_back(total);
    timings = timings && shard_timings;
  }
  std::uint64_t total_scenarios = 0;
  const std::vector<ReportRow> merged =
      merge_report_rows(shards, totals, total_scenarios);

  const std::string out_path = args.get_string("out", "");
  if (out_path.empty()) {
    write_report_csv(std::cout, total_scenarios, merged, timings);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open output file: %s\n",
                   out_path.c_str());
      return 1;
    }
    write_report_csv(out, total_scenarios, merged, timings);
  }
  // A failed scenario contributes exactly one (error) row; surface the
  // count in the exit code so a merge step cannot silently launder a
  // partially failed study (the partial results ARE still written).
  std::size_t failed = 0;
  for (const ReportRow& row : merged) failed += row.failed() ? 1 : 0;
  std::fprintf(out_path.empty() ? stderr : stdout,
               "merged %zu shard reports: %llu scenarios, %zu rows, "
               "%zu failed scenarios\n",
               shards.size(),
               static_cast<unsigned long long>(total_scenarios),
               merged.size(), failed);
  return failed == 0 ? 0 : 1;
}

// Mode dispatch, factored out of main so the observability flush (--trace
// / --metrics-out files) runs after EVERY mode, error exits included.
int run_cli(const CliArgs& args, char** argv) {
  try {
    if (args.has("list-solvers")) return list_solvers();
    if (args.has("export")) {
      return export_model(args.get_string("export", ""),
                          args.get_string("output", "model.rrlm"));
    }
    if (args.has("cache-gc")) return run_cache_gc_mode(args);
    if (args.has("worker")) return run_worker_mode(args, /*remote=*/false);
    if (args.has("connect")) return run_worker_mode(args, /*remote=*/true);
    if (args.has("serve")) return run_serve_mode(args, argv[0]);
    if (args.has("merge")) return run_merge_mode(args);
    if (args.has("study")) return run_study_mode(args);
    if (!args.has("model") || (!args.has("t") && !args.has("t-grid"))) {
      std::fprintf(
          stderr,
          "usage: rrl_solve --model <file>[,<file>...] (--t <t1,t2,...> | "
          "--t-grid <lo:hi:count>)\n"
          "                 [--measure trr|mrr|both] [--solver "
          "sr|rsd|rr|rrl|krylov]\n"
          "                 [--eps e1[,e2,...]]\n"
          "                 [--regenerative auto|<idx>] [--bounds]\n"
          "                 [--solvers all|<s1,s2,...>] [--jobs N]   "
          "# batch mode\n"
          "                 [--cache-dir DIR] [--cold] [--cache-stats] "
          "[--no-cache]\n"
          "       rrl_solve --study <file.study> [--shard k/N] [--jobs N] "
          "[--out report.csv]\n"
          "                 [--json summary.json] [--cache-dir DIR] "
          "[--cold] [--cache-stats]\n"
          "                 [--no-cache] [--timings]\n"
          "       rrl_solve --serve --workers N --study <file.study> "
          "[--jobs N-per-worker]\n"
          "                 [--out report.csv] [--json summary.json] "
          "[--cache-dir DIR]\n"
          "                 [--cold] [--no-cache] [--timings]\n"
          "                 [--listen PORT] [--no-local] "
          "[--port-file FILE]\n"
          "                 [--heartbeat-timeout-ms MS]   # remote fleet\n"
          "                 [--stats-interval-ms MS]      # live progress\n"
          "       rrl_solve --connect HOST:PORT --study <file.study> "
          "[--jobs N]\n"
          "                 [--heartbeat-ms MS] [--no-fetch] "
          "[--cache-dir DIR]\n"
          "       (--workers 0 and --jobs 0 mean one per hardware "
          "thread)\n"
          "       rrl_solve --merge <r1.csv,r2.csv,...> [--out report.csv]\n"
          "       rrl_solve --cache-gc --cache-dir DIR "
          "[--cache-cap BYTES]\n"
          "       rrl_solve --export raid20|raid40|multiproc "
          "[--output m.rrlm]\n"
          "       rrl_solve --list-solvers\n"
          "       any mode: [--trace spans.json] "
          "[--metrics-out metrics.prom]\n"
          "       environment: RRL_KERNEL=scalar|avx2|avx512 pins the "
          "SpMV/SpMM kernel\n"
          "                    variant (default: best the CPU supports); "
          "RRL_SPMM=off\n"
          "                    runs every scenario on its own instead of "
          "sharing one\n"
          "                    pass (SR/RSD iterates, Krylov TRR/MRR "
          "pairs, RR V-passes).\n"
          "                    Both are pure perf knobs — every "
          "kernel and\n"
          "                    sharing path is bit-identical to the scalar "
          "per-scenario\n"
          "                    reference, so reports never change.\n");
      return 2;
    }

    const std::string measure = args.get_string("measure", "trr");
    if (measure != "trr" && measure != "mrr" && measure != "both") {
      std::fprintf(stderr,
                   "error: --measure must be trr, mrr or both (got '%s')\n",
                   measure.c_str());
      return 2;
    }
    const bool want_mrr = measure == "mrr";
    std::vector<MeasureKind> measures;
    if (measure != "mrr") measures.push_back(MeasureKind::kTrr);
    if (measure != "trr") measures.push_back(MeasureKind::kMrr);

    const std::vector<double> eps_list =
        parse_double_list(args.get_string("eps", "1e-12"));
    const bool eps_ok =
        !eps_list.empty() &&
        std::all_of(eps_list.begin(), eps_list.end(),
                    [](double e) { return e > 0.0; });
    if (!eps_ok) {
      std::fprintf(stderr,
                   "error: --eps needs positive values (e.g. 1e-8,1e-12)\n");
      return 2;
    }

    // Several models, a --solvers list, a --jobs count, --measure both or
    // an --eps list select the batch path through the sweep engine.
    const std::vector<std::string> model_paths =
        parse_string_list(args.get_string("model", ""));
    if (model_paths.empty()) {
      std::fprintf(stderr, "error: --model named no file\n");
      return 2;
    }
    const bool batch_mode = args.has("solvers") || args.has("jobs") ||
                            model_paths.size() > 1 || measures.size() > 1 ||
                            eps_list.size() > 1;
    if (batch_mode) {
      if (args.get_bool("bounds", false)) {
        std::fprintf(stderr,
                     "error: --bounds is a single-model rrl capability; "
                     "drop --solvers/--jobs/--measure both/--eps lists\n");
        return 2;
      }
      const std::vector<double> batch_ts = requested_times(args);
      if (batch_ts.empty()) return 2;
      return run_batch(args, model_paths, batch_ts, eps_list, measures);
    }

    const ModelFile model = read_model_file(model_paths.front());
    const auto structure = classify_structure(model.chain);
    std::printf("model: %d states, %lld transitions, %zu absorbing, %s\n",
                model.chain.num_states(),
                static_cast<long long>(model.chain.num_transitions()),
                structure.absorbing.size(),
                structure.irreducible
                    ? "irreducible"
                    : (structure.valid ? "valid (absorbing)" : "INVALID"));
    if (!structure.valid) {
      std::fprintf(stderr,
                   "error: the non-absorbing states are not strongly "
                   "connected (the paper's structural assumption)\n");
      return 1;
    }

    // requested_times already reported the specific problem.
    const std::vector<double> ts = requested_times(args);
    if (ts.empty()) return 2;
    const double eps = eps_list.front();
    const std::string solver_name = args.get_string("solver", "rrl");

    index_t regenerative = model.regenerative;
    const std::string regen_arg = args.get_string("regenerative", "");
    if (regen_arg == "auto" || (regen_arg.empty() && regenerative < 0)) {
      regenerative = suggest_regenerative_state(model.chain);
      std::printf("regenerative state (auto): %d\n", regenerative);
    } else if (!regen_arg.empty()) {
      regenerative = regenerative_index(args);
    }

    if (args.get_bool("bounds", false)) {
      if (args.has("solver") && solver_name != "rrl") {
        std::fprintf(stderr,
                     "error: --bounds is an rrl-only capability; drop "
                     "--solver %s or use --solver rrl\n",
                     solver_name.c_str());
        return 2;
      }
      return solve_with_bounds(model, regenerative, ts, eps, want_mrr);
    }

    SolverConfig config;
    config.epsilon = eps;
    config.regenerative = regenerative;
    const auto solver = make_solver(solver_name, model.chain, model.rewards,
                                    model.initial, config);

    const SolveRequest request{
        want_mrr ? MeasureKind::kMrr : MeasureKind::kTrr, ts, eps};
    // One solve owns the host: its inner loops may use every core.
    ThreadPool pool(solver->lent_pool_use(request) != LentPoolUse::kNone
                        ? ThreadPool::hardware_threads()
                        : 1);
    SolveWorkspace workspace;
    workspace.lent_pool = &pool;
    const SolveReport report = solver->solve_grid(request, workspace);

    TextTable table({"t", "value", "steps", "V-steps", "abscissae"});
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const TransientValue& p = report.points[i];
      table.add_row({fmt_sig(ts[i], 6), fmt_sci(p.value, 9),
                     std::to_string(p.stats.dtmc_steps),
                     std::to_string(p.stats.vmodel_steps),
                     std::to_string(p.stats.abscissae)});
    }
    std::printf("%s(t), solver=%s (%s), eps=%g:\n", want_mrr ? "MRR" : "TRR",
                solver_name.c_str(),
                std::string(solver->description()).c_str(), eps);
    table.print();
    std::printf(
        "sweep total: %lld model DTMC steps, %lld V-model steps, "
        "%d abscissae, %.3gs%s\n",
        static_cast<long long>(report.total.dtmc_steps),
        static_cast<long long>(report.total.vmodel_steps),
        report.total.abscissae, report.total.seconds,
        report.total.capped ? " (step cap hit; accuracy not guaranteed)"
                            : "");
    return 0;
  } catch (const rrl::contract_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  // --trace FILE arms span collection for the whole run (any mode) and
  // flushes a Chrome-trace-event JSON on exit; --metrics-out FILE dumps
  // the final metrics snapshot in Prometheus text format. Both are
  // observability-only: solver results and report bytes are unaffected.
  if (args.has("trace")) trace::enable();
  int rc = run_cli(args, argv);
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    if (trace::write_chrome_trace_file(trace_path)) {
      std::fprintf(stderr, "trace: wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace file: %s\n",
                   trace_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  const std::string metrics_path = args.get_string("metrics-out", "");
  if (!metrics_path.empty() &&
      !metrics::write_prometheus_file(metrics_path)) {
    std::fprintf(stderr, "error: cannot write metrics file: %s\n",
                 metrics_path.c_str());
    if (rc == 0) rc = 1;
  }
  return rc;
}
