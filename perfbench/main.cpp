// perfbench — the repository's study benchmark (README.md holds the metric
// catalogue and which end-to-end metric each layer metric should move).
//
// One process runs one workload (workloads.hpp) through the public calls
// `rrl_solve --study --cache-dir` makes — read_study_file,
// ModelRepository::load, build_study_plan, run_study, write_report_csv and
// SolverCache::flush_to_store — and times each whole call, never the
// sweep's own SweepReport::seconds. A round has four phases:
//   setup  parse or generate the models, then build the plan (2 groups of
//          one set-up pinned to each allowed core; a group's fastest is its
//          sample)
//   cold   a fresh SolverCache with an empty ArtifactStore attached:
//          compile, execute, reduce to CSV, flush to the store (1)
//   warm   a fresh SolverCache reading that store: load and import the
//          artifacts, execute, reduce (2)
//   hot    the last warm cache again, every solver and schema in memory:
//          execute and reduce (3)
// After a warm-up round, rounds repeat until --seconds is spent and each
// end-to-end metric is the median over every phase of its kind. Every
// phase passes the phase-integrity guard and the output gate (gate.hpp)
// before a number is published.
//
// --trace 1 spends the second half of the budget on traced rounds; their
// span ledgers (ledger.hpp), counter deltas and point stats, plus the
// kernel replays (replay.hpp), give the per-layer metrics.
//
//   perfbench --prepare --workload W --seed N --dir D [--bench-dir B]
//             [--compute-references]
//       write W's inputs for seed N and their reference values into D
//       (committed references are read from B, or recomputed)
//   perfbench --workload W --seed N --seconds S --trace 0|1 --dir D
//             [--commit C] [--source-digest H]
//       measure; the last line on stdout is the JSON result

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gate.hpp"
#include "io/model_format.hpp"
#include "ledger.hpp"
#include "replay.hpp"
#include "sparse/spmv_kernels.hpp"
#include "study/artifact_store.hpp"
#include "study/model_repository.hpp"
#include "study/solver_cache.hpp"
#include "study/study_format.hpp"
#include "study/study_plan.hpp"
#include "study/study_report.hpp"
#include "study/study_runner.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

// Phases per round: one cold (it needs an empty store) and repeats of the
// cheaper phases, so every metric's median has several samples per round.
// A fixed count of each, so that rounds differ in length only by speed
// (trace.overhead_s compares round lengths).
constexpr int kSetupGroupsPerRound = 2;
constexpr int kWarmPerRound = 2;
constexpr int kHotPerRound = 3;
constexpr std::size_t kMinUntracedRounds = 3;
/// No round starts past this wall time, whatever --seconds says, so a run
/// ends well inside its 180 s limit.
constexpr double kWallCapSeconds = 120.0;

/// The cores the process may run on, one set-up of each group per core.
///
/// Set-up is single-threaded. On the shared reference host some cores
/// often run it ~1.6x slower for seconds on end, and which ones changes
/// (four pinned set-up loops side by side show it), so a set-up timed
/// wherever the scheduler left the main thread reads that core's state.
/// A group times one set-up pinned to each core and keeps the fastest.
class Cores {
 public:
  Cores() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cores_.push_back(cpu);
    }
  }

  /// Set-ups per group: one per core, or one unpinned when the kernel
  /// does not report the cores.
  [[nodiscard]] std::size_t count() const {
    return std::max<std::size_t>(cores_.size(), 1);
  }

  /// Pins the calling thread to core `k` of count() for the pin's lifetime
  /// (a failed pin leaves the thread where it is).
  class Pin {
   public:
    Pin(const Cores& cores, std::size_t k) : cores_(cores) {
      if (cores.cores_.empty()) return;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cores.cores_[k], &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
    ~Pin() {
      if (!cores_.cores_.empty()) {
        (void)sched_setaffinity(0, sizeof cores_.allowed_, &cores_.allowed_);
      }
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    const Cores& cores_;
  };

 private:
  cpu_set_t allowed_{};
  std::vector<int> cores_;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename Timed>
std::vector<double> seconds_of(const std::vector<Timed>& timed) {
  std::vector<double> s;
  for (const Timed& t : timed) s.push_back(t.seconds);
  return s;
}

std::string joined(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double directory_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

/// One timed cold, warm or hot phase.
struct Phase {
  double seconds = 0.0;    ///< the whole phase
  double cpu_s = 0.0;      ///< process CPU seconds over the phase
  double execute_s = 0.0;  ///< run_study
  double reduce_s = 0.0;   ///< report rows + write_report_csv
  double flush_s = 0.0;    ///< flush_to_store (cold only)
  rrl::metrics::MetricsSnapshot before, after;
  rrl::StudyRun run;
  std::string csv;
  PhaseLedger ledger;  ///< traced rounds only

  [[nodiscard]] double delta(const char* counter) const {
    return static_cast<double>(after.value(counter) - before.value(counter));
  }
};

struct Setup {
  double seconds = 0.0;
  double model_load_s = 0.0;  ///< ModelRepository::load of every model
  double plan_s = 0.0;        ///< build_study_plan
  PhaseLedger ledger;
};

struct Round {
  std::vector<Setup> setups;
  std::vector<double> setup_samples;  ///< the fastest set-up of each group
  Phase cold;
  std::vector<Phase> warm;  ///< each on a fresh cache reading the store
  std::vector<Phase> hot;   ///< each on the last warm cache
  PlanKeys keys;
  double schema_steps = 0.0;
  double store_bytes = 0.0;

  [[nodiscard]] double seconds() const {
    double s = cold.seconds;
    for (const Setup& setup : setups) s += setup.seconds;
    for (const Phase& p : warm) s += p.seconds;
    for (const Phase& p : hot) s += p.seconds;
    return s;
  }
};

Phase run_phase(const char* span_name, const rrl::StudySpec& spec,
                rrl::ModelRepository& repository, rrl::SolverCache& cache,
                bool flush, bool traced) {
  Phase p;
  rrl::StudyOptions options;
  options.jobs = kJobs;
  p.before = rrl::metrics::snapshot();
  const double cpu_before = cpu_seconds();
  const rrl::Stopwatch watch;
  {
    const rrl::trace::Span phase(span_name);
    {
      const rrl::trace::Span call("study.execute");
      p.run = rrl::run_study(spec, repository, cache, options);
    }
    p.execute_s = watch.seconds();
    {
      const rrl::trace::Span call("study.reduce");
      std::ostringstream out;
      rrl::write_report_csv(out, p.run.total_scenarios, p.run.rows());
      p.csv = out.str();
    }
    p.reduce_s = watch.seconds() - p.execute_s;
    if (flush) {
      const rrl::trace::Span call("study.flush");
      cache.flush_to_store();
    }
    p.flush_s = watch.seconds() - p.execute_s - p.reduce_s;
  }
  p.seconds = watch.seconds();
  p.cpu_s = cpu_seconds() - cpu_before;
  p.after = rrl::metrics::snapshot();
  if (traced) p.ledger = drain_phase_ledger(span_name);
  return p;
}

Round run_round(const std::string& study_path, const std::string& store_dir,
                bool traced, const Cores& cores) {
  if (traced) {
    rrl::trace::reset();
    rrl::trace::enable();
  }
  Round round;
  rrl::StudySpec spec;
  std::unique_ptr<rrl::ModelRepository> repository;
  rrl::StudyPlan plan;
  for (int g = 0; g < kSetupGroupsPerRound; ++g) {
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < cores.count(); ++k) {
      // Release the previous set-up's models first, so set-up never holds
      // two copies of a large model.
      plan = rrl::StudyPlan{};
      repository.reset();
      repository = std::make_unique<rrl::ModelRepository>();
      Setup setup;
      const Cores::Pin pin(cores, k);
      const rrl::Stopwatch watch;
      {
        const rrl::trace::Span phase("phase.setup");
        {
          const rrl::trace::Span call("study.read_spec");
          spec = rrl::read_study_file(study_path);
        }
        const double load_start = watch.seconds();
        for (const std::string& path : spec.models) {
          const rrl::trace::Span call("markov.model_load");
          (void)repository->load(path);
        }
        setup.model_load_s = watch.seconds() - load_start;
        {
          const rrl::trace::Span call("study.plan");
          plan = rrl::build_study_plan(spec, *repository);
        }
        setup.plan_s = watch.seconds() - load_start - setup.model_load_s;
      }
      setup.seconds = watch.seconds();
      fastest = std::min(fastest, setup.seconds);
      if (traced) setup.ledger = drain_phase_ledger("phase.setup");
      round.setups.push_back(std::move(setup));
    }
    round.setup_samples.push_back(fastest);
  }
  round.keys = plan_keys(plan);

  fs::remove_all(store_dir);
  const auto store = std::make_shared<rrl::ArtifactStore>(store_dir);
  {
    rrl::SolverCache cold_cache;
    cold_cache.attach_store(store);
    round.cold = run_phase("phase.cold", spec, *repository, cold_cache,
                           /*flush=*/true, traced);
  }
  round.store_bytes = directory_bytes(store_dir);
  round.schema_steps = distinct_schema_steps(plan, round.cold.run);
  std::unique_ptr<rrl::SolverCache> cache;
  for (int i = 0; i < kWarmPerRound; ++i) {
    cache = std::make_unique<rrl::SolverCache>();
    cache->attach_store(store);
    round.warm.push_back(run_phase("phase.warm", spec, *repository, *cache,
                                   /*flush=*/false, traced));
  }
  for (int i = 0; i < kHotPerRound; ++i) {
    round.hot.push_back(run_phase("phase.hot", spec, *repository, *cache,
                                  /*flush=*/false, traced));
  }
  if (traced) rrl::trace::disable();
  return round;
}

/// Thrown when the phase-integrity guard fails: no number is published.
struct GuardFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Point-stat sums of one phase.
struct PointTally {
  double laplace_s = 0.0;
  double abscissae = 0.0;
  double capped = 0.0;
  double unconverged = 0.0;
};

PointTally tally(const rrl::StudyRun& run) {
  PointTally t;
  for (const rrl::ScenarioResult& result : run.sweep.results) {
    for (const rrl::TransientValue& p : result.report.points) {
      t.laplace_s += p.stats.laplace_seconds;
      t.abscissae += p.stats.abscissae;
      t.capped += p.stats.capped ? 1.0 : 0.0;
      t.unconverged += p.stats.inversion_converged ? 0.0 : 1.0;
    }
  }
  return t;
}

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Order and units of BENCHMARK.json's per_layer list; run.py refuses a
// result whose names or units differ from that list.
constexpr LayerMetric kLayerMetrics[] = {
    {"markov.model_load_s", "s"},
    {"study.plan_s", "s"},
    {"study.compile_s", "s"},
    {"study.import_s", "s"},
    {"study.execute_s", "s"},
    {"study.execute_cold_s", "s"},
    {"study.execute_warm_s", "s"},
    {"study.reduce_s", "s"},
    {"study.flush_s", "s"},
    {"study.solver_share", "ratio"},
    {"io.artifact_bytes", "B"},
    {"io.artifact_load_s", "s"},
    {"io.artifact_store_s", "s"},
    {"core.schema_s", "s"},
    {"core.schema_builds", "count"},
    {"core.schema_dup_ratio", "ratio"},
    {"core.schema_steps", "count"},
    {"core.rr_batch_s", "s"},
    {"core.rand_batch_s", "s"},
    {"core.single_solve_s", "s"},
    {"core.routed_rr_batch", "count"},
    {"core.routed_rand_batch", "count"},
    {"core.routed_single", "count"},
    {"core.dtmc_steps", "count"},
    {"core.vmodel_steps", "count"},
    {"core.capped_points", "count"},
    {"laplace.invert_s", "s"},
    {"laplace.abscissae", "count"},
    {"laplace.us_per_abscissa", "us"},
    {"laplace.unconverged_points", "count"},
    {"sparse.spmv_nnz", "count"},
    {"sparse.spmm_columns", "count"},
    {"sparse.spmv_gbps", "GB/s"},
    {"sparse.spmv_pooled_gbps", "GB/s"},
    {"sparse.spmm8_gbps", "GB/s"},
    {"support.pool_loops", "count"},
    {"support.cpu_util", "ratio"},
    {"support.cpu_util_cold", "ratio"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Per-layer values of one traced round (warm and hot metrics from the
/// round's last warm and hot phases). `untraced_s` is the median wall time
/// of the untraced rounds, the base of the tracing overhead.
std::map<std::string, double> layer_values(const Round& r,
                                           double untraced_s) {
  std::map<std::string, double> v;
  const Phase& warm = r.warm.back();
  const Phase& hot = r.hot.back();
  std::vector<double> load, plan;
  double unattributed = r.cold.ledger.unattributed_s;
  PointTally all = tally(r.cold.run);
  for (const Setup& s : r.setups) {
    load.push_back(s.model_load_s);
    plan.push_back(s.plan_s);
    unattributed += s.ledger.unattributed_s;
  }
  for (const std::vector<Phase>* phases : {&r.warm, &r.hot}) {
    for (const Phase& p : *phases) {
      unattributed += p.ledger.unattributed_s;
      const PointTally t = tally(p.run);
      all.capped += t.capped;
      all.unconverged += t.unconverged;
    }
  }
  v["markov.model_load_s"] = median(load);
  v["study.plan_s"] = median(plan);
  v["study.compile_s"] = r.cold.ledger.get("solver.compile").inclusive_s;
  v["study.import_s"] = warm.ledger.get("solver.import").inclusive_s;
  v["study.execute_s"] = hot.execute_s;
  v["study.execute_cold_s"] = r.cold.execute_s;
  v["study.execute_warm_s"] = warm.execute_s;
  v["study.reduce_s"] = hot.reduce_s;
  v["study.flush_s"] = r.cold.flush_s;
  const double hits = r.cold.delta("rrl_cache_memory_hits_total");
  v["study.solver_share"] =
      ratio(hits, hits + r.cold.delta("rrl_cache_memory_misses_total"));
  v["io.artifact_bytes"] = r.store_bytes;
  v["io.artifact_load_s"] = warm.ledger.get("artifact.load").inclusive_s;
  v["io.artifact_store_s"] = r.cold.ledger.get("artifact.store").inclusive_s;
  v["core.schema_s"] = r.cold.ledger.get("schema.build").self_s;
  const double builds = r.cold.delta("rrl_cache_schema_builds_total");
  v["core.schema_builds"] = builds;
  v["core.schema_dup_ratio"] =
      ratio(builds, static_cast<double>(r.keys.schemas));
  v["core.schema_steps"] = r.schema_steps;
  const SpanTotals rr_batch = hot.ledger.get("scenario.solve_batch");
  const SpanTotals rand_batch = hot.ledger.get("scenario.solve_rand_batch");
  const SpanTotals single = hot.ledger.get("scenario.solve");
  v["core.rr_batch_s"] = rr_batch.self_s;
  v["core.rand_batch_s"] = rand_batch.self_s;
  v["core.single_solve_s"] = single.self_s;
  v["core.routed_rr_batch"] = static_cast<double>(rr_batch.arg_sum);
  v["core.routed_rand_batch"] = static_cast<double>(rand_batch.arg_sum);
  v["core.routed_single"] = static_cast<double>(single.count);
  v["core.dtmc_steps"] = hot.delta("rrl_solve_dtmc_steps_total");
  v["core.vmodel_steps"] = hot.delta("rrl_solve_vmodel_steps_total");
  v["core.capped_points"] = all.capped;
  const PointTally hot_points = tally(hot.run);
  v["laplace.invert_s"] = hot_points.laplace_s;
  v["laplace.abscissae"] = hot_points.abscissae;
  v["laplace.us_per_abscissa"] =
      1e6 * ratio(hot_points.laplace_s, hot_points.abscissae);
  v["laplace.unconverged_points"] = all.unconverged;
  v["sparse.spmv_nnz"] = hot.delta("rrl_spmv_nnz_total");
  v["sparse.spmm_columns"] = hot.delta("rrl_spmm_columns_total");
  v["support.pool_loops"] = hot.delta("rrl_pool_loops_total");
  v["support.cpu_util"] = ratio(hot.cpu_s, kJobs * hot.seconds);
  v["support.cpu_util_cold"] = ratio(r.cold.cpu_s, kJobs * r.cold.seconds);
  v["trace.unattributed_s"] = unattributed;
  v["trace.overhead_s"] = r.seconds() - untraced_s;
  return v;
}

/// Whether the traced counts show the route each workload is built to
/// exercise at this commit. Printed, not enforced: rerouting is what a
/// later change to run_sweep may legitimately do.
std::string route_verdict(const std::string& workload,
                          const std::map<std::string, double>& v,
                          std::size_t scenarios) {
  bool ok = true;
  if (workload == "paper_rrl") {
    ok = v.at("core.routed_rr_batch") == 0 &&
         v.at("core.routed_rand_batch") == 0 &&
         v.at("core.routed_single") == static_cast<double>(scenarios);
  } else if (workload == "eps_sweep") {
    ok = v.at("core.routed_rr_batch") > 0 &&
         v.at("core.routed_rand_batch") > 0 &&
         v.at("sparse.spmm_columns") > 0;
  } else if (workload == "large_gen") {
    ok = v.at("support.pool_loops") > 10.0 * static_cast<double>(scenarios) &&
         v.at("laplace.abscissae") > 0;
  }
  return ok ? "as intended" : "NOT as intended";
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
  std::string commit;
  std::string source_digest;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string name(reinterpret_cast<const char*>(regs), sizeof regs);
    name.erase(name.find_last_not_of(std::string(" \0", 2)) + 1);
    name.erase(0, name.find_first_not_of(' '));
    if (!name.empty()) return name;
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

/// The run's provenance line; returns its configuration label ("default",
/// or "override ..." naming every set RRL_KERNEL / RRL_SPMM /
/// OMP_NUM_THREADS) so override runs are never compared with default ones.
std::string print_provenance(const Options& o) {
  const char* const kOverrides[] = {"RRL_KERNEL", "RRL_SPMM",
                                    "OMP_NUM_THREADS"};
  std::string config;
  std::string env_fields;
  for (const char* name : kOverrides) {
    const char* value = std::getenv(name);
    env_fields += ",\"" + std::string(name) +
                  "\":" + json_string(value != nullptr ? value : "unset");
    if (value != nullptr) {
      config += (config.empty() ? "override " : " ") + std::string(name) +
                "=" + value;
    }
  }
  if (config.empty()) config = "default";
#ifdef _OPENMP
  const std::string openmp = std::to_string(_OPENMP);
#else
  const std::string openmp = "off";
#endif
  std::printf(
      "provenance {\"workload\":%s,\"seed\":%llu,\"cpu\":%s,\"nproc\":%u,"
      "\"kernel\":%s,\"spmm\":%s,\"openmp\":%s,\"compiler\":%s,"
      "\"build_type\":%s%s,\"commit\":%s,\"source_digest\":%s,"
      "\"config\":%s}\n",
      json_string(o.workload->name).c_str(),
      static_cast<unsigned long long>(o.seed), json_string(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
      json_string(rrl::active_kernels().name).c_str(),
      rrl::spmm_enabled() ? "true" : "false", json_string(openmp).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), env_fields.c_str(),
      json_string(o.commit).c_str(), json_string(o.source_digest).c_str(),
      json_string(config).c_str());
  return config;
}

/// The randomized matrix of the workload's largest model, replayed.
Replays replay_largest_model(const std::string& study_path,
                             std::uint64_t seed) {
  const rrl::StudySpec spec = rrl::read_study_file(study_path);
  std::optional<rrl::ModelFile> largest;
  for (const std::string& path : spec.models) {
    rrl::ModelFile model = rrl::read_model_file(path);
    if (!largest ||
        model.chain.num_transitions() > largest->chain.num_transitions()) {
      largest = std::move(model);
    }
  }
  return replay_kernels(largest->chain, kJobs, seed);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int measure(const Options& o) {
  const std::string config = print_provenance(o);
  const std::string study_path = o.dir + "/inputs/study.study";
  const std::string store_dir = o.dir + "/store";
  const References refs = read_references(o.dir + "/references.txt");

  std::string first_csv;
  GateCount gated;
  double peak_rss_first_round = 0.0;
  std::size_t round_no = 0;
  const Cores cores;
  const auto checked_round = [&](bool traced, const char* label) {
    Round r = run_round(study_path, store_dir, traced, cores);
    if (round_no == 0) peak_rss_first_round = peak_rss_mb();
    std::vector<std::pair<PhaseKind, const Phase*>> phases = {
        {PhaseKind::kCold, &r.cold}};
    for (const Phase& p : r.warm) phases.emplace_back(PhaseKind::kWarm, &p);
    for (const Phase& p : r.hot) phases.emplace_back(PhaseKind::kHot, &p);
    std::string violations;
    for (const auto& [kind, phase] : phases) {
      for (const std::string& v :
           phase_violations(kind, phase->before, phase->after, r.keys)) {
        violations += std::string("\n  ") + phase_name(kind) + ": " + v;
      }
    }
    if (!violations.empty()) throw GuardFailure(violations);
    if (first_csv.empty()) {
      first_csv = r.cold.csv;
      if (!gate_self_test(r.cold.run, r.cold.csv, refs)) {
        throw std::runtime_error(
            "output-gate self-test failed: a perturbed value and a flipped "
            "flag were not both counted");
      }
    }
    GateCount round_gate;
    for (const auto& [kind, phase] : phases) {
      const GateCount g = gate_points(phase->run, phase->csv, first_csv, refs);
      round_gate.attempted += g.attempted;
      round_gate.failed += g.failed;
      if (gated.first_failure.empty()) gated.first_failure = g.first_failure;
    }
    gated.attempted += round_gate.attempted;
    gated.failed += round_gate.failed;
    std::printf("round %zu%s: setup %s s, cold %.6f s, warm %s s, hot %s s; "
                "store %.3f MB; %llu of %llu points failed\n",
                ++round_no, label,
                joined(seconds_of(r.setups)).c_str(), r.cold.seconds,
                joined(seconds_of(r.warm)).c_str(),
                joined(seconds_of(r.hot)).c_str(), r.store_bytes / 1e6,
                static_cast<unsigned long long>(round_gate.failed),
                static_cast<unsigned long long>(round_gate.attempted));
    if (traced) {
      print_phase_ledger(stdout, "setup", r.setups.back().ledger);
      print_phase_ledger(stdout, "cold", r.cold.ledger);
      print_phase_ledger(stdout, "warm", r.warm.back().ledger);
      print_phase_ledger(stdout, "hot", r.hot.back().ledger);
    }
    return r;
  };

  const rrl::Stopwatch clock;
  const double untraced_budget = o.trace ? 0.5 * o.seconds : o.seconds;
  const std::size_t min_rounds = o.trace ? 1 : kMinUntracedRounds;
  // A warm-up round, checked but left out of every median: the process's
  // first page faults, thread starts and lazy initialisation are not what
  // the cold phase measures.
  (void)checked_round(false, " (warm-up)");
  std::vector<Round> rounds;
  do {
    rounds.push_back(checked_round(false, ""));
  } while (clock.seconds() < kWallCapSeconds &&
           (rounds.size() < min_rounds || clock.seconds() < untraced_budget));
  std::vector<Round> traced;
  if (o.trace) {
    do {
      traced.push_back(checked_round(true, " (traced)"));
    } while (clock.seconds() < std::min(o.seconds, kWallCapSeconds));
  }

  std::vector<double> setup_s, cold_s, warm_s, hot_s, round_s;
  for (const Round& r : rounds) {
    setup_s.insert(setup_s.end(), r.setup_samples.begin(),
                   r.setup_samples.end());
    cold_s.push_back(r.cold.seconds);
    for (const double s : seconds_of(r.warm)) warm_s.push_back(s);
    for (const double s : seconds_of(r.hot)) hot_s.push_back(s);
    round_s.push_back(r.seconds());
  }
  // Peak RSS over the first round: later rounds only add the allocator's
  // run-to-run growth, not the workload's working set.
  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"cold_s", median(cold_s), "s"},
      {"warm_s", median(warm_s), "s"},
      {"hot_s", median(hot_s), "s"},
      {"peak_rss_mb", peak_rss_first_round, "MB"},
  };
  const double fail_frac = ratio(static_cast<double>(gated.failed),
                                 static_cast<double>(gated.attempted));
  std::printf("workload %s, seed %llu, config %s: %zu untraced rounds\n",
              o.workload->name, static_cast<unsigned long long>(o.seed),
              config.c_str(), rounds.size());
  for (const Metric& m : end_to_end) {
    std::printf("metric %-12s %.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-12s %.6f ratio (%llu of %llu points failed)\n",
              "fail_frac", fail_frac,
              static_cast<unsigned long long>(gated.failed),
              static_cast<unsigned long long>(gated.attempted));
  if (!gated.first_failure.empty()) {
    std::printf("first failed point: %s\n", gated.first_failure.c_str());
  }

  std::vector<Metric> published = end_to_end;
  if (o.trace) {
    std::map<std::string, std::vector<double>> samples;
    for (const Round& r : traced) {
      for (const auto& [name, value] : layer_values(r, median(round_s))) {
        samples[name].push_back(value);
      }
    }
    std::map<std::string, double> v;
    for (const auto& [name, values] : samples) v[name] = median(values);
    const Replays replays = replay_largest_model(study_path, o.seed);
    print_replays(stdout, replays);
    v["sparse.spmv_gbps"] = replays.serial.gbps;
    v["sparse.spmv_pooled_gbps"] = replays.pooled.gbps;
    v["sparse.spmm8_gbps"] = replays.spmm8.gbps;
    published.clear();
    for (const LayerMetric& m : kLayerMetrics) {
      published.push_back(Metric{m.name, v.at(m.name), m.unit});
      std::printf("layer %-27s %.6g %s\n", m.name, v.at(m.name), m.unit);
    }
    std::printf("trace overhead: %.6f s per round over the untraced median "
                "%.6f s\n",
                v["trace.overhead_s"], median(round_s));
    std::printf("route: %s\n",
                route_verdict(o.workload->name, v,
                              traced.front().cold.run.scenarios.size())
                    .c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              gated.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gated.attempted),
              static_cast<unsigned long long>(gated.failed));
  for (std::size_t i = 0; i < published.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", published[i].name.c_str(),
                published[i].value, published[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

/// Writes the inputs and the references: the committed ones from
/// `bench_dir` when the workload ships them (unless `compute`, which is
/// how they are regenerated), else computed here.
int prepare(const Workload& workload, std::uint64_t seed,
            const std::string& dir, const std::string& bench_dir,
            bool compute) {
  const std::string inputs = dir + "/inputs";
  fs::create_directories(inputs);
  const std::string study = workload.write_inputs(inputs, seed);
  const rrl::Stopwatch watch;
  const bool committed = workload.committed_references != nullptr && !compute;
  const References refs =
      committed ? read_references(bench_dir + "/" +
                                  workload.committed_references)
                : compute_references(workload, study);
  write_references(dir + "/references.txt", refs);
  std::printf("prepared %s seed %llu: %zu reference blocks %s in %.3f s\n",
              workload.name, static_cast<unsigned long long>(seed),
              refs.size(), committed ? "read" : "computed", watch.seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const rrl::CliArgs args(argc, argv);
  Options o;
  o.workload = find_workload(args.get_string("workload", ""));
  o.dir = args.get_string("dir", "");
  if (o.workload == nullptr || o.dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --prepare --workload "
                 "paper_rrl|eps_sweep|large_gen --seed N --dir D\n"
                 "                 [--bench-dir B] [--compute-references]\n"
                 "       perfbench --workload W --seed N --dir D --seconds S "
                 "--trace 0|1\n"
                 "                 [--commit C] [--source-digest H]\n");
    return 2;
  }
  o.seed = static_cast<std::uint64_t>(args.get_long("seed", 0));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_bool("trace", false);
  o.commit = args.get_string("commit", "none");
  o.source_digest = args.get_string("source-digest", "none");
  try {
    if (args.get_bool("prepare", false)) {
      return prepare(*o.workload, o.seed, o.dir,
                     args.get_string("bench-dir", "perfbench"),
                     args.get_bool("compute-references", false));
    }
    return measure(o);
  } catch (const GuardFailure& e) {
    std::printf("phase-integrity guard failed, no numbers published:%s\n",
                e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
