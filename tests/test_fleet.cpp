// Elastic TCP fleet end-to-end, against the real rrl_solve binary
// joining over loopback sockets: (1) the remote-only fleet's merged
// report is byte-for-byte the single-process report for 1 and 3 workers;
// (2) a remote killed mid-unit is re-dispatched around; (3) an empty
// fleet waits for a late joiner instead of failing; (4) a hung remote
// (socket healthy, no results, no pings) is reclaimed by the heartbeat
// timeout; (5) a remote whose plan disagrees is rejected without killing
// the study; (6) a warm parent store serves every artifact fetch (zero
// recompiles on remotes) while a cold parent degrades to local compiles,
// counted; (7) the SolverCache fetcher hook's tier/counter unit
// semantics.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counter_delta.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"

namespace rrl {
namespace {

namespace fs = std::filesystem;

std::string rrl_solve_path() {
  const std::string candidate = self_sibling_path("rrl_solve");
  std::error_code ec;
  return !candidate.empty() && fs::exists(candidate, ec) && !ec
             ? candidate
             : "";
}

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("rrl-fleet-test-" + std::to_string(::getpid()) + "-" +
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

void write_model(const fs::path& path, const Ctmc& chain,
                 const std::vector<double>& rewards,
                 const std::vector<double>& initial, index_t regenerative) {
  write_model_file(path.string(), chain, rewards, initial, regenerative);
}

/// The same three-model study the dispatch tests use: 6 work units of 4
/// scenarios, enough for dynamic handout (and re-dispatch) to matter.
fs::path write_fleet_study(const TempDir& dir) {
  const MultiprocModel multi = build_multiproc_availability({});
  write_model(dir.path / "multi.rrlm", multi.chain, multi.failure_rewards(),
              multi.initial_distribution(), multi.initial_state);
  for (const int groups : {6, 12}) {
    Raid5Params p;
    p.groups = groups;
    const Raid5Model raid = build_raid5_availability(p);
    write_model(dir.path / ("raid" + std::to_string(groups) + ".rrlm"),
                raid.chain, raid.failure_rewards(),
                raid.initial_distribution(), raid.initial_state);
  }
  const fs::path study = dir.path / "fleet.study";
  std::ofstream(study) << "model raid12.rrlm\n"
                          "model raid6.rrlm\n"
                          "model multi.rrlm\n"
                          "solvers rr rrl\n"
                          "measures both\n"
                          "epsilons 1e-8\n"
                          "grid 1:500:3\n"
                          "times 5 50\n"
                          "jobs 1\n";
  return study;
}

/// The single-process reference report of a study file.
std::string reference_csv(const fs::path& study_path) {
  const StudySpec spec = read_study_file(study_path.string());
  ModelRepository repository;
  SolverCache cache;
  const StudyRun run = run_study(spec, repository, cache);
  std::ostringstream csv;
  write_report_csv(csv, run.total_scenarios, run.rows());
  return csv.str();
}

StudyPlan plan_of(const fs::path& study_path) {
  const StudySpec spec = read_study_file(study_path.string());
  ModelRepository repository;
  return build_study_plan(spec, repository);
}

/// fork/exec a `rrl_solve --connect` worker against the loopback port
/// (stdout/stderr silenced); returns its pid, or -1 on fork failure.
pid_t spawn_connect(const std::string& binary, const fs::path& study,
                    int port, const std::vector<std::string>& extra = {}) {
  std::vector<std::string> argv = {binary,
                                   "--connect",
                                   "127.0.0.1:" + std::to_string(port),
                                   "--study",
                                   study.string(),
                                   "--jobs",
                                   "1",
                                   "--heartbeat-ms",
                                   "200"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (FILE* sink = std::fopen("/dev/null", "w")) {
      ::dup2(fileno(sink), STDOUT_FILENO);
      ::dup2(fileno(sink), STDERR_FILENO);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      cargv.push_back(const_cast<char*>(arg.c_str()));
    }
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

/// waitpid: the exit code, or -signal when terminated by one.
int reap(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? -WTERMSIG(status) : -1;
}

DispatchOptions remote_only(int listen_fd) {
  DispatchOptions options;
  options.workers = 0;
  options.listen_fd = listen_fd;
  return options;
}

TEST(Fleet, TcpByteIdenticalForOneAndThreeRemoteWorkers) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const std::string reference = reference_csv(study);
  const StudyPlan plan = plan_of(study);

  for (const int remotes : {1, 3}) {
    const TcpListener listener = tcp_listen(0);
    std::vector<pid_t> pids;
    for (int i = 0; i < remotes; ++i) {
      pids.push_back(spawn_connect(binary, study, listener.port));
    }
    std::ostringstream out;
    StudyReducer reducer(out, plan.total_scenarios);
    const DispatchReport report =
        dispatch_study(plan, remote_only(listener.fd), reducer);
    ::close(listener.fd);
    for (const pid_t pid : pids) (void)reap(pid);

    EXPECT_EQ(report.remote_workers, static_cast<std::size_t>(remotes));
    EXPECT_EQ(report.units, plan.units.size());
    EXPECT_EQ(report.failed_scenarios, 0u);
    EXPECT_EQ(report.workers_lost, 0u);
    EXPECT_EQ(report.redispatched, 0u);
    EXPECT_EQ(out.str(), reference)
        << "TCP fleet report diverged with " << remotes << " workers";
  }
}

TEST(Fleet, RemoteKilledMidRunIsRedispatchedAndReportIsByteIdentical) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const std::string reference = reference_csv(study);
  const StudyPlan plan = plan_of(study);

  const TcpListener listener = tcp_listen(0);
  // Remote 0 accepts its first unit, sits on it and dies without
  // replying (the socket EOF is the observed death); remote 1 must
  // absorb the re-queued unit.
  const pid_t doomed = spawn_connect(
      binary, study, listener.port,
      {"--test-die-after", "0", "--test-die-delay-ms", "500"});
  const pid_t survivor = spawn_connect(binary, study, listener.port);
  std::ostringstream out;
  StudyReducer reducer(out, plan.total_scenarios);
  const DispatchReport report =
      dispatch_study(plan, remote_only(listener.fd), reducer);
  ::close(listener.fd);
  EXPECT_EQ(reap(doomed), 3);  // the hook's deliberate abnormal exit
  (void)reap(survivor);

  EXPECT_EQ(report.remote_workers, 2u);
  EXPECT_EQ(report.workers_lost, 1u);
  EXPECT_EQ(report.redispatched, 1u);
  EXPECT_EQ(report.failed_scenarios, 0u);
  EXPECT_EQ(out.str(), reference);
}

TEST(Fleet, EmptyFleetWaitsForALateJoiner) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const std::string reference = reference_csv(study);
  const StudyPlan plan = plan_of(study);

  // No local workers, no remotes yet: the dispatcher must WAIT on the
  // armed listener, not throw "all workers lost". The joiner arrives
  // 300 ms into the run and drains the whole queue.
  const TcpListener listener = tcp_listen(0);
  pid_t joiner = -1;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    joiner = spawn_connect(binary, study, listener.port);
  });
  std::ostringstream out;
  StudyReducer reducer(out, plan.total_scenarios);
  const DispatchReport report =
      dispatch_study(plan, remote_only(listener.fd), reducer);
  late.join();
  ::close(listener.fd);
  ASSERT_GT(joiner, 0);
  (void)reap(joiner);

  EXPECT_EQ(report.remote_workers, 1u);
  EXPECT_EQ(report.units, plan.units.size());
  EXPECT_EQ(report.workers_lost, 0u);
  EXPECT_EQ(out.str(), reference);
}

TEST(Fleet, HungRemoteIsReclaimedByTheHeartbeatTimeout) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const std::string reference = reference_csv(study);
  const StudyPlan plan = plan_of(study);

  const TcpListener listener = tcp_listen(0);
  // The FIRST joiner takes its first unit and goes silent WITHOUT dying
  // or closing the socket — the unit is held hostage by a healthy
  // connection, so no EOF will ever come and only the heartbeat sweep
  // can reclaim it. A healthy worker joins 300 ms later, drains the
  // rest of the queue, and must also absorb the hostage unit once the
  // timeout declares the mute remote dead.
  const pid_t mute =
      spawn_connect(binary, study, listener.port, {"--test-mute-after", "0"});
  pid_t survivor = -1;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    survivor = spawn_connect(binary, study, listener.port);
  });
  DispatchOptions options = remote_only(listener.fd);
  options.heartbeat_timeout_ms = 1500;  // workers ping every 200 ms
  std::ostringstream out;
  StudyReducer reducer(out, plan.total_scenarios);
  const DispatchReport report = dispatch_study(plan, options, reducer);
  late.join();
  ::close(listener.fd);
  // The hung process never exits on its own; the test owns its lifetime.
  ::kill(mute, SIGKILL);
  EXPECT_EQ(reap(mute), -SIGKILL);
  (void)reap(survivor);

  EXPECT_EQ(report.remote_workers, 2u);
  EXPECT_EQ(report.workers_lost, 1u);
  EXPECT_EQ(report.redispatched, 1u);
  EXPECT_EQ(report.failed_scenarios, 0u);
  EXPECT_EQ(out.str(), reference);
}

TEST(Fleet, MismatchedRemoteIsRejectedWithoutKillingTheStudy) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const std::string reference = reference_csv(study);
  const StudyPlan plan = plan_of(study);

  // A second study over the same models but a different grid: its plan
  // fingerprint disagrees, so a worker running it must be turned away at
  // the handshake — rejected, not counted as a lost worker, and the
  // study completes on the agreeing worker alone.
  const fs::path other = dir.path / "other.study";
  std::ofstream(other) << "model raid12.rrlm\n"
                          "model raid6.rrlm\n"
                          "model multi.rrlm\n"
                          "solvers rr rrl\n"
                          "measures both\n"
                          "epsilons 1e-8\n"
                          "grid 1:400:3\n"
                          "times 5 50\n"
                          "jobs 1\n";

  const TcpListener listener = tcp_listen(0);
  const pid_t stray = spawn_connect(binary, other, listener.port);
  const pid_t good = spawn_connect(binary, study, listener.port);
  std::ostringstream out;
  StudyReducer reducer(out, plan.total_scenarios);
  const DispatchReport report =
      dispatch_study(plan, remote_only(listener.fd), reducer);
  ::close(listener.fd);
  (void)reap(stray);
  (void)reap(good);

  EXPECT_EQ(report.remotes_rejected, 1u);
  EXPECT_EQ(report.remote_workers, 1u);
  EXPECT_EQ(report.workers_lost, 0u);
  EXPECT_EQ(out.str(), reference);
}

TEST(Fleet, WarmParentStoreServesEveryArtifactFetch) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);

  // Warm the parent's store with an in-process run (this also yields the
  // reference bytes), exactly what `--serve --cache-dir` does on a
  // second invocation.
  const auto store =
      std::make_shared<ArtifactStore>((dir.path / "store").string());
  std::string reference;
  {
    const StudySpec spec = read_study_file(study.string());
    ModelRepository repository;
    SolverCache cache;
    cache.attach_store(store);
    const StudyRun run = run_study(spec, repository, cache);
    cache.flush_to_store();
    std::ostringstream csv;
    write_report_csv(csv, run.total_scenarios, run.rows());
    reference = csv.str();
  }
  const StudyPlan plan = plan_of(study);

  const TcpListener listener = tcp_listen(0);
  const pid_t a = spawn_connect(binary, study, listener.port);
  const pid_t b = spawn_connect(binary, study, listener.port);
  DispatchOptions options = remote_only(listener.fd);
  options.artifact_store = store.get();
  std::ostringstream out;
  StudyReducer reducer(out, plan.total_scenarios);
  const DispatchReport report = dispatch_study(plan, options, reducer);
  ::close(listener.fd);
  (void)reap(a);
  (void)reap(b);

  // The perf headline: every remote cache miss was answered from the
  // parent's store — zero cold recompiles across the fleet — and the
  // fetched warm starts answered bit-identically.
  EXPECT_GT(report.artifact_requests, 0u);
  EXPECT_EQ(report.artifact_hits, report.artifact_requests);
  EXPECT_EQ(report.failed_scenarios, 0u);
  EXPECT_EQ(out.str(), reference);
}

TEST(Fleet, ColdParentFallsBackToLocalCompilesAndCountsMisses) {
  const std::string binary = rrl_solve_path();
  if (binary.empty()) GTEST_SKIP() << "rrl_solve not built";
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const std::string reference = reference_csv(study);
  const StudyPlan plan = plan_of(study);

  // No parent store at all: every artifact request is answered "not
  // found", the worker compiles locally, and the report must not care.
  const TcpListener listener = tcp_listen(0);
  const pid_t worker = spawn_connect(binary, study, listener.port);
  std::ostringstream out;
  StudyReducer reducer(out, plan.total_scenarios);
  const DispatchReport report =
      dispatch_study(plan, remote_only(listener.fd), reducer);
  ::close(listener.fd);
  (void)reap(worker);

  EXPECT_GT(report.artifact_requests, 0u);
  EXPECT_EQ(report.artifact_hits, 0u);
  EXPECT_EQ(report.failed_scenarios, 0u);
  EXPECT_EQ(out.str(), reference);
}

TEST(Fleet, FetcherHookWarmStartsBitIdenticallyAndCountsBothWays) {
  const TempDir dir;
  const fs::path study = write_fleet_study(dir);
  const StudySpec spec = read_study_file(study.string());
  ModelRepository repository;
  const StudyPlan plan = build_study_plan(spec, repository);
  ASSERT_FALSE(plan.scenarios.empty());
  const PlannedScenario& scenario = plan.scenarios[0];

  // Warm a store with scenario 0's compiled (and solved — the schema is
  // what makes the artifact worth exporting) solver.
  const auto store =
      std::make_shared<ArtifactStore>((dir.path / "store").string());
  SolveReport cold_report;
  {
    SolverCache warm;
    warm.attach_store(store);
    const auto solver = warm.get_or_build(scenario.model,
                                          scenario.meta.solver,
                                          scenario.config);
    cold_report = solver->solve_grid(scenario.request);
    ASSERT_GT(warm.flush_to_store(), 0u);
  }

  // A cache whose fetcher serves from that store: the double miss
  // (memory, no disk tier) must resolve through the hook as tier
  // "fetch", exactly once, and answer bit-identically to the cold run.
  SolverCache fetched;
  std::size_t calls = 0;
  fetched.set_fetcher([&](const SolverKey& key) {
    ++calls;
    return store->load(key);
  });
  CacheTier tier = CacheTier::kNone;
  const CounterDelta fetch_hits("rrl_cache_fetch_hits_total");
  const CounterDelta fetch_misses("rrl_cache_fetch_misses_total");
  const auto solver = fetched.get_or_build(
      scenario.model, scenario.meta.solver, scenario.config, &tier);
  EXPECT_EQ(tier, CacheTier::kFetched);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(fetch_hits(), 1u);
  EXPECT_EQ(fetch_misses(), 0u);
  const SolveReport fetched_report = solver->solve_grid(scenario.request);
  ASSERT_EQ(fetched_report.points.size(), cold_report.points.size());
  for (std::size_t p = 0; p < cold_report.points.size(); ++p) {
    EXPECT_EQ(fetched_report.points[p].value, cold_report.points[p].value);
  }

  // The second lookup shares the in-memory entry; the fetcher is not
  // consulted again.
  tier = CacheTier::kNone;
  (void)fetched.get_or_build(scenario.model, scenario.meta.solver,
                             scenario.config, &tier);
  EXPECT_EQ(tier, CacheTier::kMemory);
  EXPECT_EQ(calls, 1u);

  // A fetcher that has nothing: a counted miss and a cold compile, never
  // an error.
  SolverCache empty_handed;
  empty_handed.set_fetcher(
      [](const SolverKey&) -> std::optional<CompiledArtifact> {
        return std::nullopt;
      });
  tier = CacheTier::kNone;
  const CounterDelta empty_hits("rrl_cache_fetch_hits_total");
  const CounterDelta empty_misses("rrl_cache_fetch_misses_total");
  (void)empty_handed.get_or_build(scenario.model, scenario.meta.solver,
                                  scenario.config, &tier);
  EXPECT_EQ(tier, CacheTier::kCompiled);
  EXPECT_EQ(empty_hits(), 0u);
  EXPECT_EQ(empty_misses(), 1u);
}

}  // namespace
}  // namespace rrl
