// Work-stealing multi-process dispatch — the second stage of the plan /
// dispatch / execute / reduce pipeline, and the distributed face of the
// study subsystem.
//
// Static `--shard k/N` slicing is zero-coordination but fixed: one heavy
// model (a large RR schema compile) straggles its shard while the others
// sit idle, and every shard recompiles every model it touches. The
// dispatcher replaces the fixed slices with dynamic unit handout: a parent
// process (`rrl_solve --serve`) spawns N worker processes (`--worker`, the
// same binary) connected over stdio pipes, hands each an initial work unit
// (expensive units first — longest-processing-time order), and gives a
// worker its next unit the moment it returns one — workers that finish
// early keep pulling queued units off the straggler's plate, which is the
// work-stealing property that matters at this granularity. Units are the
// planner's (model, solver) groups, so every scenario of a unit shares one
// compiled solver and the shared passes survive the re-chunking.
//
// Transports: every peer — a fork/exec'd local child or a remote machine's
// `rrl_solve --connect host:port` process — is one FrameChannel
// (io/net_transport.hpp) in the same non-blocking poll loop. `--serve
// --listen <port>` arms a TCP listener; remotes may join at ANY point of
// the run (elastic fleet: a late joiner greets, is verified, and starts
// pulling queued units) and leave at any point (below). Local and remote
// workers interleave freely; with `--workers 0 --listen <port>` the fleet
// is remote-only.
//
// Fault model: a worker that dies mid-unit (crash, OOM kill, lost machine,
// dropped connection) is detected by EOF/write-error on its channel —
// and, for remotes, by heartbeat silence: a connected worker pings from a
// background thread even while its main thread solves, so a hung machine
// cannot hold a unit hostage (pipes need no pings — a local child's death
// is already an EOF). Either way the in-flight unit is re-queued at the
// head and re-dispatched to a surviving worker. The reducer receives every
// unit exactly once, so the merged report stays byte-for-byte identical to
// the single-process run under any fleet size, any join/leave schedule,
// any completion order. Only when ALL workers are gone with work remaining
// AND no listener is armed does dispatch fail (contract_error) — with a
// listener the parent waits for the next joiner instead.
//
// The handshake: each worker re-reads the study file and re-plans it, then
// sends a hello carrying its plan fingerprint; the parent refuses to hand
// work to a worker whose fingerprint disagrees (e.g. the study file
// changed between spawns, or the binaries' protocols differ). Unit ids
// therefore mean the same scenarios on both sides. A LOCAL mismatch is
// fatal (the parent spawned that worker — its own configuration is
// broken); a REMOTE mismatch only rejects that connection (counted in
// `remotes_rejected`) — one stray wrong binary must not kill the study.
//
// Artifact fetch: `--cache-dir` does not cross machines, so a remote
// worker that misses memory and (its own) disk asks the PARENT's store
// over the wire (artifact_request/artifact_data frames) before compiling
// cold — a warm parent turns a remote cold start into a network copy. A
// parent-side miss degrades to a local compile on the worker, counted,
// never an error.
//
// Deployment note: local workers pointed at one shared --cache-dir (the
// content-addressed artifact store) still share a warm tier directly —
// workers flush compiled artifacts after every unit, so even within one
// run a schema compiled by worker A warm-starts worker B's next unit on
// the same model.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/net_transport.hpp"
#include "study/artifact_store.hpp"
#include "study/solver_cache.hpp"
#include "study/study_plan.hpp"
#include "study/study_reduce.hpp"

namespace rrl {

/// Parent-side knobs.
struct DispatchOptions {
  /// Local worker processes to spawn. Must be >= 1 unless a listener is
  /// armed (listen_fd >= 0), where 0 means "remote workers only".
  int workers = 2;
  /// argv of a local worker process (argv[0] = binary path; typically
  /// {rrl_solve, "--worker", "--study", <file>, ...}).
  std::vector<std::string> worker_command;
  /// Extra argv appended to worker i's command (test hooks, per-worker
  /// tuning); may be shorter than `workers`.
  std::vector<std::vector<std::string>> worker_extra_args;
  /// A listening TCP socket (tcp_listen().fd) accepting remote workers,
  /// or -1 for a local-only fleet. Caller-owned: dispatch_study polls and
  /// accepts on it but never closes it.
  int listen_fd = -1;
  /// A remote worker silent for longer than this (no result, no ping) is
  /// declared dead and its unit re-queued. <= 0 disables the sweep (EOF
  /// detection still applies). Local pipe workers are never subject to
  /// it. Must comfortably exceed the workers' --heartbeat-ms.
  int heartbeat_timeout_ms = 10000;
  /// The store artifact_request frames are served from (nullptr = every
  /// request answered "not found"; the worker compiles locally).
  /// Caller-owned; must outlive the dispatch.
  const ArtifactStore* artifact_store = nullptr;
  /// > 0: print a live progress line (units done/queued, scenarios/sec,
  /// per-worker busy fraction, cache tiers) to stderr about this often.
  /// Observability only — the reduced report is unaffected.
  int stats_interval_ms = 0;
};

/// Per-worker accounting aggregated from kResult frames (units, busy
/// seconds) and the latest kStatsReport snapshot (counters). A worker's
/// counters are ABSOLUTE values for its process, so fleet totals are the
/// sum of every worker's latest snapshot (see DispatchReport::
/// fleet_counters); `busy_seconds / DispatchReport::seconds` is the
/// worker's busy fraction over the run.
struct WorkerStats {
  std::string label;         ///< "local-N" or "remote-N"
  bool remote = false;
  bool lost = false;         ///< died or timed out mid-run
  std::size_t units = 0;     ///< units this worker completed
  std::uint64_t scenarios = 0;  ///< scenarios across those units
  double busy_seconds = 0.0;    ///< summed per-unit solve wall-clock
  /// Latest metrics snapshot the worker piggybacked on a result (empty
  /// until its first completed unit).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Parent-side outcome accounting.
struct DispatchReport {
  int workers = 0;               ///< local workers spawned
  std::size_t remote_workers = 0;  ///< remote joins that passed handshake
  std::size_t remotes_rejected = 0;  ///< remote joins refused at handshake
  std::size_t units = 0;         ///< units reduced (== plan.units.size())
  std::uint64_t scenarios = 0;   ///< scenarios reduced
  std::size_t failed_scenarios = 0;  ///< error rows among them
  std::size_t redispatched = 0;  ///< units re-queued after a worker loss
  std::size_t workers_lost = 0;  ///< workers that died mid-run
  std::size_t artifact_requests = 0;  ///< artifact fetches asked of us
  std::size_t artifact_hits = 0;      ///< ... served from our store
  double seconds = 0.0;          ///< wall-clock of the whole dispatch
  /// Sum of the workers' per-unit solve wall-clocks: the fleet's total
  /// compute. worker_seconds / (seconds * fleet size) is the fleet's
  /// parallel efficiency — low values mean spawn/handshake overhead or
  /// tail idling dominated.
  double worker_seconds = 0.0;
  /// One entry per worker that ever passed the handshake (locals first,
  /// remotes in join order). sum of .units over the entries == `units`.
  std::vector<WorkerStats> worker_stats;
  /// Fleet-wide counter totals: every worker's LATEST snapshot summed by
  /// name. Empty when no worker ever reported (e.g. an empty plan).
  std::vector<std::pair<std::string, std::uint64_t>> fleet_counters;
};

/// Spawn the local worker fleet (and accept remote joiners when
/// options.listen_fd is armed), hand out every unit of `plan` dynamically,
/// and stream finished units into `reducer` (finish() is called on
/// success, so the output is complete and validated when this returns).
/// Throws contract_error when no worker can be spawned, a LOCAL worker's
/// handshake disagrees with `plan`, or every worker is lost with work
/// remaining and no listener armed.
[[nodiscard]] DispatchReport dispatch_study(const StudyPlan& plan,
                                            const DispatchOptions& options,
                                            StudyReducer& reducer);

/// Worker-side knobs.
struct WorkerOptions {
  /// Threads per worker (the sweep engine's jobs; <= 0 = hardware).
  int jobs = 1;
  /// false = per-scenario fresh construction (equivalence testing).
  bool use_cache = true;
  /// Heartbeat interval: > 0 starts a background thread sending a ping
  /// frame this often, so the parent can tell "busy solving for minutes"
  /// from "hung" (remote workers; pipes leave it 0 — death is an EOF).
  int heartbeat_ms = 0;
  /// Pull artifacts the cache misses from the parent over the wire
  /// (remote workers; a local worker shares the parent's filesystem and
  /// uses --cache-dir directly).
  bool fetch_artifacts = false;
  /// TEST HOOK (--test-die-after): after executing this many units, the
  /// worker exits abnormally on its next assignment without replying —
  /// the dispatcher's death-recovery regression uses it to kill a worker
  /// deterministically mid-run. < 0 = never.
  int die_after_units = -1;
  /// TEST HOOK (--test-die-delay-ms): milliseconds to sleep before the
  /// die_after_units exit — long enough for the fleet's survivors to
  /// drain the queue and go idle, which is the death schedule the
  /// re-dispatch path must also cover.
  int die_delay_ms = 0;
  /// TEST HOOK (--test-deaf-after): close the read side of the wire just
  /// BEFORE returning the Nth result (so the parent's next assign write
  /// deterministically fails — EPIPE on a pipe — rather than racing into
  /// the pipe buffer), then hang without exiting: the
  /// observed-death-on-write path the SIGPIPE regression pins down.
  /// < 0 = never; use >= 1.
  int deaf_after_units = -1;
  /// TEST HOOK (--test-mute-after): on the assignment after this many
  /// executed units, accept the unit, then stop heartbeating and hang
  /// without exiting or closing anything — the unit is held hostage by a
  /// healthy socket, the schedule only the parent's heartbeat timeout
  /// can catch. < 0 = never.
  int mute_after_units = -1;
};

/// The worker loop behind `rrl_solve --worker` (a channel over the stdio
/// pipes to a parent on this machine) and `rrl_solve --connect` (over a
/// TCP socket to a remote parent): handshake, then execute every unit
/// assigned (through the given cache, whose attached store — if any — is
/// flushed after every unit so fleet peers sharing the cache-dir start
/// warm) until shutdown or EOF. The channel's fds are blocking and the
/// loop owns them: they close when it returns. With
/// options.fetch_artifacts the cache's last-chance fetcher is wired to an
/// artifact_request round trip on the same channel. Returns a process
/// exit code (0 = clean shutdown). The caller must keep the fds free of
/// any other output — diagnostics go to stderr.
[[nodiscard]] int run_worker_loop(const StudyPlan& plan, SolverCache& cache,
                                  const WorkerOptions& options,
                                  FrameChannel channel);

}  // namespace rrl
