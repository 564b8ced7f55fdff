#include "study/study_dispatch.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiled_artifact.hpp"
#include "io/artifact_codec.hpp"
#include "io/net_transport.hpp"
#include "io/wire_codec.hpp"
#include "study/study_exec.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Parent-side dispatch-loop counters (the worker side reports its own
// process's counters over the wire; these are the orchestrator's).
struct DispatchCounters {
  metrics::Counter& assigned =
      metrics::counter("rrl_dispatch_units_assigned_total");
  metrics::Counter& requeued =
      metrics::counter("rrl_dispatch_units_requeued_total");
  metrics::Counter& heartbeats =
      metrics::counter("rrl_dispatch_heartbeats_total");
  metrics::Counter& stats_frames =
      metrics::counter("rrl_dispatch_stats_frames_total");
};

DispatchCounters& dispatch_counters() {
  static DispatchCounters c;
  return c;
}

/// Writing into a pipe or socket whose reader died raises SIGPIPE, which
/// would kill the process instead of returning the EPIPE the dispatcher
/// handles (observed death -> re-dispatch). Scoped-ignore around the
/// dispatch (restoring the previous disposition) keeps the library from
/// imposing a process-wide handler; socket sends additionally pass
/// MSG_NOSIGNAL inside FrameChannel.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~ScopedIgnoreSigpipe() { ::sigaction(SIGPIPE, &saved_, nullptr); }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction saved_ = {};
};

// ---- parent side.

/// One fleet member: a fork/exec'd local child (pid >= 0, stdio pipes) or
/// a remote `--connect` worker (pid == -1, one TCP socket). Everything
/// after the spawn/accept is transport-agnostic through the channel.
struct Peer {
  pid_t pid = -1;  ///< -1 = remote
  FrameChannel channel;
  bool remote = false;
  bool greeted = false;  ///< hello received and verified
  bool alive = false;
  /// Index into plan.units of the in-flight unit; npos = idle.
  std::size_t busy_unit = kIdle;
  /// Index into DispatchReport::worker_stats; kIdle until the entry is
  /// created (locals at spawn, remotes when their handshake passes).
  std::size_t stats_index = kIdle;
  /// Last byte received (remote liveness; pipes don't use it).
  SteadyClock::time_point last_heard;

  static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
};

/// fork/exec one worker with stdio pipes. Parent-held ends are
/// close-on-exec so later workers do not inherit earlier workers' pipes
/// (which would defeat EOF-based death detection), and non-blocking so
/// the dispatch poll loop treats them exactly like sockets (the child's
/// copies of the other ends are separate open file descriptions and stay
/// blocking). Throws on fork/pipe failure; exec failure surfaces as an
/// immediate EOF (exit 127).
Peer spawn_worker(const std::vector<std::string>& argv_strings) {
  RRL_EXPECTS(!argv_strings.empty());
  int to_child[2];    // parent writes [1], child reads [0]
  int from_child[2];  // child writes [1], parent reads [0]
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    throw contract_error("dispatch: pipe2 failed");
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw contract_error("dispatch: pipe2 failed");
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    throw contract_error("dispatch: fork failed");
  }
  if (pid == 0) {
    // Child: wire the pipe ends to stdin/stdout (dup2 clears CLOEXEC on
    // the duplicates) and exec the worker command.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (const std::string& arg : argv_strings) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "dispatch worker: exec failed: %s\n",
                 argv_strings.front().c_str());
    ::_exit(127);
  }

  ::close(to_child[0]);
  ::close(from_child[1]);
  set_nonblocking(from_child[0]);
  set_nonblocking(to_child[1]);
  Peer peer;
  peer.pid = pid;
  peer.channel = FrameChannel(from_child[0], to_child[1],
                              /*is_socket=*/false);
  peer.alive = true;
  peer.last_heard = SteadyClock::now();
  return peer;
}

}  // namespace

DispatchReport dispatch_study(const StudyPlan& plan,
                              const DispatchOptions& options,
                              StudyReducer& reducer) {
  RRL_EXPECTS(options.workers >= 0);
  RRL_EXPECTS(options.workers >= 1 || options.listen_fd >= 0);
  if (options.workers >= 1 && options.worker_command.empty()) {
    throw contract_error("dispatch: empty worker command");
  }
  const Stopwatch watch;
  const ScopedIgnoreSigpipe sigpipe_guard;
  const trace::Span dispatch_span("dispatch.run", plan.units.size());

  // Longest-processing-time handout order: expensive units first, so the
  // heaviest model starts immediately and the cheap tail back-fills the
  // other workers. Ties break by id for determinism of the SCHEDULE
  // (results are order-independent either way).
  std::vector<std::size_t> order(plan.units.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.units[a].cost > plan.units[b].cost;
                   });
  std::deque<std::size_t> queue(order.begin(), order.end());

  std::deque<Peer> peers;  // deque: stable references as remotes join

  DispatchReport report;
  report.workers = options.workers;
  std::size_t units_reduced = 0;
  bool waiting_noted = false;

  // Observability clock: scenarios/sec and busy fractions in the live
  // stats lines are measured against dispatch start.
  const SteadyClock::time_point started = SteadyClock::now();
  SteadyClock::time_point next_stats =
      options.stats_interval_ms > 0
          ? started + std::chrono::milliseconds(options.stats_interval_ms)
          : SteadyClock::time_point::max();

  const auto new_worker_stats = [&](bool remote) {
    WorkerStats stats;
    stats.remote = remote;
    std::size_t ordinal = 0;
    for (const WorkerStats& w : report.worker_stats) {
      if (w.remote == remote) ++ordinal;
    }
    stats.label = (remote ? "remote-" : "local-") + std::to_string(ordinal);
    report.worker_stats.push_back(std::move(stats));
    return report.worker_stats.size() - 1;
  };

  // One live progress line on stderr (--stats-interval-ms): fleet
  // position, throughput, per-worker busy fractions ("x" marks a lost
  // worker), and the merged cache-tier funnel from the workers' latest
  // snapshots. Purely observational.
  const auto print_stats_line = [&] {
    const double elapsed =
        std::chrono::duration<double>(SteadyClock::now() - started).count();
    std::size_t in_flight = 0;
    for (const Peer& peer : peers) {
      if (peer.alive && peer.busy_unit != Peer::kIdle) ++in_flight;
    }
    std::vector<std::pair<std::string, std::uint64_t>> merged;
    for (const WorkerStats& w : report.worker_stats) {
      metrics::merge_counters(merged, w.counters);
    }
    const auto counter = [&](std::string_view name) -> unsigned long long {
      for (const auto& [n, v] : merged) {
        if (n == name) return static_cast<unsigned long long>(v);
      }
      return 0;
    };
    std::string busy;
    for (const WorkerStats& w : report.worker_stats) {
      if (!busy.empty()) busy += '/';
      if (w.lost) busy += 'x';
      char frac[32];
      std::snprintf(frac, sizeof(frac), "%.0f%%",
                    elapsed > 0.0 ? 100.0 * w.busy_seconds / elapsed : 0.0);
      busy += frac;
    }
    std::fprintf(
        stderr,
        "stats: %zu/%zu units done (%zu queued, %zu in flight), "
        "%llu scenarios, %.1f/sec, busy %s, cache mem %llu disk %llu "
        "fetch %llu cold %llu\n",
        units_reduced, plan.units.size(), queue.size(), in_flight,
        static_cast<unsigned long long>(report.scenarios),
        elapsed > 0.0 ? static_cast<double>(report.scenarios) / elapsed
                      : 0.0,
        busy.empty() ? "-" : busy.c_str(),
        counter("rrl_cache_memory_hits_total"),
        counter("rrl_cache_disk_hits_total"),
        counter("rrl_cache_fetch_hits_total"),
        counter("rrl_solver_compiles_total"));
  };

  // Bury a peer: close its channel, reap it (local), and put any
  // in-flight unit back at the head of the queue (it is the oldest — and
  // statistically the most expensive — outstanding work). For a local
  // child the kill covers the one case where the worker is still running
  // — a corrupt frame (something not ours on its stdout) or a heartbeat
  // timeout — so the blocking reap can never stall the fleet behind a
  // live or wedged process; on the usual EOF path the process is already
  // a zombie (its pid cannot be reused before the reap) and the kill is a
  // no-op. A remote has no pid — closing the socket is the whole burial.
  const auto lose_peer = [&](Peer& peer) {
    if (!peer.alive) return;
    peer.alive = false;
    peer.channel.close();
    if (peer.pid >= 0) {
      ::kill(peer.pid, SIGKILL);
      int status = 0;
      ::waitpid(peer.pid, &status, 0);
    }
    ++report.workers_lost;
    if (peer.stats_index != Peer::kIdle) {
      report.worker_stats[peer.stats_index].lost = true;
    }
    if (peer.busy_unit != Peer::kIdle) {
      queue.push_front(peer.busy_unit);
      ++report.redispatched;
      dispatch_counters().requeued.add(1);
      peer.busy_unit = Peer::kIdle;
    }
  };

  // Refuse a remote whose handshake disagrees: one stray wrong binary
  // must not kill the study (unlike a LOCAL mismatch, which is the
  // parent's own configuration and is fatal). Not counted as lost — it
  // never held work.
  const auto reject_remote = [&](Peer& peer, const char* why) {
    std::fprintf(stderr, "dispatch: rejecting remote worker: %s\n", why);
    peer.alive = false;
    peer.channel.close();
    ++report.remotes_rejected;
  };

  // Hand the next queued unit to an idle, greeted peer. The channel
  // queues what the fd cannot take right now (the poll loop flushes on
  // POLLOUT), so a short write still assigns; only a hard write error
  // means the peer just died — bury it (the unit stays at the queue
  // front) and report failure so the caller's loop re-examines the fleet.
  const auto assign_next = [&](Peer& peer) -> bool {
    if (queue.empty()) return true;
    const std::size_t unit_index = queue.front();
    const WorkUnit& unit = plan.units[unit_index];
    WireAssign assign;
    assign.unit = unit.id;
    assign.first_scenario = unit.first;
    assign.scenario_count = unit.count;
    if (!peer.channel.send(
            encode_frame(WireType::kAssign, encode_assign(assign)))) {
      lose_peer(peer);
      return false;
    }
    queue.pop_front();
    peer.busy_unit = unit_index;
    dispatch_counters().assigned.add(1);
    return true;
  };

  // One peer's incoming frames (hello, results, pings, artifact
  // requests). Throws only on fatal fleet-wide errors (a LOCAL handshake
  // mismatch, a unit the peer was never assigned).
  const auto handle_frames = [&](Peer& peer) {
    std::size_t consumed = 0;
    while (peer.alive) {
      std::optional<WireFrame> frame;
      try {
        frame = decode_frame(peer.channel.inbox(), consumed);
      } catch (const std::exception& e) {
        // A corrupt frame means the channel carries something that is
        // not our protocol (e.g. a worker that printed to stdout, or a
        // stray connection): that peer is unusable.
        if (peer.remote && !peer.greeted) {
          reject_remote(peer, e.what());
        } else {
          std::fprintf(stderr, "dispatch: dropping worker: %s\n", e.what());
          lose_peer(peer);
        }
        return;
      }
      if (!frame.has_value()) return;
      peer.channel.inbox().erase(0, consumed);

      if (frame->type == WireType::kHello) {
        const WireHello hello = decode_hello(frame->payload);
        const bool agrees =
            hello.protocol == kWireProtocolVersion &&
            hello.plan_fingerprint == plan.fingerprint &&
            hello.unit_count == plan.units.size() &&
            hello.total_scenarios == plan.total_scenarios;
        if (!agrees) {
          if (peer.remote) {
            reject_remote(peer,
                          "plan disagrees with the parent's (study file "
                          "or binary version mismatch)");
            return;
          }
          throw contract_error(
              "dispatch: worker plan disagrees with the parent's (did the "
              "study file change, or do the binaries differ?)");
        }
        peer.greeted = true;
        if (peer.remote) {
          ++report.remote_workers;
          peer.stats_index = new_worker_stats(/*remote=*/true);
        }
        (void)assign_next(peer);
      } else if (frame->type == WireType::kResult) {
        const trace::Span span("unit.reduce", frame->payload.size());
        WireResult result = decode_result(frame->payload);
        if (peer.busy_unit == Peer::kIdle ||
            plan.units[peer.busy_unit].id != result.unit) {
          throw contract_error(
              "dispatch: worker returned a unit it was not assigned");
        }
        const WorkUnit& unit = plan.units[peer.busy_unit];
        peer.busy_unit = Peer::kIdle;
        report.worker_seconds += result.seconds;
        if (peer.stats_index != Peer::kIdle) {
          WorkerStats& stats = report.worker_stats[peer.stats_index];
          ++stats.units;
          stats.scenarios += unit.count;
          stats.busy_seconds += result.seconds;
        }
        reducer.add_unit(unit.first, unit.count, std::move(result.rows));
        ++units_reduced;
        report.scenarios += unit.count;
        (void)assign_next(peer);
      } else if (frame->type == WireType::kStatsReport) {
        // The worker's latest process-wide counter snapshot, piggybacked
        // on unit completion. Absolute values: keep the newest only.
        // Observability only — never touches the reducer.
        const WireStatsReport stats = decode_stats_report(frame->payload);
        dispatch_counters().stats_frames.add(1);
        if (peer.stats_index != Peer::kIdle) {
          report.worker_stats[peer.stats_index].counters = stats.counters;
        }
      } else if (frame->type == WireType::kPing) {
        // Liveness only; last_heard was refreshed by the read itself.
        dispatch_counters().heartbeats.add(1);
      } else if (frame->type == WireType::kArtifactRequest) {
        const trace::Span span("artifact.serve");
        const SolverKey key = decode_solver_key(frame->payload);
        ++report.artifact_requests;
        WireArtifactData data;
        data.model_hash = key.model_hash;
        data.solver = key.solver;
        if (options.artifact_store != nullptr) {
          const auto artifact = options.artifact_store->load(key);
          if (artifact.has_value()) {
            data.found = true;
            data.blob = encode_artifact(*artifact);
            ++report.artifact_hits;
          }
        }
        if (!peer.channel.send(encode_frame(WireType::kArtifactData,
                                            encode_artifact_data(data)))) {
          lose_peer(peer);
          return;
        }
      } else {
        throw contract_error("dispatch: unexpected frame from worker");
      }
    }
  };

  try {
    // Spawn INSIDE the teardown scope: a pipe/fork failure partway
    // through a large fleet (EMFILE, EAGAIN) must bury the workers
    // already running, not leak them blocked on their stdin forever.
    for (int i = 0; i < options.workers; ++i) {
      std::vector<std::string> argv = options.worker_command;
      if (static_cast<std::size_t>(i) < options.worker_extra_args.size()) {
        const std::vector<std::string>& extra =
            options.worker_extra_args[i];
        argv.insert(argv.end(), extra.begin(), extra.end());
      }
      Peer peer = spawn_worker(argv);
      peer.stats_index = new_worker_stats(/*remote=*/false);
      peers.push_back(std::move(peer));
    }

    while (units_reduced < plan.units.size()) {
      // Re-arm idle workers BEFORE blocking: a unit re-queued by a worker
      // death must reach a survivor that already went idle (its last
      // frame is long processed, so no event will ever prompt it again) —
      // without this, losing the holder of the final unit would leave the
      // loop polling silent channels forever.
      for (Peer& peer : peers) {
        if (queue.empty()) break;
        if (peer.alive && peer.greeted && peer.busy_unit == Peer::kIdle) {
          (void)assign_next(peer);
        }
      }

      constexpr std::size_t kListenerTag = static_cast<std::size_t>(-1);
      std::vector<pollfd> fds;
      std::vector<std::size_t> fd_peers;
      for (std::size_t i = 0; i < peers.size(); ++i) {
        if (!peers[i].alive) continue;
        short events = POLLIN;
        if (peers[i].channel.wants_write()) {
          events = static_cast<short>(events | POLLOUT);
        }
        fds.push_back({peers[i].channel.read_fd(), events, 0});
        fd_peers.push_back(i);
      }
      const bool fleet_empty = fds.empty();
      if (options.listen_fd >= 0) {
        fds.push_back({options.listen_fd, POLLIN, 0});
        fd_peers.push_back(kListenerTag);
      }
      if (fleet_empty) {
        if (options.listen_fd < 0) {
          throw contract_error(
              "dispatch: all workers lost with work remaining (" +
              std::to_string(plan.units.size() - units_reduced) +
              " units undone)");
        }
        // Elastic fleet with a listener armed: work remains and nobody
        // holds it, but the next joiner can — wait instead of failing.
        if (!waiting_noted) {
          std::fprintf(stderr,
                       "dispatch: fleet empty, waiting for remote workers "
                       "to connect (%zu units remaining)\n",
                       plan.units.size() - units_reduced);
          waiting_noted = true;
        }
      }

      // Block until traffic — but never past the earliest remote
      // heartbeat deadline, so a hung machine is noticed even while
      // every channel is silent.
      int timeout_ms = -1;
      if (options.heartbeat_timeout_ms > 0) {
        const SteadyClock::time_point now = SteadyClock::now();
        for (const Peer& peer : peers) {
          if (!peer.alive || !peer.remote) continue;
          const auto deadline =
              peer.last_heard +
              std::chrono::milliseconds(options.heartbeat_timeout_ms);
          const auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - now)
                  .count();
          const int clamped =
              remaining < 0 ? 0 : static_cast<int>(remaining) + 1;
          if (timeout_ms < 0 || clamped < timeout_ms) timeout_ms = clamped;
        }
      }
      // ... nor past the next live-stats line.
      if (options.stats_interval_ms > 0) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                next_stats - SteadyClock::now())
                .count();
        const int clamped =
            remaining < 0 ? 0 : static_cast<int>(remaining) + 1;
        if (timeout_ms < 0 || clamped < timeout_ms) timeout_ms = clamped;
      }

      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw contract_error("dispatch: poll failed");
      }
      const SteadyClock::time_point now = SteadyClock::now();

      for (std::size_t f = 0; f < fds.size(); ++f) {
        if (fds[f].revents == 0) continue;
        if (fd_peers[f] == kListenerTag) {
          // Accept every pending joiner; each greets (or times out)
          // like any other peer from here on.
          for (;;) {
            const int fd = tcp_accept(options.listen_fd);
            if (fd < 0) break;
            set_nonblocking(fd);
            Peer peer;
            peer.remote = true;
            peer.channel = FrameChannel(fd, fd, /*is_socket=*/true);
            peer.alive = true;
            peer.last_heard = now;
            peers.push_back(std::move(peer));
            waiting_noted = false;
          }
          continue;
        }
        Peer& peer = peers[fd_peers[f]];
        if (!peer.alive) continue;  // lost while handling a sibling
        if ((fds[f].revents & POLLOUT) != 0 && !peer.channel.flush()) {
          lose_peer(peer);
          continue;
        }
        if ((fds[f].revents & POLLIN) != 0) {
          switch (peer.channel.read_some()) {
            case ChannelIo::kOk:
              peer.last_heard = now;
              handle_frames(peer);
              break;
            case ChannelIo::kAgain:
              break;
            case ChannelIo::kEof:
            case ChannelIo::kError:
              lose_peer(peer);
              break;
          }
        } else if ((fds[f].revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
          lose_peer(peer);  // hangup/error with nothing left to read
        }
      }

      // Heartbeat sweep: a remote silent past the deadline — no result,
      // no ping — is dead or hung; either way its unit must not wait on
      // it. (A hung-but-live remote that later wakes finds its socket
      // closed and exits; its late result is never double-reduced.)
      if (options.heartbeat_timeout_ms > 0) {
        for (Peer& peer : peers) {
          if (!peer.alive || !peer.remote) continue;
          if (now - peer.last_heard >
              std::chrono::milliseconds(options.heartbeat_timeout_ms)) {
            std::fprintf(stderr,
                         "dispatch: remote worker silent for %d ms, "
                         "declaring it dead\n",
                         options.heartbeat_timeout_ms);
            lose_peer(peer);
          }
        }
      }

      // Live stats line, at most one per interval (a burst of traffic
      // that overshoots several deadlines prints once and re-anchors).
      if (options.stats_interval_ms > 0 && now >= next_stats) {
        print_stats_line();
        const auto interval =
            std::chrono::milliseconds(options.stats_interval_ms);
        while (next_stats <= now) next_stats += interval;
      }
    }
  } catch (...) {
    // Fatal dispatch error: tear the fleet down before propagating so no
    // orphan worker outlives the parent.
    for (Peer& peer : peers) {
      if (!peer.alive) continue;
      if (peer.pid >= 0) ::kill(peer.pid, SIGTERM);
      lose_peer(peer);
    }
    throw;
  }

  // Every unit reduced: release the fleet. The shutdown frame is tiny,
  // but the channels are non-blocking — drain any queued remainder with
  // a short poll loop (best-effort: closing the channel also releases a
  // worker, via EOF).
  const std::string shutdown = encode_frame(WireType::kShutdown, {});
  for (Peer& peer : peers) {
    if (!peer.alive) continue;
    if (!peer.channel.send(shutdown)) continue;
    const SteadyClock::time_point give_up =
        SteadyClock::now() + std::chrono::seconds(5);
    while (peer.channel.wants_write() && SteadyClock::now() < give_up) {
      pollfd pfd{peer.channel.write_fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) break;
      if (!peer.channel.flush()) break;
    }
  }
  for (Peer& peer : peers) {
    if (!peer.alive) continue;
    peer.channel.close();
    if (peer.pid >= 0) {
      // A healthy worker exits promptly on shutdown/EOF. One that cannot
      // even be told (its pipe already broken) or that is hung must not
      // hang the parent's reap: grace-wait, then SIGKILL.
      int status = 0;
      const SteadyClock::time_point give_up =
          SteadyClock::now() + std::chrono::seconds(2);
      pid_t reaped = ::waitpid(peer.pid, &status, WNOHANG);
      while (reaped == 0 && SteadyClock::now() < give_up) {
        ::usleep(10 * 1000);
        reaped = ::waitpid(peer.pid, &status, WNOHANG);
      }
      if (reaped == 0) {
        ::kill(peer.pid, SIGKILL);
        ::waitpid(peer.pid, &status, 0);
      }
    }
    peer.alive = false;
  }

  reducer.finish();
  report.units = units_reduced;
  report.failed_scenarios = reducer.failed_scenarios();
  report.seconds = watch.seconds();
  // Fleet totals: each worker's counters are absolute for its process, so
  // summing the latest snapshots is the whole fleet's funnel.
  for (const WorkerStats& stats : report.worker_stats) {
    metrics::merge_counters(report.fleet_counters, stats.counters);
  }
  if (options.stats_interval_ms > 0) print_stats_line();
  return report;
}

// ---- worker side.

namespace {

/// The worker's half of the wire: one FrameChannel over blocking fds (a
/// send writes everything, a read_some waits), whose writes are
/// serialized by a mutex (the main thread's results and the heartbeat
/// thread's pings interleave safely), plus a stash for frames that arrive
/// while the artifact fetcher is waiting for its reply. Only the main
/// thread reads.
struct WorkerLink {
  FrameChannel channel;
  std::mutex write_mutex;
  std::deque<WireFrame> pending;
  bool eof = false;     ///< parent closed the stream
  bool failed = false;  ///< hard read error or corrupt frame

  bool write_frame(const std::string& bytes) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    return channel.send(bytes);
  }

  /// Next frame straight off the wire (blocking; skips the stash).
  std::optional<WireFrame> read_frame() {
    for (;;) {
      std::size_t consumed = 0;
      try {
        std::optional<WireFrame> frame =
            decode_frame(channel.inbox(), consumed);
        if (frame.has_value()) {
          channel.inbox().erase(0, consumed);
          return frame;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker: corrupt frame from parent: %s\n",
                     e.what());
        failed = true;
        return std::nullopt;
      }
      switch (channel.read_some()) {
        case ChannelIo::kOk:
        case ChannelIo::kAgain:
          break;
        case ChannelIo::kEof:
          eof = true;
          return std::nullopt;
        case ChannelIo::kError:
          failed = true;
          return std::nullopt;
      }
    }
  }

  /// Next frame for the main loop: stashed frames first, then the wire.
  std::optional<WireFrame> next_frame() {
    if (!pending.empty()) {
      WireFrame frame = std::move(pending.front());
      pending.pop_front();
      return frame;
    }
    return read_frame();
  }
};

/// The remote worker's liveness thread: one ping every interval, sent
/// through the link's write mutex so pings interleave with results, never
/// tear them. The main thread may be deep in a multi-minute solve — this
/// is what lets the parent distinguish that from a hang.
class Heartbeat {
 public:
  Heartbeat(WorkerLink& link, int interval_ms) {
    if (interval_ms <= 0) return;
    thread_ = std::thread([this, &link, interval_ms] {
      const std::string ping = encode_frame(WireType::kPing, {});
      std::unique_lock<std::mutex> lock(mutex_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return stop_; })) {
        lock.unlock();
        // A failed ping means the parent is gone; stop — the main loop
        // will see the EOF/EPIPE on its own next wire operation.
        const bool ok = link.write_frame(ping);
        lock.lock();
        if (!ok) break;
      }
    });
  }

  void stop() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  ~Heartbeat() { stop(); }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

int run_worker_loop(const StudyPlan& plan, SolverCache& cache,
                    const WorkerOptions& options, FrameChannel channel) {
  // Writing a hello/result after the PARENT died must surface as the
  // channel's error return (clean exit 1), not a SIGPIPE kill that skips
  // destructors — and must not take an in-process caller down.
  const ScopedIgnoreSigpipe sigpipe_guard;

  WorkerLink link;
  link.channel = std::move(channel);

  if (options.fetch_artifacts) {
    // Last-chance artifact source: ask the parent's store over the wire
    // before compiling cold. Runs on the main thread (the cache resolves
    // scenarios serially before fanning the sweep out), so the blocking
    // read here never races the main loop's reads; frames that are not
    // our reply (there should be none, but the protocol does not forbid
    // them) are stashed for the main loop. Every failure path — write
    // error, EOF, corrupt blob, identity mismatch — degrades to nullopt:
    // a counted miss and a local compile, never a wrong answer.
    cache.set_fetcher([&link](const SolverKey& key)
                          -> std::optional<CompiledArtifact> {
      if (!link.write_frame(encode_frame(WireType::kArtifactRequest,
                                         encode_solver_key(key)))) {
        return std::nullopt;
      }
      for (;;) {
        std::optional<WireFrame> frame = link.read_frame();
        if (!frame.has_value()) return std::nullopt;
        if (frame->type != WireType::kArtifactData) {
          link.pending.push_back(std::move(*frame));
          continue;
        }
        WireArtifactData data;
        try {
          data = decode_artifact_data(frame->payload);
        } catch (const std::exception&) {
          return std::nullopt;
        }
        if (!data.found) return std::nullopt;
        try {
          CompiledArtifact artifact = decode_artifact(data.blob);
          if (artifact.key == key) return artifact;
        } catch (const std::exception&) {
          // fall through: a corrupt blob is a miss, not an error
        }
        return std::nullopt;
      }
    });
  }

  WireHello hello;
  hello.plan_fingerprint = plan.fingerprint;
  hello.unit_count = plan.units.size();
  hello.total_scenarios = plan.total_scenarios;
  if (!link.write_frame(
          encode_frame(WireType::kHello, encode_hello(hello)))) {
    return 1;
  }

  Heartbeat heartbeat(link, options.heartbeat_ms);

  ExecOptions exec;
  exec.jobs = options.jobs;
  exec.use_cache = options.use_cache;

  // Pool and workspaces persist across units: thread and buffer warm-up
  // is paid once per worker, not once per unit.
  ThreadPool pool(options.jobs);
  std::vector<SolveWorkspace> workspaces;

  int executed = 0;
  double busy_seconds = 0.0;
  for (;;) {
    const std::optional<WireFrame> frame = link.next_frame();
    if (!frame.has_value()) {
      // Parent gone mid-stream: clean exit when nothing was in flight
      // (EOF), error exit on corruption or a hard read failure.
      return link.eof ? 0 : 1;
    }

    if (frame->type == WireType::kShutdown) {
      const metrics::MetricsSnapshot snap = metrics::snapshot();
      const std::uint64_t hits = snap.value("rrl_cache_fetch_hits_total");
      const std::uint64_t misses = snap.value("rrl_cache_fetch_misses_total");
      if (hits > 0 || misses > 0) {
        std::fprintf(stderr, "worker: artifact fetch %llu hits / %llu misses\n",
                     static_cast<unsigned long long>(hits),
                     static_cast<unsigned long long>(misses));
      }
      return 0;
    }
    if (frame->type != WireType::kAssign) {
      std::fprintf(stderr, "worker: unexpected frame type\n");
      return 1;
    }
    const WireAssign assign = decode_assign(frame->payload);
    if (assign.unit >= plan.units.size()) {
      std::fprintf(stderr, "worker: unit id out of range\n");
      return 1;
    }
    const WorkUnit& unit = plan.units[assign.unit];
    if (unit.first != assign.first_scenario ||
        unit.count != assign.scenario_count) {
      std::fprintf(stderr, "worker: unit range disagrees with parent\n");
      return 1;
    }
    if (options.die_after_units >= 0 &&
        executed >= options.die_after_units) {
      // Test hook: die mid-unit, after accepting the assignment and
      // before replying — exactly the window death recovery must cover.
      // The optional delay lets the rest of the fleet go idle first.
      if (options.die_delay_ms > 0) {
        ::usleep(static_cast<useconds_t>(options.die_delay_ms) * 1000);
      }
      ::_exit(3);
    }
    if (options.mute_after_units >= 0 &&
        executed >= options.mute_after_units) {
      // Test hook: accept the assignment, then go silent WITHOUT dying
      // or closing anything — no result, no pings, socket healthy, the
      // unit held hostage. Only the parent's heartbeat timeout can
      // reclaim it.
      heartbeat.stop();
      for (;;) ::pause();
    }

    const Stopwatch unit_watch;
    const ExecutedSlice slice =
        execute_unit(plan, unit, cache, exec, &pool, &workspaces);
    // Publish freshly compiled artifacts before replying: a fleet peer
    // pointed at the same cache-dir can then warm-start this model while
    // the run is still in progress. No-op without an attached store.
    {
      const trace::Span span("artifact.flush");
      cache.flush_to_store();
    }

    const bool deaf_now = options.deaf_after_units >= 0 &&
                          executed + 1 >= options.deaf_after_units;
    if (deaf_now) {
      // Test hook: stop READING without dying — close our end of the
      // parent->worker stream BEFORE replying, so the parent's next
      // assign write deterministically hits EPIPE (pipes) with the
      // process still alive: the observed-death-on-write path, which
      // must bury us, not crash the parent. (Closing after the reply
      // would race the parent's next assign into the pipe buffer and
      // deadlock the fleet.)
      const std::lock_guard<std::mutex> lock(link.write_mutex);
      link.channel.close_read();
    }

    WireResult result;
    result.unit = unit.id;
    result.seconds = unit_watch.seconds();
    result.rows = slice.rows();
    ++executed;
    busy_seconds += result.seconds;

    // Piggyback this process's observability snapshot on the completion,
    // sent BEFORE the result frame: frames arrive in order, so when the
    // parent reduces this unit (possibly the run's last, after which it
    // stops reading us) it has already stored the snapshot that covers
    // it — final fleet totals miss nothing. Counter values are absolute,
    // so a frame lost with its worker only delays the parent's view.
    // Best-effort: a failed write here means the parent is gone, which
    // the result write below surfaces anyway.
    WireStatsReport stats;
    stats.units = static_cast<std::uint64_t>(executed);
    stats.busy_seconds = busy_seconds;
    stats.counters = metrics::snapshot().counters;
    (void)link.write_frame(
        encode_frame(WireType::kStatsReport, encode_stats_report(stats)));

    {
      const trace::Span span("wire.result.send", result.rows.size());
      if (!link.write_frame(encode_frame(WireType::kResult,
                                         encode_result(result)))) {
        return 1;
      }
    }

    if (deaf_now) {
      for (;;) ::pause();
    }
  }
}

}  // namespace rrl
