// Minimal persistent worker pool: the library's one thread runtime.
//
// The sweep engine, the row-partitioned SpMV kernels and RRL's per-point
// inversions all need the same primitive: run `body(index)` for every
// index of a fixed-size range across a few long-lived threads, then join.
// parallel_for() provides it with dynamic (work-stealing-ish) index
// scheduling via one shared atomic cursor, so uneven costs — an SR solve
// at t = 1e5 next to an RRL solve — still load-balance. The callable goes
// through a plain function-pointer thunk (no std::function), so a
// parallel_for call allocates nothing: it is safe in a solver hot loop.
//
// Determinism contract: parallel_for() imposes NO ordering between indices;
// deterministic results come from each index writing only to its own
// pre-allocated slot (ordered reduction happens in the caller, by slot).
// The worker id passed alongside the index is a stable slot in
// [0, num_threads()) for per-worker scratch (e.g. one SolveWorkspace per
// worker); worker 0 is always the calling thread, which participates.
//
// Reentrancy: a parallel_for issued from INSIDE another parallel_for body
// (any pool) runs inline on the calling thread — the outer loop already
// owns the cores. The worker id the nested body sees stays within the
// driven pool's contract: the ambient slot when the nested call drives the
// SAME pool (that slot belongs to this thread there), slot 0 when it
// drives a different pool (which then has no loop of its own in flight).
// Driving the SAME pool from two different orchestrator threads at once is
// not supported (each orchestrating thread gets its own pool); the entry
// check fails fast on that misuse.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace rrl {

/// The most threads (a study's `jobs`, `--jobs`) or local worker
/// processes (`--workers`) a study file or the command line may ask for:
/// larger counts are refused where they are parsed, before any pool
/// starts or process forks. Ample for one host.
inline constexpr int kMaxJobs = 1024;

class ThreadPool {
 public:
  /// A pool of `threads` workers INCLUDING the calling thread (so
  /// ThreadPool(4) spawns 3 std::threads); <= 0 selects the hardware
  /// concurrency. ThreadPool(1) runs everything inline on the caller.
  explicit ThreadPool(int threads = 0) {
    int n = threads > 0 ? threads : hardware_threads();
    if (n < 1) n = 1;
    num_threads_ = n;
    workers_.reserve(static_cast<std::size_t>(n - 1));
    try {
      for (int w = 1; w < n; ++w) {
        workers_.emplace_back(
            [this, w] { worker_loop(static_cast<std::size_t>(w)); });
      }
    } catch (...) {
      // Thread exhaustion partway through: the destructor will not run, so
      // join the already-spawned workers here before surfacing the error
      // (destroying a joinable std::thread would terminate the process).
      shutdown();
      throw;
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() { shutdown(); }

  /// Worker count including the calling thread (>= 1).
  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }

  /// std::thread::hardware_concurrency() with a floor of 1.
  [[nodiscard]] static int hardware_threads() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }

  /// True while the calling thread is executing parallel_for() work of a
  /// MULTI-threaded loop (a pool worker, or the caller participating as
  /// worker 0). Inner layers consult this to skip NESTED parallelism: a
  /// solve inside a sweep worker does not fan out over a lent pool
  /// (SolveWorkspace::pooled_loop). A 1-thread pool deliberately does not
  /// set it: its inline loop leaves the cores to the layers inside.
  [[nodiscard]] static bool in_parallel_region() noexcept {
    return in_region_;
  }

  /// Runs body(index, worker) — or body(index), if that is the callable's
  /// arity — for every index in [0, count), distributing indices
  /// dynamically over the pool; blocks until all have finished. `worker`
  /// is the executing thread's stable slot in [0, num_threads()). The
  /// first exception thrown by any body is rethrown on the caller after
  /// the loop has drained (remaining indices still execute).
  template <typename Body>
  void parallel_for(std::size_t count, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    run(count, const_cast<std::remove_const_t<Fn>*>(&body),
        [](void* ctx, std::size_t i, std::size_t worker) {
          Fn& fn = *static_cast<Fn*>(ctx);
          if constexpr (std::is_invocable_v<Fn&, std::size_t, std::size_t>) {
            fn(i, worker);
          } else {
            fn(i);
          }
        });
  }

 private:
  using BodyFn = void (*)(void* ctx, std::size_t index, std::size_t worker);

  void shutdown() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  void run(std::size_t count, void* ctx, BodyFn fn) {
    if (count == 0) return;
    // Task accounting: one loop, `count` indices — whether it runs inline
    // or across the workers (the split is visible via num_threads()).
    static auto& loops = metrics::counter("rrl_pool_loops_total");
    static auto& indices = metrics::counter("rrl_pool_indices_total");
    loops.add(1);
    indices.add(count);
    if (num_threads_ == 1 || count == 1 || in_region_) {
      // Inline on the caller, with the same drain-then-rethrow exception
      // contract as the threaded path. Reentrant calls (in_region_) land
      // here by design; the slot they see must be valid for THIS pool —
      // the ambient slot only when the enclosing loop runs on this very
      // pool (then it is this thread's own slot here), otherwise 0.
      if (in_region_ && region_pool_ != this) {
        // Slot 0 of this pool is claimed below, so this pool must have no
        // loop of its own in flight: fail fast on the unsupported
        // cross-drive instead of silently racing on slot-indexed scratch.
        const std::lock_guard<std::mutex> lock(mutex_);
        RRL_EXPECTS(body_ctx_ == nullptr);
      }
      const std::size_t slot = region_pool_ == this ? worker_slot_ : 0;
      std::exception_ptr error;
      for (std::size_t i = 0; i < count; ++i) {
        try {
          fn(ctx, i, slot);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // One loop at a time per pool: two orchestrator threads driving the
      // same pool would corrupt each other's in-flight loop.
      RRL_EXPECTS(body_ctx_ == nullptr);
      body_ctx_ = ctx;
      body_fn_ = fn;
      count_ = count;
      cursor_.store(0, std::memory_order_relaxed);
      active_ = num_threads_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    run_indices(0);  // the caller is worker 0
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_ == 0; });
    body_ctx_ = nullptr;
    body_fn_ = nullptr;
    if (error_) {
      const std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

  void run_indices(std::size_t worker) {
    // Save/restore rather than set/clear: a nested parallel_for on a
    // DIFFERENT pool (e.g. pooled SpMV inside a sweep scenario) must not
    // switch the guard off for the remainder of the outer region.
    const bool was_in_region = in_region_;
    const std::size_t was_worker = worker_slot_;
    const ThreadPool* was_pool = region_pool_;
    in_region_ = true;
    worker_slot_ = worker;
    region_pool_ = this;
    for (;;) {
      const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) break;
      try {
        body_fn_(body_ctx_, i, worker);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
    in_region_ = was_in_region;
    worker_slot_ = was_worker;
    region_pool_ = was_pool;
  }

  void worker_loop(std::size_t worker) {
    std::uint64_t seen = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [this, seen] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      lock.unlock();
      run_indices(worker);
      lock.lock();
      const bool last = --active_ == 0;
      lock.unlock();
      if (last) done_cv_.notify_one();
    }
  }

  inline static thread_local bool in_region_ = false;
  inline static thread_local std::size_t worker_slot_ = 0;
  inline static thread_local const ThreadPool* region_pool_ = nullptr;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  int num_threads_ = 1;

  // State of the in-flight parallel_for (guarded by mutex_ except for the
  // cursor, which is the only cross-thread hot path).
  void* body_ctx_ = nullptr;
  BodyFn body_fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> cursor_{0};
  int active_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace rrl
