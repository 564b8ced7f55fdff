// Reusable solve buffers for the randomization hot loops.
//
// Every randomization pass needs the same model-sized vectors: the current
// distribution (or backward reward vector) `pi`, the stepping target `next`,
// and occasional scratch. Allocating them per solve_grid() call is wasted
// work in sweep workloads that push hundreds of scenarios through the same
// process, so the solvers take an explicit SolveWorkspace whose buffers are
// resized (never shrunk below capacity) across calls — after warm-up, the
// vector iterates stepped in the hot loop allocate nothing. (Per-solve
// bookkeeping — Poisson weight windows, per-point accumulators — is sized
// by the request, not the model, and still allocates once per solve.)
//
// Threading contract: a workspace is mutable per-solve state. Solvers are
// immutable after construction and safe to share across threads, but each
// concurrent solve_grid() call must bring its OWN workspace (the sweep
// engine keeps one per worker).
//
// The workspace also lends an OPTIONAL worker pool to a solve's inner
// loops (lent_pool: the randomization methods' model-sized products, RRL's
// per-point inversions). Solvers consult pooled_loop() (the nested-
// parallelism guard: never fan out inside a parallel region, where the
// unit axis owns the cores) and, for products, pooled_spmv()'s size floor
// (pool synchronization pays only on large products; a live-prefix pass,
// markov/dtmc.hpp, counts only its prefix's entries).
// Buffers are allocated cache-line aligned (sparse/aligned_alloc.hpp): the
// vector operands of the vectorized SpMV kernels then start on a 64-byte
// boundary, so the kernels' (unaligned-instruction) loads and stores never
// split a cache line. Alignment is a throughput property only — kernel
// correctness and bit-identity never depend on it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sparse/aligned_alloc.hpp"
#include "support/thread_pool.hpp"

namespace rrl {

class SolveWorkspace {
 public:
  /// Current-iterate buffer (forward pi or backward w), resized to n;
  /// contents unspecified on return.
  [[nodiscard]] AlignedVector<double>& pi(std::size_t n) {
    return sized(pi_, n);
  }
  /// Stepping target buffer, resized to n; contents unspecified on return.
  [[nodiscard]] AlignedVector<double>& next(std::size_t n) {
    return sized(next_, n);
  }
  /// General scratch buffer, resized to n; contents unspecified on return.
  [[nodiscard]] AlignedVector<double>& scratch(std::size_t n) {
    return sized(scratch_, n);
  }

  /// Stored-entry floor below which the pooled SpMV path is skipped: one
  /// pooled product costs a pool wake-up + join (microseconds), which only
  /// amortizes against products whose serial SpMV is at least comparable.
  static constexpr std::int64_t kMinPooledNnz = 32768;

  /// Borrowed pool for a solve's inner loops; nullptr (the default) keeps
  /// every loop serial. Set by the sweep engine's model-parallel route and
  /// by the single-solve CLI; callers driving solve_grid() directly may
  /// set it too. The pool must outlive the solve.
  ThreadPool* lent_pool = nullptr;

  /// The pool to run a loop over, or nullptr to stay serial: requires a
  /// lent pool with real workers and — the nested-parallelism guard — a
  /// caller outside any parallel_for region (there the cores belong to the
  /// unit axis). Every pooled loop writes per-index slots only, so
  /// consulting this is purely a scheduling decision.
  [[nodiscard]] ThreadPool* pooled_loop() const noexcept {
    return (lent_pool != nullptr && lent_pool->num_threads() > 1 &&
            !ThreadPool::in_parallel_region())
               ? lent_pool
               : nullptr;
  }

  /// pooled_loop() for a product over `nnz` >= kMinPooledNnz entries.
  [[nodiscard]] ThreadPool* pooled_spmv(std::int64_t nnz) const noexcept {
    return nnz >= kMinPooledNnz ? pooled_loop() : nullptr;
  }

 private:
  static AlignedVector<double>& sized(AlignedVector<double>& v,
                                      std::size_t n) {
    v.resize(n);  // capacity is retained across calls
    return v;
  }

  AlignedVector<double> pi_;
  AlignedVector<double> next_;
  AlignedVector<double> scratch_;
};

}  // namespace rrl
