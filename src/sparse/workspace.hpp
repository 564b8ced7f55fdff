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
// The workspace also carries the OPTIONAL worker pool for row-partitioned
// SpMV inside the solvers' hot loops (spmv_pool): when a batch has fewer
// scenarios than workers, the sweep engine runs the scenarios serially and
// points the workspace at the pool instead, so the idle workers go to the
// model-sized matrix-vector products. Solvers consult pooled_spmv(), which
// applies the nested-parallelism guard (never partition from inside a
// parallel region — the scenario axis already owns the cores) and a
// product-size floor (the per-step pool synchronization only pays for
// itself on large products; a live-prefix pass, markov/dtmc.hpp, counts
// only its prefix's entries).
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

  /// Borrowed pool for row-partitioned SpMV in solver hot loops; nullptr
  /// (the default) keeps every product serial. Set by the sweep engine's
  /// small-batch path; callers driving solve_grid() directly may set it
  /// too. The pool must outlive the solve.
  ThreadPool* spmv_pool = nullptr;

  /// The pool to row-partition a product over, or nullptr to stay serial:
  /// requires a pool with real workers, a product over at least
  /// kMinPooledNnz stored entries, and — the nested-parallelism guard — a
  /// calling thread that is not already inside a parallel_for region
  /// (there the cores belong to the scenario axis, and a nested pooled
  /// call would run inline anyway). The pooled kernel is bit-identical to
  /// the serial one, so consulting this is purely a scheduling decision.
  [[nodiscard]] ThreadPool* pooled_spmv(std::int64_t nnz) const noexcept {
    return (spmv_pool != nullptr && spmv_pool->num_threads() > 1 &&
            nnz >= kMinPooledNnz && !ThreadPool::in_parallel_region())
               ? spmv_pool
               : nullptr;
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
