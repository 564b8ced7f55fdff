// Compressed-sparse-row matrix substrate.
//
// All solvers in this library reduce to repeated sparse matrix-vector
// products with the (randomized) transition matrix, so this module provides a
// cache-friendly CSR container, a duplicate-summing triplet builder, a
// transpose, gather-style SpMV entry points, and multi-RHS SpMM block
// entry points over column tiles. The products dispatch
// through the runtime-selected vectorized kernels (sparse/spmv_kernels.hpp)
// and, after a specialize() pass, through the blocked SELL-8 layout
// (sparse/sell.hpp) — all bit-identical to the serial scalar reference.
// Matrices are immutable after construction (P.10: prefer immutable data);
// specialize() only attaches derived data and must run before sharing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace rrl {

class ThreadPool;    // support/thread_pool.hpp
struct SellLayout;   // sparse/sell.hpp
struct SpmvKernels;  // sparse/spmv_kernels.hpp

/// Index type for matrix dimensions / state indices. 32-bit indices keep the
/// CSR arrays compact; models in this library are well below 2^31 states.
using index_t = std::int32_t;

/// One (row, col, value) entry used while assembling a sparse matrix.
struct Triplet {
  index_t row = 0;
  index_t col = 0;
  double value = 0.0;
};

/// One column tile of a multi-RHS product: `b` and `c` are the input and
/// output tiles in the column-interleaved layout of sparse/block.hpp
/// (element (row r, lane j) at tile[r * width + j]), `width` is the tile
/// stride (kSpmmTileNarrow or kSpmmTileWide), `cols` the live columns
/// <= width (metrics only — kernels compute every lane).
struct SpmmOperand {
  const double* b = nullptr;
  double* c = nullptr;
  index_t width = 0;
  index_t cols = 0;
};

/// Immutable CSR sparse matrix over doubles.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets. Duplicate (row, col) entries are summed; entries
  /// that sum to exactly zero are kept (callers may rely on the pattern).
  /// Preconditions: all indices within [0, rows) x [0, cols).
  static CsrMatrix from_triplets(index_t rows, index_t cols,
                                 std::vector<Triplet> entries);

  /// Re-assemble a matrix from raw CSR arrays — the exact inverse of
  /// reading row_ptr()/col_idx()/values(), used by the artifact codec to
  /// reconstruct a serialized matrix bit-identically (from_triplets would
  /// re-sort and re-sum, an O(nnz log nnz) detour for data that is already
  /// in canonical form). Validates the CSR invariants (monotone row
  /// pointers starting at 0, matching array lengths, column indices in
  /// range and strictly increasing within each row) and throws
  /// contract_error on violation, so a corrupt artifact is rejected rather
  /// than adopted.
  static CsrMatrix from_parts(index_t rows, index_t cols,
                              std::vector<std::int64_t> row_ptr,
                              std::vector<index_t> col_idx,
                              std::vector<double> values);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(values_.size());
  }

  /// Row pointer array, size rows()+1.
  [[nodiscard]] std::span<const std::int64_t> row_ptr() const noexcept {
    return row_ptr_;
  }
  /// Column index array, size nnz(), sorted within each row.
  [[nodiscard]] std::span<const index_t> col_idx() const noexcept {
    return col_idx_;
  }
  /// Value array, size nnz().
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

  /// Format-specialization pass (run at solver compile() time): analyze
  /// the row-length histogram and derive the blocked SELL-8 layout
  /// (sparse/sell.hpp) alongside the CSR arrays when the heuristic says it
  /// pays (>= kMinSellNnz covered entries, bounded padding);
  /// `force_blocked` bypasses the heuristic (tests, benchmarks). All
  /// products stay bit-identical either way — the layout only changes
  /// which kernel walks the entries, never the per-row accumulation
  /// order. NOT thread-safe: call before the matrix is shared across
  /// threads (the compile phase is single-threaded per matrix); copies
  /// share the derived layout. The layout is derived data and is never
  /// serialized (io/artifact_codec ships the canonical CSR arrays only);
  /// importers re-run this pass.
  void specialize(bool force_blocked = false);

  /// The derived blocked layout, or nullptr when specialize() has not run
  /// or rejected the matrix.
  [[nodiscard]] const SellLayout* sell() const noexcept {
    return sell_.get();
  }

  /// y = A x (gather kernel: one pass per row, sequential writes),
  /// dispatched through the process-wide active SpMV kernels
  /// (sparse/spmv_kernels.hpp).
  /// Preconditions: x.size() == cols(), y.size() == rows(); x and y distinct.
  void mul_vec(std::span<const double> x, std::span<double> y) const;

  /// y = A x with an explicit kernel variant — the testing/benchmark hook
  /// behind mul_vec (which passes active_kernels()). Same preconditions.
  void mul_vec_with(const SpmvKernels& kernels, std::span<const double> x,
                    std::span<double> y) const;

  /// y = A x with the rows partitioned across `pool` (chunks balanced by
  /// stored-entry count, one contiguous row range per worker). Each row is
  /// accumulated in the same order as the serial kernel and every worker
  /// writes a disjoint slice of y, so the result is bit-identical to
  /// mul_vec() regardless of thread count. Preconditions as mul_vec().
  void mul_vec(std::span<const double> x, std::span<double> y,
               ThreadPool& pool) const;

  /// y[0..leading) = (A x)[0..leading): the product restricted to the
  /// leading `leading` rows, each accumulated exactly as in mul_vec
  /// (live-prefix passes, markov/dtmc.hpp, step only the rows their
  /// iterate can have reached — restricting the product skips that work
  /// without touching the per-row arithmetic). Preconditions:
  /// x.size() == cols(), y.size() >= leading, 0 <= leading <= rows(); x
  /// and y distinct.
  void mul_vec_leading(std::span<const double> x, std::span<double> y,
                       index_t leading) const;

  /// Leading-rows product with the rows partitioned across `pool`
  /// (nnz-balanced contiguous chunks, bit-identical to the serial form —
  /// same guarantees as the pooled mul_vec).
  void mul_vec_leading(std::span<const double> x, std::span<double> y,
                       index_t leading, ThreadPool& pool) const;

  /// C[0..leading) = (A B)[0..leading) over a set of column tiles — the
  /// multi-RHS product. Each tile's input must cover cols() rows and its
  /// output at least `leading`; per tile the per-row, per-column
  /// accumulation order is exactly mul_vec's, so column j of the result
  /// is bitwise the single-vector product of column j. Dispatches through
  /// the process-wide active kernels.
  /// Preconditions: every operand width is kSpmmTileNarrow or
  /// kSpmmTileWide, 0 < cols <= width, b != c; 0 <= leading <= rows().
  void mul_block(std::span<const SpmmOperand> tiles, index_t leading) const;

  /// Pooled mul_block: rows partitioned across `pool` with the same
  /// nnz-balanced contiguous chunks as the pooled mul_vec (each worker
  /// applies every tile over its row range), bit-identical to the serial
  /// form for any thread count.
  void mul_block(std::span<const SpmmOperand> tiles, index_t leading,
                 ThreadPool& pool) const;

  /// mul_block with an explicit kernel variant — the testing/benchmark
  /// hook behind mul_block (which passes active_kernels()).
  void mul_block_with(const SpmvKernels& kernels,
                      std::span<const SpmmOperand> tiles,
                      index_t leading) const;

  /// y = A^T x (scatter kernel). Preconditions mirror mul_vec.
  void mul_vec_transposed(std::span<const double> x, std::span<double> y) const;

  /// Returns A^T as a new CSR matrix (used to turn row-stochastic P into a
  /// gather-friendly stepping operator for distributions).
  [[nodiscard]] CsrMatrix transposed() const;

  /// Sum of each row's values (e.g. total exit rates of a rate matrix).
  [[nodiscard]] std::vector<double> row_sums() const;

  /// Value at (row, col); zero if the entry is not stored. O(log nnz(row)).
  [[nodiscard]] double coeff(index_t row, index_t col) const;

 private:
  /// Run `kernels` over rows [r_begin, r_end): SELL chunks for the
  /// chunk-aligned blocked span (when specialize() built one), CSR row
  /// kernel for the head/tail fringes. Bit-identical for any split.
  void apply_rows(const SpmvKernels& kernels, std::span<const double> x,
                  std::span<double> y, index_t r_begin, index_t r_end) const;

  /// The SpMM analogue of apply_rows: run the width-matched tile kernels
  /// of `kernels` over rows [r_begin, r_end) for every operand.
  void apply_rows_mm(const SpmvKernels& kernels,
                     std::span<const SpmmOperand> tiles, index_t r_begin,
                     index_t r_end) const;

  /// Boundary of worker chunk `c` when [0, leading) is split across
  /// `workers` nnz-balanced contiguous row ranges (SELL-snapped when a
  /// blocked layout exists) — shared by the pooled mul_vec_leading and
  /// mul_block paths.
  [[nodiscard]] index_t chunk_boundary(index_t leading, int workers,
                                       int c) const;

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_ = {0};
  std::vector<index_t> col_idx_;
  std::vector<double> values_;
  /// Derived blocked layout (never serialized); shared so copies reuse it.
  std::shared_ptr<const SellLayout> sell_;
};

}  // namespace rrl
