#include "sparse/csr.hpp"

#include <algorithm>

#include "sparse/sell.hpp"
#include "sparse/spmv_kernels.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

// Work counters for every full product entry point (mul_vec and the
// leading-prefix variants; apply_rows is their shared row walk and is not
// counted again). Three relaxed adds per product — negligible against
// even a few-hundred-state model's row sweep.
struct SpmvCounters {
  metrics::Counter& products = metrics::counter("rrl_spmv_products_total");
  metrics::Counter& rows = metrics::counter("rrl_spmv_rows_total");
  metrics::Counter& nnz = metrics::counter("rrl_spmv_nnz_total");
};

SpmvCounters& spmv_counters() {
  static SpmvCounters c;
  return c;
}

void note_product(const std::vector<std::int64_t>& row_ptr,
                  index_t leading) {
  SpmvCounters& c = spmv_counters();
  c.products.add(1);
  c.rows.add(static_cast<std::uint64_t>(leading));
  c.nnz.add(static_cast<std::uint64_t>(
      row_ptr[static_cast<std::size_t>(leading)]));
}

// Multi-RHS products count separately from SpMV so the scenarios/sec win
// of a batched solve is visible in the fleet stats: one `products` tick
// per mul_block call, `columns` summing the live lanes it advanced.
struct SpmmCounters {
  metrics::Counter& products = metrics::counter("rrl_spmm_products_total");
  metrics::Counter& columns = metrics::counter("rrl_spmm_columns_total");
};

SpmmCounters& spmm_counters() {
  static SpmmCounters c;
  return c;
}

void note_block(std::span<const SpmmOperand> tiles) {
  SpmmCounters& c = spmm_counters();
  c.products.add(1);
  std::uint64_t cols = 0;
  for (const SpmmOperand& t : tiles) {
    cols += static_cast<std::uint64_t>(t.cols);
  }
  c.columns.add(cols);
}

}  // namespace

// The single shared row walk of the serial and the row-partitioned paths:
// SELL chunks for the chunk-aligned blocked span, CSR row kernel for the
// fringes. Every kernel variant preserves the per-row accumulation order,
// so any split of [r_begin, r_end) is bit-identical to the serial scalar
// reference.
void CsrMatrix::apply_rows(const SpmvKernels& kernels,
                           std::span<const double> x, std::span<double> y,
                           index_t r_begin, index_t r_end) const {
  const std::int64_t* rp = row_ptr_.data();
  const index_t* ci = col_idx_.data();
  const double* vals = values_.data();
  if (sell_ != nullptr && r_begin < sell_->covered_rows) {
    constexpr index_t kC = kSellChunkRows;
    const index_t blocked_end = std::min(r_end, sell_->covered_rows);
    // Head fringe up to the first chunk boundary at or after r_begin.
    const index_t head_end =
        std::min(blocked_end, (r_begin + kC - 1) / kC * kC);
    if (r_begin < head_end) {
      kernels.csr_rows(rp, ci, vals, x.data(), y.data(), r_begin, head_end);
    }
    const index_t c_begin = head_end / kC;
    const index_t c_end = blocked_end / kC;
    if (c_begin < c_end) {
      kernels.sell_chunks(sell_->chunk_ptr.data(), sell_->col_idx.data(),
                          sell_->values.data(), x.data(), y.data(), c_begin,
                          c_end);
    }
    // Tail fringe: the rows past the last whole chunk (blocked_end not a
    // chunk multiple only when it equals r_end or covered_rows' end).
    const index_t tail_begin = std::max(head_end, c_end * kC);
    if (tail_begin < r_end) {
      kernels.csr_rows(rp, ci, vals, x.data(), y.data(), tail_begin, r_end);
    }
  } else if (r_begin < r_end) {
    kernels.csr_rows(rp, ci, vals, x.data(), y.data(), r_begin, r_end);
  }
}

// Same fringe split as apply_rows, walked once per column tile: the block
// paths exist to stream the matrix once per TILE instead of once per
// column, so the tile loop stays outermost and the kernels keep whole
// W-wide row groups register-resident.
void CsrMatrix::apply_rows_mm(const SpmvKernels& kernels,
                              std::span<const SpmmOperand> tiles,
                              index_t r_begin, index_t r_end) const {
  const std::int64_t* rp = row_ptr_.data();
  const index_t* ci = col_idx_.data();
  const double* vals = values_.data();
  for (const SpmmOperand& t : tiles) {
    const bool wide = t.width == kSpmmTileWide;
    const CsrRowsMmFn rows_fn =
        wide ? kernels.csr_rows_mm8 : kernels.csr_rows_mm4;
    const SellChunksMmFn chunks_fn =
        wide ? kernels.sell_chunks_mm8 : kernels.sell_chunks_mm4;
    if (sell_ != nullptr && r_begin < sell_->covered_rows) {
      constexpr index_t kC = kSellChunkRows;
      const index_t blocked_end = std::min(r_end, sell_->covered_rows);
      const index_t head_end =
          std::min(blocked_end, (r_begin + kC - 1) / kC * kC);
      if (r_begin < head_end) {
        rows_fn(rp, ci, vals, t.b, t.c, r_begin, head_end);
      }
      const index_t c_begin = head_end / kC;
      const index_t c_end = blocked_end / kC;
      if (c_begin < c_end) {
        chunks_fn(sell_->chunk_ptr.data(), sell_->col_idx.data(),
                  sell_->values.data(), t.b, t.c, c_begin, c_end);
      }
      const index_t tail_begin = std::max(head_end, c_end * kC);
      if (tail_begin < r_end) {
        rows_fn(rp, ci, vals, t.b, t.c, tail_begin, r_end);
      }
    } else if (r_begin < r_end) {
      rows_fn(rp, ci, vals, t.b, t.c, r_begin, r_end);
    }
  }
}

void CsrMatrix::specialize(bool force_blocked) {
  if (sell_ != nullptr) return;
  sell_ = build_sell_layout(rows_, row_ptr_, col_idx_, values_,
                            force_blocked);
}

CsrMatrix CsrMatrix::from_parts(index_t rows, index_t cols,
                                std::vector<std::int64_t> row_ptr,
                                std::vector<index_t> col_idx,
                                std::vector<double> values) {
  RRL_EXPECTS(rows >= 0 && cols >= 0);
  RRL_EXPECTS(row_ptr.size() == static_cast<std::size_t>(rows) + 1);
  RRL_EXPECTS(row_ptr.front() == 0);
  RRL_EXPECTS(row_ptr.back() == static_cast<std::int64_t>(col_idx.size()));
  RRL_EXPECTS(col_idx.size() == values.size());
  for (index_t r = 0; r < rows; ++r) {
    const std::int64_t lo = row_ptr[static_cast<std::size_t>(r)];
    const std::int64_t hi = row_ptr[static_cast<std::size_t>(r) + 1];
    // lo >= 0 by induction from row_ptr[0] == 0; hi must not run past
    // the entries before this row's columns are read.
    RRL_EXPECTS(lo <= hi && hi <= row_ptr.back());
    for (std::int64_t k = lo; k < hi; ++k) {
      const index_t c = col_idx[static_cast<std::size_t>(k)];
      RRL_EXPECTS(c >= 0 && c < cols);
      // Strictly increasing within a row: the canonical form every
      // constructor of this class produces.
      RRL_EXPECTS(k == lo || col_idx[static_cast<std::size_t>(k) - 1] < c);
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::from_triplets(index_t rows, index_t cols,
                                   std::vector<Triplet> entries) {
  RRL_EXPECTS(rows >= 0 && cols >= 0);
  for (const Triplet& e : entries) {
    RRL_EXPECTS(e.row >= 0 && e.row < rows);
    RRL_EXPECTS(e.col >= 0 && e.col < cols);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());

  for (std::size_t i = 0; i < entries.size();) {
    const index_t r = entries[i].row;
    const index_t c = entries[i].col;
    double sum = 0.0;
    for (; i < entries.size() && entries[i].row == r && entries[i].col == c;
         ++i) {
      sum += entries[i].value;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(sum);
    m.row_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(m.values_.size());
  }
  // Rows without entries inherit the running offset.
  for (std::size_t r = 1; r < m.row_ptr_.size(); ++r) {
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  }
  return m;
}

void CsrMatrix::mul_vec(std::span<const double> x, std::span<double> y) const {
  mul_vec_with(active_kernels(), x, y);
}

void CsrMatrix::mul_vec_with(const SpmvKernels& kernels,
                             std::span<const double> x,
                             std::span<double> y) const {
  RRL_EXPECTS(static_cast<index_t>(x.size()) == cols_);
  RRL_EXPECTS(static_cast<index_t>(y.size()) == rows_);
  // Aliasing is only a hazard when there is output to write; empty spans
  // may legitimately share data() == nullptr.
  RRL_EXPECTS(y.empty() || x.data() != y.data());
  note_product(row_ptr_, rows_);
  apply_rows(kernels, x, y, 0, rows_);
}

void CsrMatrix::mul_vec(std::span<const double> x, std::span<double> y,
                        ThreadPool& pool) const {
  // Validate both operands here (not just y): the leading == rows_ we
  // delegate with is only meaningful against a correctly sized x, and the
  // caller's error should name this call, not the delegate.
  RRL_EXPECTS(static_cast<index_t>(x.size()) == cols_);
  RRL_EXPECTS(static_cast<index_t>(y.size()) == rows_);
  mul_vec_leading(x, y, rows_, pool);
}

void CsrMatrix::mul_vec_leading(std::span<const double> x,
                                std::span<double> y, index_t leading) const {
  RRL_EXPECTS(static_cast<index_t>(x.size()) == cols_);
  RRL_EXPECTS(static_cast<index_t>(y.size()) >= leading);
  RRL_EXPECTS(leading >= 0 && leading <= rows_);
  if (leading == 0) return;  // nothing to compute, y untouched
  RRL_EXPECTS(x.data() != y.data());
  note_product(row_ptr_, leading);
  apply_rows(active_kernels(), x, y, 0, leading);
}

void CsrMatrix::mul_vec_leading(std::span<const double> x,
                                std::span<double> y, index_t leading,
                                ThreadPool& pool) const {
  RRL_EXPECTS(static_cast<index_t>(x.size()) == cols_);
  RRL_EXPECTS(static_cast<index_t>(y.size()) >= leading);
  RRL_EXPECTS(leading >= 0 && leading <= rows_);
  if (leading == 0) return;  // nothing to compute, y untouched
  RRL_EXPECTS(x.data() != y.data());
  note_product(row_ptr_, leading);
  const SpmvKernels& kernels = active_kernels();
  const int workers = pool.num_threads();
  if (workers <= 1 || leading < 2 * workers) {
    apply_rows(kernels, x, y, 0, leading);
    return;
  }
  pool.parallel_for(
      static_cast<std::size_t>(workers), [&](std::size_t chunk, std::size_t) {
        const int c = static_cast<int>(chunk);
        apply_rows(kernels, x, y, chunk_boundary(leading, workers, c),
                   chunk_boundary(leading, workers, c + 1));
      });
}

// Contiguous row chunks balanced by stored-entry count: chunk boundary c
// is the first row whose cumulative nnz (row_ptr_) reaches c/workers of
// the leading rows' total — one binary search on the prefix-sum array.
// Boundaries of monotone targets are monotone, so chunks tile the rows
// disjointly, and the call allocates nothing (this path is meant for hot
// loops on large models). With a blocked layout the boundaries snap to
// SELL chunk multiples (rounding a monotone sequence stays monotone), so
// workers hand whole chunks to the blocked kernel instead of splitting
// them into fringes.
index_t CsrMatrix::chunk_boundary(index_t leading, int workers,
                                  int c) const {
  if (c <= 0) return index_t{0};
  if (c >= workers) return leading;
  const std::int64_t total = row_ptr_[static_cast<std::size_t>(leading)];
  const std::int64_t target = total * static_cast<std::int64_t>(c) / workers;
  const auto last = row_ptr_.begin() + leading + 1;
  const auto it = std::lower_bound(row_ptr_.begin(), last, target);
  index_t b = static_cast<index_t>(it - row_ptr_.begin());
  if (sell_ != nullptr) {
    constexpr index_t kC = kSellChunkRows;
    b = std::min(leading, (b + kC / 2) / kC * kC);
  }
  return b;
}

void CsrMatrix::mul_block(std::span<const SpmmOperand> tiles,
                          index_t leading) const {
  mul_block_with(active_kernels(), tiles, leading);
}

void CsrMatrix::mul_block_with(const SpmvKernels& kernels,
                               std::span<const SpmmOperand> tiles,
                               index_t leading) const {
  RRL_EXPECTS(leading >= 0 && leading <= rows_);
  // An empty product is a no-op before tile validation: a zero-row block
  // legitimately has no storage, so its tile pointers may be null.
  if (leading == 0 || tiles.empty()) return;
  for (const SpmmOperand& t : tiles) {
    RRL_EXPECTS(t.width == kSpmmTileNarrow || t.width == kSpmmTileWide);
    RRL_EXPECTS(t.cols > 0 && t.cols <= t.width);
    RRL_EXPECTS(t.b != nullptr && t.c != nullptr && t.b != t.c);
  }
  note_block(tiles);
  apply_rows_mm(kernels, tiles, 0, leading);
}

void CsrMatrix::mul_block(std::span<const SpmmOperand> tiles, index_t leading,
                          ThreadPool& pool) const {
  RRL_EXPECTS(leading >= 0 && leading <= rows_);
  if (leading == 0 || tiles.empty()) return;
  for (const SpmmOperand& t : tiles) {
    RRL_EXPECTS(t.width == kSpmmTileNarrow || t.width == kSpmmTileWide);
    RRL_EXPECTS(t.cols > 0 && t.cols <= t.width);
    RRL_EXPECTS(t.b != nullptr && t.c != nullptr && t.b != t.c);
  }
  note_block(tiles);
  const SpmvKernels& kernels = active_kernels();
  const int workers = pool.num_threads();
  if (workers <= 1 || leading < 2 * workers) {
    apply_rows_mm(kernels, tiles, 0, leading);
    return;
  }
  pool.parallel_for(
      static_cast<std::size_t>(workers), [&](std::size_t chunk, std::size_t) {
        const int c = static_cast<int>(chunk);
        apply_rows_mm(kernels, tiles, chunk_boundary(leading, workers, c),
                      chunk_boundary(leading, workers, c + 1));
      });
}

void CsrMatrix::mul_vec_transposed(std::span<const double> x,
                                   std::span<double> y) const {
  RRL_EXPECTS(static_cast<index_t>(x.size()) == rows_);
  RRL_EXPECTS(static_cast<index_t>(y.size()) == cols_);
  RRL_EXPECTS(x.data() != y.data());
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t r = 0; r < rows_; ++r) {
    const double xr = x[static_cast<std::size_t>(r)];
    if (xr == 0.0) continue;
    const std::int64_t lo = row_ptr_[static_cast<std::size_t>(r)];
    const std::int64_t hi = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (std::int64_t k = lo; k < hi; ++k) {
      y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
          values_[static_cast<std::size_t>(k)] * xr;
    }
  }
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  t.col_idx_.resize(values_.size());
  t.values_.resize(values_.size());

  // Counting pass: how many entries land in each transposed row.
  for (const index_t c : col_idx_) {
    ++t.row_ptr_[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t r = 1; r < t.row_ptr_.size(); ++r) {
    t.row_ptr_[r] += t.row_ptr_[r - 1];
  }
  // Placement pass, using a scratch cursor per transposed row.
  std::vector<std::int64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (index_t r = 0; r < rows_; ++r) {
    const std::int64_t lo = row_ptr_[static_cast<std::size_t>(r)];
    const std::int64_t hi = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (std::int64_t k = lo; k < hi; ++k) {
      const index_t c = col_idx_[static_cast<std::size_t>(k)];
      const std::int64_t pos = cursor[static_cast<std::size_t>(c)]++;
      t.col_idx_[static_cast<std::size_t>(pos)] = r;
      t.values_[static_cast<std::size_t>(pos)] =
          values_[static_cast<std::size_t>(k)];
    }
  }
  return t;
}

std::vector<double> CsrMatrix::row_sums() const {
  std::vector<double> sums(static_cast<std::size_t>(rows_), 0.0);
  for (index_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const std::int64_t lo = row_ptr_[static_cast<std::size_t>(r)];
    const std::int64_t hi = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (std::int64_t k = lo; k < hi; ++k) {
      acc += values_[static_cast<std::size_t>(k)];
    }
    sums[static_cast<std::size_t>(r)] = acc;
  }
  return sums;
}

double CsrMatrix::coeff(index_t row, index_t col) const {
  RRL_EXPECTS(row >= 0 && row < rows_);
  RRL_EXPECTS(col >= 0 && col < cols_);
  const auto lo = row_ptr_[static_cast<std::size_t>(row)];
  const auto hi = row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto first = col_idx_.begin() + lo;
  const auto last = col_idx_.begin() + hi;
  const auto it = std::lower_bound(first, last, col);
  if (it == last || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(lo + (it - first))];
}

}  // namespace rrl
