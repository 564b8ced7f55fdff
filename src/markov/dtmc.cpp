#include "markov/dtmc.hpp"

#include <algorithm>
#include <utility>

#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace rrl {

RandomizedDtmc::RandomizedDtmc(const Ctmc& chain, double rate_factor) {
  RRL_EXPECTS(chain.max_exit_rate() > 0.0);
  RRL_EXPECTS(rate_factor >= 1.0);
  static metrics::Counter& builds = metrics::counter("rrl_dtmc_builds_total");
  builds.add(1);
  lambda_ = rate_factor * chain.max_exit_rate();

  const auto n = static_cast<std::size_t>(chain.num_states());
  const CsrMatrix& rates = chain.rates();
  const auto exit = chain.exit_rates();
  const auto row_ptr = rates.row_ptr();
  const auto col_idx = rates.col_idx();
  const auto values = rates.values();

  // Transposed by counting: P(i, j) becomes entry (j, i). Source rows are
  // placed in increasing i, each contributing at most one entry per target
  // row (R has no diagonal and no duplicates; the self-loop lands in row
  // i), so every row comes out strictly column-sorted — the canonical form
  // from_triplets would build, bit for bit, without its sort.
  self_loop_.resize(n);
  std::vector<std::int64_t> pt_ptr(n + 1, 0);
  for (const index_t j : col_idx) ++pt_ptr[static_cast<std::size_t>(j) + 1];
  for (std::size_t i = 0; i < n; ++i) {
    self_loop_[i] = 1.0 - exit[i] / lambda_;
    if (self_loop_[i] != 0.0) ++pt_ptr[i + 1];
  }
  for (std::size_t i = 0; i < n; ++i) pt_ptr[i + 1] += pt_ptr[i];

  std::vector<std::int64_t> cursor(pt_ptr.begin(), pt_ptr.end() - 1);
  std::vector<index_t> pt_col(static_cast<std::size_t>(pt_ptr[n]));
  std::vector<double> pt_val(pt_col.size());
  const auto place = [&](index_t row, index_t col, double value) {
    const auto pos =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(row)]++);
    pt_col[pos] = col;
    pt_val[pos] = value;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = static_cast<index_t>(i);
    for (std::int64_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      place(col_idx[static_cast<std::size_t>(k)], src,
            values[static_cast<std::size_t>(k)] / lambda_);
    }
    if (self_loop_[i] != 0.0) place(src, src, self_loop_[i]);
  }
  pt_ = CsrMatrix::from_parts(chain.num_states(), chain.num_states(),
                              std::move(pt_ptr), std::move(pt_col),
                              std::move(pt_val));
  // Format-specialization pass: randomization is compile-time work and the
  // matrix is about to be stepped thousands of times, so derive the
  // blocked kernel layout now (bit-identical products either way).
  pt_.specialize();
  build_reach();
}

RandomizedDtmc RandomizedDtmc::from_parts(CsrMatrix pt,
                                          std::vector<double> self_loop,
                                          double lambda) {
  RRL_EXPECTS(lambda > 0.0);
  RRL_EXPECTS(pt.rows() == pt.cols());
  RRL_EXPECTS(self_loop.size() == static_cast<std::size_t>(pt.rows()));
  RandomizedDtmc dtmc;
  dtmc.pt_ = std::move(pt);
  // Specialized formats are derived, never serialized: an artifact import
  // lands here with plain CSR arrays and re-runs the specialization pass.
  dtmc.pt_.specialize();
  dtmc.self_loop_ = std::move(self_loop);
  dtmc.lambda_ = lambda;
  dtmc.build_reach();
  return dtmc;
}

void RandomizedDtmc::build_reach() {
  const index_t n = pt_.rows();
  const auto row_ptr = pt_.row_ptr();
  const auto col_idx = pt_.col_idx();
  first_col_min_.assign(static_cast<std::size_t>(n) + 1, n);
  for (index_t j = n - 1; j >= 0; --j) {
    const auto uj = static_cast<std::size_t>(j);
    // Columns are sorted within a row, so its first entry is its minimum.
    const index_t first = row_ptr[uj] < row_ptr[uj + 1]
                              ? col_idx[static_cast<std::size_t>(row_ptr[uj])]
                              : n;
    first_col_min_[uj] = std::min(first, first_col_min_[uj + 1]);
  }
}

index_t RandomizedDtmc::reach(index_t live) const {
  RRL_EXPECTS(live >= 0 && live <= num_states());
  // first_col_min_ is non-decreasing, so the rows whose stored columns all
  // lie at or past `live` form a suffix; return where it starts.
  const auto it = std::lower_bound(first_col_min_.begin(),
                                   first_col_min_.end(), live);
  return static_cast<index_t>(it - first_col_min_.begin());
}

LazyDtmc::LazyDtmc(const Ctmc& chain, double rate_factor, bool row_form)
    : chain_(chain), rate_factor_(rate_factor), want_row_form_(row_form) {
  RRL_EXPECTS(chain.max_exit_rate() > 0.0);
  RRL_EXPECTS(rate_factor >= 1.0);
}

const RandomizedDtmc& LazyDtmc::get() const {
  std::call_once(once_,
                 [this] { install(RandomizedDtmc(chain_, rate_factor_)); });
  return *dtmc_;
}

const CsrMatrix& LazyDtmc::row_form() const {
  RRL_EXPECTS(want_row_form_);
  (void)get();
  return p_;
}

bool LazyDtmc::adopt(CsrMatrix pt, std::vector<double> self_loop,
                     double lambda) {
  const index_t n = chain_.num_states();
  if (lambda <= 0.0 || pt.rows() != n || pt.cols() != n ||
      self_loop.size() != static_cast<std::size_t>(n)) {
    return false;
  }
  // Spend the once-flag without building, so no later get() builds.
  std::call_once(once_, [] {});
  install(RandomizedDtmc::from_parts(std::move(pt), std::move(self_loop),
                                     lambda));
  return true;
}

void LazyDtmc::install(RandomizedDtmc dtmc) const {
  dtmc_ = std::move(dtmc);
  if (want_row_form_) {
    // The exact transpose of the gather form, specialized like it: the
    // backward pass steps P as hard as a forward pass steps P^T.
    p_ = dtmc_->transition_transposed().transposed();
    p_.specialize();
  }
}

index_t leading_support(std::span<const double> x) noexcept {
  std::size_t end = x.size();
  while (end > 0 && x[end - 1] == 0.0) --end;
  return static_cast<index_t>(end);
}

}  // namespace rrl
