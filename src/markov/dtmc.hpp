// Randomized (uniformized) DTMC.
//
// Randomization with rate Lambda >= max exit rate turns the CTMC X into the
// DTMC X^ with transition matrix P = I + Q/Lambda subordinated to a Poisson
// process of rate Lambda. This class materializes P transposed in CSR form so
// that distribution stepping pi' = pi * P is a gather-style SpMV.
//
// Live-prefix stepping. A forward pass that starts from a sparse vector
// (the regenerative state, a point initial distribution) can only have
// reached states within k transitions after k steps, and the generator's
// breadth-first numbering (markov/builder.hpp) makes those states a
// leading prefix of the indices. reach() bounds where one step's product
// can be non-zero, so a pass steps only its live prefix [0, live) with
// the leading-rows product, growing live = max(live, reach(live)) before
// every step. The result is bit-identical to full-length stepping: P^T's
// entries are finite and >= 0, so a row past reach(live) gathers only
// +0.0 terms, and a live prefix that never shrinks keeps both ping-pong
// buffers zero past it. A dense iterate simply runs at live = n.
#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "markov/ctmc.hpp"

namespace rrl {

class RandomizedDtmc {
 public:
  /// Randomize `chain` with Lambda = rate_factor * max_exit_rate().
  /// rate_factor = 1 reproduces the paper's choice (Lambda = max output
  /// rate); factors > 1 add self-loop slack (useful to guarantee
  /// aperiodicity for steady-state detection).
  /// Precondition: chain.max_exit_rate() > 0 and rate_factor >= 1.
  explicit RandomizedDtmc(const Ctmc& chain, double rate_factor = 1.0);

  /// Re-assemble a randomized DTMC from previously exported parts — the
  /// compile → execute import path (core/compiled_artifact.hpp): `pt` is
  /// P transposed in CSR gather form exactly as transition_transposed()
  /// returns it, `self_loop` the per-state stay probabilities, `lambda`
  /// the randomization rate. Preconditions: pt square, self_loop sized to
  /// its rows, lambda > 0.
  static RandomizedDtmc from_parts(CsrMatrix pt,
                                   std::vector<double> self_loop,
                                   double lambda);

  [[nodiscard]] double lambda() const noexcept { return lambda_; }
  [[nodiscard]] index_t num_states() const noexcept {
    return pt_.rows();
  }

  /// out = in * P  (one randomization step of a probability vector).
  /// Preconditions: sizes match num_states(); in and out are distinct.
  void step(std::span<const double> in, std::span<double> out) const {
    pt_.mul_vec(in, out);
  }

  /// out[0, live) = (in * P)[0, live), rows past `live` untouched — the
  /// live-prefix step (header comment). Preconditions as step(), plus
  /// 0 <= live <= num_states().
  void step(std::span<const double> in, std::span<double> out,
            index_t live) const {
    pt_.mul_vec_leading(in, out, live);
  }

  /// Live-prefix step with the gather rows partitioned across `pool`
  /// (bit-identical to the serial step — see CsrMatrix::mul_vec).
  void step(std::span<const double> in, std::span<double> out, index_t live,
            ThreadPool& pool) const {
    pt_.mul_vec_leading(in, out, live, pool);
  }

  /// First row from which one step's product is +0.0 when the input is
  /// zero from `live` on: every row >= reach(live) stores columns >= live
  /// only. reach(0) == 0, monotone in live, at most num_states(); it may
  /// be below `live` (a pass grows its prefix to max(live, reach(live))).
  /// Precondition: 0 <= live <= num_states().
  [[nodiscard]] index_t reach(index_t live) const;

  /// Stored entries of the leading `live` rows of P^T — the work of one
  /// live-prefix step (what a pooled-product size floor should count).
  [[nodiscard]] std::int64_t leading_nnz(index_t live) const {
    return pt_.row_ptr()[static_cast<std::size_t>(live)];
  }

  /// P transposed, row j = incoming probabilities of state j.
  [[nodiscard]] const CsrMatrix& transition_transposed() const noexcept {
    return pt_;
  }

  /// Self-loop probability of state i: 1 - exit(i)/Lambda.
  [[nodiscard]] double self_loop(index_t i) const {
    return self_loop_[static_cast<std::size_t>(i)];
  }

  /// All self-loop probabilities (the from_parts export counterpart).
  [[nodiscard]] std::span<const double> self_loops() const noexcept {
    return self_loop_;
  }

 private:
  RandomizedDtmc() = default;  // for from_parts

  /// Derive first_col_min_ from pt_ (the constructor and from_parts).
  void build_reach();

  CsrMatrix pt_;
  std::vector<double> self_loop_;
  double lambda_ = 0.0;
  /// first_col_min_[j] = smallest column stored in P^T rows j..n-1 (n when
  /// they are all empty), size n + 1 — the suffix minimum reach() searches.
  std::vector<index_t> first_col_min_;
};

/// A chain's randomized DTMC, built once on first use, or adopted whole
/// before that. SR, RSD and Krylov hold one, so a warm start (an
/// artifact's DTMC handed over by import_compiled) replaces the build
/// instead of following it, and a warm solver never randomizes its chain.
/// With `row_form` the DTMC comes with P itself in gather (row) form,
/// specialized: RSD's backward pass. get() and row_form() may race from
/// any number of threads (std::call_once); adopt() must precede sharing,
/// like every import.
class LazyDtmc {
 public:
  /// Preconditions as RandomizedDtmc's, checked here, so a chain that
  /// cannot be randomized fails at construction, not at first use.
  LazyDtmc(const Ctmc& chain, double rate_factor, bool row_form = false);

  /// The DTMC, built from the chain now unless built or adopted already.
  [[nodiscard]] const RandomizedDtmc& get() const;

  /// P in row form. Precondition: constructed with row_form.
  [[nodiscard]] const CsrMatrix& row_form() const;

  /// Adopt exported parts (RandomizedDtmc::from_parts) in place of the
  /// build when they are shaped for this chain (lambda > 0, n x n, n
  /// self-loops); otherwise adopt nothing and return false.
  bool adopt(CsrMatrix pt, std::vector<double> self_loop, double lambda);

 private:
  void install(RandomizedDtmc dtmc) const;

  const Ctmc& chain_;
  double rate_factor_;
  bool want_row_form_;
  mutable std::once_flag once_;
  mutable std::optional<RandomizedDtmc> dtmc_;
  mutable CsrMatrix p_;
};

/// One past the last non-zero entry of x (0 for an all-zero x): the live
/// prefix a pass starting from x begins with.
[[nodiscard]] index_t leading_support(std::span<const double> x) noexcept;

}  // namespace rrl
