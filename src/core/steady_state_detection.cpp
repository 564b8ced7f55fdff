#include "core/steady_state_detection.hpp"

#include <algorithm>
#include <cmath>

#include "core/grid_sweep.hpp"
#include "markov/poisson.hpp"
#include "sparse/vector_ops.hpp"
#include "support/stopwatch.hpp"

namespace rrl {

RandomizationSteadyStateDetection::RandomizationSteadyStateDetection(
    const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, RsdOptions options)
    : RandomizedSolver(chain, std::move(rewards), std::move(initial),
                       options.epsilon, options.rate_factor,
                       LentPoolUse::kHotLoop, /*row_form=*/true),
      options_(options) {
  RRL_EXPECTS(chain.absorbing_states().empty());  // irreducible models only
}

std::vector<SharedResult> RandomizationSteadyStateDetection::solve_shared(
    std::span<const SolveRequest* const> requests,
    SolveWorkspace& workspace) const {
  const Stopwatch watch;
  std::vector<SharedResult> results(requests.size());
  const double lambda = dtmc_.get().lambda();

  // One reader per request that has a pass to read: its Poisson mixtures
  // (shared with SR), its own span tolerance, and the step it exits at
  // (truncation or detection, whichever comes first).
  struct Reader {
    std::size_t index;
    GridSweep sweep;
    double tol;
    bool done = false;
    std::int64_t exit_step = 0;
  };
  std::vector<Reader> readers;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const SolveRequest& request = *requests[k];
    SolveReport& report = results[k].report;
    try {
      const double eps = validated_epsilon(request);
      report = SolveReport::blank(request.times.size(), lambda);
      if (r_max_ == 0.0) continue;
      // Poisson truncation with eps/2 per point (the other eps/2 covers
      // detection), with the active-set retirement scan shared with SR.
      GridSweep sweep(
          lambda, request.times, request.measure,
          [&](const PoissonDistribution& poisson) {
            return poisson.right_truncation_point(eps / (2.0 * r_max_));
          },
          options_.step_cap);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        report.points[i].stats.capped = sweep.point_capped(i);
      }
      report.total.capped = sweep.any_capped();
      readers.push_back(Reader{
          k, std::move(sweep),
          options_.detection_tol > 0.0 ? options_.detection_tol : eps / 2.0});
    } catch (...) {
      results[k].error = std::current_exception();
    }
  }

  try {
    if (!readers.empty()) {
      // Backward iteration: w_0 = r, w_{n+1} = P w_n, d(n) = alpha . w_n is
      // the same coefficient for every grid point of every request.
      const std::size_t n_states =
          static_cast<std::size_t>(chain_.num_states());
      AlignedVector<double>& w = workspace.pi(n_states);
      AlignedVector<double>& next = workspace.next(n_states);
      std::copy(rewards_.begin(), rewards_.end(), w.begin());

      // Row-partitioned stepping when the caller lent us a pool (small
      // batches on big models; bit-identical to the serial kernel).
      const CsrMatrix& p_rows = dtmc_.row_form();
      ThreadPool* const pool = workspace.pooled_spmv(p_rows.nnz());
      for (std::int64_t n = 0;; ++n) {
        const double d = dot(initial_, w);
        // span(w_n) brackets every future coefficient d(m), m >= n: one
        // detection finishes every point of a request that still has
        // Poisson mass left. Computed once, when a reader first needs it;
        // only its width and midpoint are kept, so the scan's running
        // extrema are not the values that live across the reader calls
        // (GCC would home them, and the scan, in stack slots).
        bool spanned = false;
        double width = 0.0;
        double mid = 0.0;
        bool stepping = false;
        for (Reader& reader : readers) {
          if (reader.done) continue;
          reader.sweep.accumulate(n, d);
          if (n == reader.sweep.pass_steps()) {
            reader.done = true;
            reader.exit_step = n;
            continue;
          }
          if (!spanned) {
            const auto [lo, hi] = std::minmax_element(w.begin(), w.end());
            width = *hi - *lo;
            mid = 0.5 * (*hi + *lo);
            spanned = true;
          }
          if (width <= reader.tol) {
            SolveReport& report = results[reader.index].report;
            reader.sweep.fold_steady_state(n, mid, [&](std::size_t i) {
              report.points[i].stats.detection_step = n;
            });
            report.total.detection_step = n;
            reader.done = true;
            reader.exit_step = n;
            continue;
          }
          stepping = true;
        }
        if (!stepping) break;

        // w <- P w: gather product over the materialized row-form P.
        if (pool != nullptr) {
          p_rows.mul_vec(w, next, *pool);
        } else {
          p_rows.mul_vec(w, next);
        }
        w.swap(next);
      }
    }
  } catch (...) {
    for (const Reader& reader : readers) {
      results[reader.index].error = std::current_exception();
    }
  }

  for (const Reader& reader : readers) {
    SolveReport& report = results[reader.index].report;
    for (std::size_t i = 0; i < reader.sweep.size(); ++i) {
      TransientValue& p = report.points[i];
      p.value = reader.sweep.value(i);
      // What this point alone would have needed: its truncation point, or
      // the detection step if that fired first.
      p.stats.dtmc_steps = std::min(reader.exit_step, reader.sweep.n_max(i));
    }
    report.total.dtmc_steps = reader.exit_step;
  }
  const double seconds = watch.seconds();
  for (SharedResult& result : results) result.report.total.seconds = seconds;
  return results;
}

}  // namespace rrl
