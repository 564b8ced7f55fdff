#include "core/standard_randomization.hpp"

#include <algorithm>
#include <cmath>

#include "core/grid_sweep.hpp"
#include "markov/poisson.hpp"
#include "sparse/vector_ops.hpp"
#include "support/stopwatch.hpp"

namespace rrl {

// (expected_excess is decreasing in n, hence the binary search.)
std::int64_t sr_truncation_point(const PoissonDistribution& poisson,
                                 MeasureKind kind, double eps_over_rmax) {
  if (kind == MeasureKind::kTrr) {
    return poisson.right_truncation_point(eps_over_rmax);
  }
  const double target = eps_over_rmax * poisson.mean();
  std::int64_t lo = 0;
  std::int64_t hi = poisson.window_last() + 1;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (poisson.expected_excess(mid) <= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

StandardRandomization::StandardRandomization(const Ctmc& chain,
                                             std::vector<double> rewards,
                                             std::vector<double> initial,
                                             SrOptions options)
    : RandomizedSolver(chain, std::move(rewards), std::move(initial),
                       options.epsilon, options.rate_factor,
                       LentPoolUse::kHotLoop),
      options_(options) {}

std::vector<SharedResult> StandardRandomization::solve_shared(
    std::span<const SolveRequest* const> requests,
    SolveWorkspace& workspace) const {
  const Stopwatch watch;
  std::vector<SharedResult> results(requests.size());
  const RandomizedDtmc& dtmc = dtmc_.get();

  // One reader per request that has a pass to read: its per-point Poisson
  // mixtures with active-set retirement (shared with RSD), fed until its
  // own truncation point. sweeps[j] reads for request readers[j].
  std::vector<std::size_t> readers;
  std::vector<GridSweep> sweeps;
  std::int64_t pass = 0;  // the longest reader's truncation point
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const SolveRequest& request = *requests[k];
    SolveReport& report = results[k].report;
    try {
      const double eps = validated_epsilon(request);
      report = SolveReport::blank(request.times.size(), dtmc.lambda());
      // All rewards zero: both measures are identically zero.
      if (r_max_ == 0.0) continue;
      GridSweep sweep(
          dtmc.lambda(), request.times, request.measure,
          [&](const PoissonDistribution& poisson) {
            return sr_truncation_point(poisson, request.measure,
                                       eps / r_max_);
          },
          options_.step_cap);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        report.points[i].stats.capped = sweep.point_capped(i);
      }
      report.total.capped = sweep.any_capped();
      pass = std::max(pass, sweep.pass_steps());
      readers.push_back(k);
      sweeps.push_back(std::move(sweep));
    } catch (...) {
      results[k].error = std::current_exception();
    }
  }

  try {
    if (!readers.empty()) {
      const std::size_t n_states =
          static_cast<std::size_t>(chain_.num_states());
      AlignedVector<double>& pi = workspace.pi(n_states);
      AlignedVector<double>& next = workspace.next(n_states);
      std::copy(initial_.begin(), initial_.end(), pi.begin());
      // Live-prefix stepping (markov/dtmc.hpp): both buffers must read
      // zero past the prefix, and a workspace buffer arrives with stale
      // contents.
      std::fill(next.begin(), next.end(), 0.0);
      index_t live = leading_support(initial_);

      for (std::int64_t n = 0;; ++n) {
        GridSweep::accumulate_all(
            sweeps, n,
            sparse_reward_dot(indices_below(reward_idx_, live), rewards_, pi));
        if (n == pass) break;
        live = std::max(live, dtmc.reach(live));
        // Row-partitioned stepping when the caller lent us a pool (small
        // batches on big models; bit-identical to the serial kernel) and
        // the live prefix is large enough to pay for it.
        ThreadPool* const pool =
            workspace.pooled_spmv(dtmc.leading_nnz(live));
        if (pool != nullptr) {
          dtmc.step(pi, next, live, *pool);
        } else {
          dtmc.step(pi, next, live);
        }
        pi.swap(next);
      }
    }
  } catch (...) {
    for (const std::size_t k : readers) {
      results[k].error = std::current_exception();
    }
  }

  for (std::size_t j = 0; j < readers.size(); ++j) {
    const GridSweep& sweep = sweeps[j];
    SolveReport& report = results[readers[j]].report;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      TransientValue& p = report.points[i];
      p.value = sweep.value(i);
      // What this point alone would need.
      p.stats.dtmc_steps = sweep.n_max(i);
    }
    report.total.dtmc_steps = sweep.pass_steps();
  }
  const double seconds = watch.seconds();
  for (SharedResult& result : results) result.report.total.seconds = seconds;
  return results;
}

}  // namespace rrl
