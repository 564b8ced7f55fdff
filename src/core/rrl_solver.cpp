#include "core/rrl_solver.hpp"

#include <algorithm>
#include <utility>

#include "laplace/error_control.hpp"
#include "markov/poisson.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace rrl {

RegenerativeRandomizationLaplace::RegenerativeRandomizationLaplace(
    const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, index_t regenerative_state,
    RrlOptions options)
    : RegenerativeSolver(
          chain, std::move(rewards), std::move(initial), regenerative_state,
          {options.epsilon, options.rate_factor, options.schema_step_cap},
          [](CompiledSchema& compiled) {
            compiled.transform =
                std::make_shared<const TrrTransform>(compiled.schema);
          }),
      options_(options) {
  RRL_EXPECTS(options_.t_multiplier > 0.0);
  RRL_EXPECTS(options_.max_terms > CrumpOptions{}.min_terms);
}

double RegenerativeRandomizationLaplace::truncation_error_bound(
    const RegenerativeSchema& sch, double t) const {
  // r_max * a(K) * E[(N(Lambda t) - K)^+], plus the primed-chain analogue.
  const PoissonDistribution poisson(sch.lambda * t);
  double bound = sch.r_max * sch.main.a.back() *
                 poisson.expected_excess(sch.K());
  if (sch.has_primed) {
    bound += sch.r_max * sch.primed.a.back() *
             poisson.expected_excess(sch.L());
  }
  return bound;
}

TransientValue RegenerativeRandomizationLaplace::invert(
    const TrrTransform& transform, double t, MeasureKind kind,
    double eps) const {
  TransientValue out;
  const double T = options_.t_multiplier * t;
  CrumpOptions crump;
  crump.t_multiplier = options_.t_multiplier;
  crump.max_terms = options_.max_terms;
  crump.required_hits = options_.required_hits;

  const Stopwatch laplace_watch;
  if (kind == MeasureKind::kTrr) {
    crump.damping = damping_for_bounded(r_max_, eps, T);
    crump.tolerance = eps / 100.0;
    const CrumpResult res = crump_invert(
        [&](std::complex<double> s) { return transform.trr(s); }, t, crump);
    out.value = res.value;
    out.stats.abscissae = res.abscissae;
    out.stats.inversion_converged = res.converged;
  } else {
    // Invert C~(s) = TRR~(s)/s with the Eq. (2) damping (|C(u)| <= r_max*u),
    // then MRR(t) = C(t)/t. Tolerance t*eps/100 per the paper.
    crump.damping = damping_for_time_linear(r_max_, eps, t, T);
    crump.tolerance = t * eps / 100.0;
    const CrumpResult res = crump_invert(
        [&](std::complex<double> s) { return transform.cumulative(s); }, t,
        crump);
    out.value = res.value / t;
    out.stats.abscissae = res.abscissae;
    out.stats.inversion_converged = res.converged;
  }
  out.stats.laplace_seconds = laplace_watch.seconds();
  return out;
}

RegenerativeRandomizationLaplace::Bounds
RegenerativeRandomizationLaplace::bounds(double t, MeasureKind kind) const {
  RRL_EXPECTS(t > 0.0);
  Bounds b;
  if (r_max_ == 0.0) return b;
  const Stopwatch watch;
  const auto compiled = compiled_for(t, epsilon());
  const RegenerativeSchema& sch = compiled->schema;
  const TransientValue v = invert(*compiled->transform, t, kind, epsilon());
  // The truncation is one-sided (reward is only lost); for MRR it is a
  // time average of TRR truncation errors, each below the bound at the
  // horizon (the bound is increasing in t). The inversion's
  // discretization error is rigorously below eps/4, but its series
  // truncation is controlled by a tolerance heuristic (the paper's eps/100
  // with a factor-25 reserve), so the full eps is granted on both sides.
  const double trunc = truncation_error_bound(sch, t);
  const double inv_err = epsilon();
  b.value = v.value;
  b.lower = std::max(0.0, v.value - inv_err);
  b.upper = std::min(r_max_, v.value + trunc + inv_err);
  b.stats = v.stats;
  b.stats.dtmc_steps = sch.dtmc_steps();
  b.stats.lambda = sch.lambda;
  b.stats.capped = sch.capped;
  b.stats.seconds = watch.seconds();
  return b;
}

std::vector<SharedResult> RegenerativeRandomizationLaplace::solve_shared(
    std::span<const SolveRequest* const> requests,
    SolveWorkspace& workspace) const {
  // No two requests share a pass: each group is one request.
  return solve_in_groups(requests, [&](auto readers, double eps, auto out) {
    const Stopwatch watch;
    const SolveRequest& request = *requests[readers.front()];
    SolveReport& report = out[readers.front()].report;
    const std::size_t m = request.times.size();
    report.points.resize(m);
    if (r_max_ == 0.0) {
      report.total.seconds = watch.seconds();
      return;  // all rewards zero => measure identically zero
    }

    // TRR(0) needs no transform: it is the initial reward rate.
    const double t_max = std::ranges::max(request.times);
    if (t_max == 0.0) {
      for (TransientValue& p : report.points) {
        p.value = sparse_reward_dot(reward_idx_, rewards_, initial_);
      }
      report.total.seconds = watch.seconds();
      return;
    }

    // One schema for the whole sweep, computed at the largest time: for
    // t < t_max the truncation bound at K(t_max) is only smaller
    // (E[(N(Lambda t) - K)^+] decreases in K), so the longer series remains
    // within budget at every requested time. The compiled artifact (schema +
    // transform evaluator) is memoized per (t_max, eps), and a new key is
    // cut from the longest memoized series when it fits, so repeated sweeps
    // — the other measure, a different grid resolution or eps, the study
    // subsystem's shared solvers — pay the K model steps once.
    const auto compiled = compiled_for(t_max, eps);
    const RegenerativeSchema& sch = compiled->schema;
    const TrrTransform& transform = *compiled->transform;

    // The inversions are independent per time point: each reads the
    // transform through const methods and writes its own slot, so a lent
    // pool may spread them (pooled_loop() is null inside a sweep worker).
    const auto invert_point = [&](std::size_t i) {
      const Stopwatch point_watch;
      const double t = request.times[i];
      if (t == 0.0) {
        report.points[i].value =
            sparse_reward_dot(reward_idx_, rewards_, initial_);
      } else {
        report.points[i] = invert(transform, t, request.measure, eps);
      }
      report.points[i].stats.dtmc_steps = sch.dtmc_steps();
      report.points[i].stats.lambda = sch.lambda;
      report.points[i].stats.capped = sch.capped;
      report.points[i].stats.seconds = point_watch.seconds();
    };
    ThreadPool* const pool = workspace.pooled_loop();
    if (pool != nullptr && lent_pool_use(request) != LentPoolUse::kNone) {
      pool->parallel_for(m, invert_point);
    } else {
      for (std::size_t i = 0; i < m; ++i) invert_point(i);
    }

    report.total.dtmc_steps = sch.dtmc_steps();
    report.total.lambda = sch.lambda;
    report.total.capped = sch.capped;
    for (const TransientValue& p : report.points) {
      report.total.abscissae += p.stats.abscissae;
      report.total.laplace_seconds += p.stats.laplace_seconds;
      report.total.inversion_converged =
          report.total.inversion_converged && p.stats.inversion_converged;
    }
    report.total.seconds = watch.seconds();
  });
}

}  // namespace rrl
