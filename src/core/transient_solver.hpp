// Uniform interface over the transient solvers (SR, RSD, RR, RRL, Krylov).
//
// The paper's whole evaluation (Tables 1-2, Figures 3-4) runs the *same*
// rewarded CTMC through every method over a *sweep* of time points. This
// header gives that workload one contract: a SolveRequest (measure kind,
// time grid, error bound) answered by a SolveReport (one value + per-point
// stats per time, plus the aggregate work of the sweep), implemented by
// every solver behind the abstract TransientSolver base.
//
// solve_shared() is every solver's one execute entry, and each request's
// grid is answered by an *amortized* pass, not a loop over single solves:
//   SR   one randomization pass; every step's d(n) = r . (alpha P^n) feeds
//        the Poisson mixtures of all grid points at once;
//   RSD  one backward pass w_n = P^n r shared by all points, with a single
//        steady-state detection serving every remaining time;
//   RR   one schema + one V_{K,L} randomization pass for the whole grid;
//   RRL  one schema, one numerical inversion per point.
// For SR/RSD/RR this makes an m-point sweep cost essentially one solve at
// the largest time instead of m solves. solve_grid() is solve_shared()
// with one request.
//
// solve_shared() widens the same idea across requests: a request's
// measure, eps and grid decide how a pass is READ, not always what it
// steps. SR's pi_0 P^n and RSD's P^n r are one iterate for every request
// of a solver, Krylov's substeps depend on eps and the grid but not on the
// measure, and RR's V-pass depends only on the compiled schema (eps and
// the largest time), so one pass answers many requests ("one
// matrix-function action, many functionals", Masetti & Robol in
// PAPERS.md).
// shares_pass(a, b) says when; the sweep engine hands out each such group
// as one unit.
#pragma once

#include <cmath>
#include <cstdint>
#include <exception>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "markov/ctmc.hpp"
#include "sparse/workspace.hpp"

namespace rrl {

struct CompiledArtifact;  // core/compiled_artifact.hpp

/// The paper's two measures for a rewarded CTMC.
enum class MeasureKind {
  kTrr,  ///< transient reward rate  TRR(t) = E[r_{X(t)}]
  kMrr,  ///< mean reward rate       MRR(t) = (1/t) Int_0^t TRR
};

/// Canonical short name ("trr" / "mrr") — the spelling used by CLI flags,
/// .study files and report rows alike.
[[nodiscard]] constexpr const char* measure_name(MeasureKind kind) noexcept {
  return kind == MeasureKind::kTrr ? "trr" : "mrr";
}

/// A method-agnostic solve request.
struct SolveRequest {
  MeasureKind measure = MeasureKind::kTrr;
  /// Time grid; need not be sorted or distinct. Every t must be >= 0 for
  /// TRR and > 0 for MRR.
  std::vector<double> times;
  /// Total error bound applied to EVERY point of the grid individually
  /// (each returned value is within epsilon of the true measure; the bound
  /// is not split across points). <= 0 selects the epsilon the solver was
  /// constructed with.
  double epsilon = -1.0;

  [[nodiscard]] static SolveRequest trr(std::vector<double> ts,
                                        double eps = -1.0) {
    return {MeasureKind::kTrr, std::move(ts), eps};
  }
  [[nodiscard]] static SolveRequest mrr(std::vector<double> ts,
                                        double eps = -1.0) {
    return {MeasureKind::kMrr, std::move(ts), eps};
  }
};

/// The answer to a SolveRequest.
///
/// `points[i]` matches `request.times[i]`. In the amortized grid paths the
/// aggregate `total` is NOT the sum of the per-point stats: work shared by
/// the sweep (the single randomization pass of SR/RSD, the single schema and
/// V-pass of RR/RRL) is counted once in `total`, while each point's stats
/// report what that point alone would have needed (SR/RSD: its own
/// truncation/detection step; RR/RRL: the shared schema plus its own
/// V-steps/abscissae). total.dtmc_steps <~ the cost of one solve at the
/// largest time is exactly the amortization guarantee. Per-point `seconds`
/// are populated only where a point has separable work of its own (RRL's
/// inversions); for the single-pass methods only `total.seconds` is
/// meaningful.
struct SolveReport {
  std::vector<TransientValue> points;
  SolverStats total;

  /// A report of `points` zero values whose lambda fields (every point's
  /// and the total's) read `lambda`: the starting state of the
  /// randomization methods' answers.
  [[nodiscard]] static SolveReport blank(std::size_t points, double lambda) {
    SolveReport report;
    report.points.resize(points);
    for (TransientValue& p : report.points) p.stats.lambda = lambda;
    report.total.lambda = lambda;
    return report;
  }

  /// The bare values, in request order.
  [[nodiscard]] std::vector<double> values() const {
    std::vector<double> v;
    v.reserve(points.size());
    for (const TransientValue& p : points) v.push_back(p.value);
    return v;
  }
};

/// The answer to one request of a shared pass (TransientSolver::
/// solve_shared): its report, or the exception that request alone raised.
struct SharedResult {
  SolveReport report;        ///< valid iff error is null
  std::exception_ptr error;  ///< set iff this request failed
};

/// What a pool lent through the workspace (SolveWorkspace::lent_pool) would
/// carry of a solve: nothing, part of it beside serial work (RRL's
/// inversions, Krylov's products), or its hot loop (SR's and RSD's steps).
enum class LentPoolUse { kNone, kPart, kHotLoop };

/// Abstract transient solver: one rewarded CTMC + initial distribution,
/// many (measure, time grid, epsilon) queries. Implementations are bound to
/// their model at construction (see the registry for by-name construction).
///
/// Threading contract: solvers are immutable after construction, so ONE
/// solver instance may serve concurrent solve_shared() calls — provided
/// every calling thread brings its own SolveWorkspace (the per-solve
/// mutable state). The sweep engine relies on exactly this.
class TransientSolver {
 public:
  virtual ~TransientSolver() = default;

  /// Registry name of the method ("sr", "rsd", "rr", "rrl", "krylov").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// One-line human-readable description of the method.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// One pass, many readers: result i answers *requests[i], bitwise equal
  /// to solve_grid(*requests[i]) (timings aside). Each request is
  /// validated on its own; one that throws records its exception in its
  /// own result and the others still run. A method whose pass serves
  /// several requests (shares_pass) steps it once for all of them. The
  /// caller's workspace carries the model-sized vector iterates. Safe to
  /// call concurrently on one solver with distinct workspaces.
  [[nodiscard]] virtual std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& workspace) const = 0;

  /// solve_shared with one request, its exception rethrown.
  [[nodiscard]] SolveReport solve_grid(const SolveRequest& request,
                                       SolveWorkspace& workspace) const {
    const SolveRequest* const one = &request;
    SharedResult result =
        std::move(solve_shared({&one, 1}, workspace).front());
    if (result.error) std::rethrow_exception(result.error);
    return std::move(result.report);
  }

  /// Convenience overload with a throwaway workspace.
  [[nodiscard]] SolveReport solve_grid(const SolveRequest& request) const {
    SolveWorkspace workspace;
    return solve_grid(request, workspace);
  }

  /// Whether ONE pass of this method can answer both requests. A
  /// request's measure, eps and grid decide how a pass is read; this says
  /// whether they also leave what it steps unchanged. The default is
  /// false: every request runs its own solve.
  [[nodiscard]] virtual bool shares_pass(const SolveRequest& /*a*/,
                                         const SolveRequest& /*b*/) const {
    return false;
  }

  /// The eps a request is answered at: its own, else the constructed one.
  [[nodiscard]] double effective_epsilon(
      const SolveRequest& request) const noexcept {
    return request.epsilon > 0.0 ? request.epsilon : epsilon_;
  }

  /// What a lent pool would carry of solve_grid(request) (see run_sweep).
  [[nodiscard]] virtual LentPoolUse lent_pool_use(const SolveRequest&) const {
    return LentPoolUse::kNone;
  }

  /// The compile half of solve_grid(request), run ahead of it: the
  /// per-request compiled state solve_grid would build (the RR/RRL schema
  /// for the request's largest time and eps) is built and memoized now, so
  /// solve_grid finds it. This lets a caller choose which of a shared
  /// solver's requests compiles first (the sweep engine's leaders-first
  /// hand-out, core/schema_cache.hpp). The default does nothing: the
  /// method has no per-request compiled state. Throws what solve_grid
  /// would throw for the request.
  virtual void precompile(const SolveRequest& /*request*/) const {}

  /// Run the request-independent compile step now instead of at first
  /// use. SR, RSD and Krylov build their randomized DTMC lazily, so that
  /// an import_compiled() before first use replaces the build; the solver
  /// cache calls this on a cold miss, so the build is paid (and traced) as
  /// the compile it is. The default does nothing. Thread-safe.
  virtual void compile() const {}

  /// Compile → execute split (core/compiled_artifact.hpp). Append this
  /// solver's compiled state — the deterministic model-derived part of the
  /// work, re-usable across processes — to `artifact` (its key is the
  /// caller's job; see export_artifact). The base default exports
  /// nothing: a method without a separable compile step round-trips as an
  /// empty artifact.
  virtual void export_compiled(CompiledArtifact& /*artifact*/) const {}

  /// Adopt compiled state previously exported from an identically
  /// constructed solver (same model, method and config — callers compare
  /// the artifact's SolverKey; entries a solver cannot use are ignored).
  /// The artifact is handed over: a solver may move its arrays out (SR,
  /// RSD and Krylov adopt the DTMC without a copy). Because compilation is
  /// deterministic, an imported solver answers every request
  /// bit-identically to one that compiled from scratch. Must be called
  /// before the solver is shared across threads: the artifact handoff is
  /// part of construction, not of the (concurrent) execute phase.
  virtual void import_compiled(CompiledArtifact&& /*artifact*/) {}

  /// Single-point convenience on top of solve_grid; the returned stats are
  /// the full solve cost (the report's aggregate).
  [[nodiscard]] TransientValue solve_point(double t, MeasureKind kind,
                                           double epsilon = -1.0) const {
    SolveRequest request;
    request.measure = kind;
    request.times = {t};
    request.epsilon = epsilon;
    SolveReport report = solve_grid(request);
    TransientValue out = report.points.front();
    out.stats = report.total;
    return out;
  }

  /// Transient reward rate at time t >= 0 (solve_point).
  [[nodiscard]] TransientValue trr(double t) const {
    RRL_EXPECTS(t >= 0.0);
    return solve_point(t, MeasureKind::kTrr);
  }

  /// Mean reward rate over [0, t], t > 0 (solve_point).
  [[nodiscard]] TransientValue mrr(double t) const {
    RRL_EXPECTS(t > 0.0);
    return solve_point(t, MeasureKind::kMrr);
  }

 protected:
  /// Binds the rewarded chain. Preconditions: one reward r >= 0 per state,
  /// `initial` a distribution over the states, epsilon > 0.
  TransientSolver(const Ctmc& chain, std::vector<double> rewards,
                  std::vector<double> initial, double epsilon)
      : chain_(chain),
        rewards_(std::move(rewards)),
        initial_(std::move(initial)),
        reward_idx_(nonzero_reward_states(rewards_)),
        r_max_(max_reward(rewards_)),
        epsilon_(epsilon) {
    RRL_EXPECTS(epsilon_ > 0.0);
    RRL_EXPECTS(static_cast<index_t>(rewards_.size()) == chain.num_states());
    check_distribution(initial_, chain.num_states());
  }

  /// The constructed eps: a request's when it carries none.
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  /// Entry validation of one request: non-empty grid and per-point time
  /// sign per measure (t >= 0 for TRR, t > 0 for MRR). Returns the
  /// effective epsilon.
  [[nodiscard]] double validated_epsilon(const SolveRequest& request) const {
    RRL_EXPECTS(!request.times.empty());
    for (const double t : request.times) {
      RRL_EXPECTS(request.measure == MeasureKind::kTrr ? t >= 0.0 : t > 0.0);
    }
    return effective_epsilon(request);
  }

  /// solve_shared of a method whose pass depends on the request (Krylov,
  /// RR, RRL): requests are taken in order, each with every later request
  /// that shares its pass, and `pass(readers, eps, results)` answers one
  /// such group — `readers` are the members that passed entry validation,
  /// `eps` their common effective epsilon. A member failing validation, or
  /// a group whose pass throws, records the exception in its own results
  /// only.
  template <typename Pass>
  [[nodiscard]] std::vector<SharedResult> solve_in_groups(
      std::span<const SolveRequest* const> requests, Pass&& pass) const {
    std::vector<SharedResult> results(requests.size());
    std::vector<std::uint8_t> grouped(requests.size(), 0);
    std::vector<std::size_t> readers;
    for (std::size_t k = 0; k < requests.size(); ++k) {
      if (grouped[k] != 0) continue;
      readers.clear();
      double eps = 0.0;
      for (std::size_t j = k; j < requests.size(); ++j) {
        if (grouped[j] != 0 ||
            (j != k && !shares_pass(*requests[k], *requests[j]))) {
          continue;
        }
        grouped[j] = 1;
        try {
          eps = validated_epsilon(*requests[j]);
          readers.push_back(j);
        } catch (...) {
          results[j].error = std::current_exception();
        }
      }
      if (readers.empty()) continue;
      try {
        pass(std::span<const std::size_t>(readers), eps,
             std::span<SharedResult>(results));
      } catch (...) {
        for (const std::size_t j : readers) {
          results[j].error = std::current_exception();
        }
      }
    }
    return results;
  }

  /// The rewarded chain every method solves: the chain (borrowed; it must
  /// outlive the solver), one reward rate per state, the initial
  /// distribution, the states of nonzero reward (ascending) and r_max.
  const Ctmc& chain_;
  std::vector<double> rewards_;
  std::vector<double> initial_;
  std::vector<index_t> reward_idx_;
  double r_max_;

 private:
  double epsilon_;
};

/// `count` log-spaced time points covering [lo, hi] inclusive (count >= 1;
/// count == 1 returns {hi}). Preconditions: 0 < lo <= hi.
[[nodiscard]] inline std::vector<double> log_time_grid(double lo, double hi,
                                                       int count) {
  RRL_EXPECTS(lo > 0.0 && hi >= lo && count >= 1);
  std::vector<double> ts;
  ts.reserve(static_cast<std::size_t>(count));
  if (count == 1) {
    ts.push_back(hi);
    return ts;
  }
  const double step = (std::log(hi) - std::log(lo)) /
                      static_cast<double>(count - 1);
  for (int i = 0; i < count; ++i) {
    ts.push_back(std::exp(std::log(lo) + step * static_cast<double>(i)));
  }
  ts.front() = lo;
  ts.back() = hi;
  return ts;
}

}  // namespace rrl
