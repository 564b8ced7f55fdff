// Parallel scenario-sweep engine: many (model x solver x measure x grid x
// epsilon) jobs fanned across a worker pool, reduced into one deterministic
// report.
//
// The paper's whole evaluation is a sweep — the same rewarded CTMC pushed
// through SR/RSD/RR/RRL over grids of times and error targets — and batch
// performability studies multiply that by families of parameterized models.
// The engine turns such a batch into data-parallel work in two routes,
// both over hand-out UNITS: the scenarios of one shared solver whose
// requests pairwise share a pass (TransientSolver::shares_pass — every
// SR/RSD request of a solver reads one iterate, a Krylov TRR/MRR pair
// with one eps and grid reads one Arnoldi pass, RR requests with one
// compiled schema read one V_{K,L} pass) form one unit answered by one
// solve_shared; any other scenario is a unit of one (disable sharing with
// BatchRequest::spmm = false or RRL_SPMM=off). Unit-parallel: units are
// scheduled dynamically, one per worker at a time (solvers are immutable
// after construction; each worker owns a SolveWorkspace for the mutable
// vector iterates), so an expensive SR pass next to a cheap RRL inversion
// still load-balances. Model-parallel: a batch with (2x) fewer units than
// workers flips to the orthogonal axis if some unit's hot loop, or a lone
// unit's inner loops, would run on a lent pool (TransientSolver::
// lent_pool_use): units run serially and the pool is lent to the solvers
// (SolveWorkspace::lent_pool). Every product dispatches through the
// runtime-selected vectorized kernels (sparse/spmv_kernels.hpp), which
// are bit-identical to the scalar reference, so neither the route, the
// host's SIMD level nor RRL_KERNEL overrides can change a report.
// The engine constructs no solver: every scenario arrives with a built
// one (or with the error its construction raised), so one compiled
// solver serves every scenario handed the same instance; the study
// subsystem's solver cache builds on exactly this. Each scenario's
// reference is dropped once its unit is answered, so a solver only the
// batch holds is freed then, not at the batch's end. A shared solver's
// most demanding unit is handed out first and its other units wait for
// its compile (TransientSolver::precompile), so an RR/RRL solver steps
// one schema and cuts the others' from it (core/schema_cache.hpp's
// LeaderSchedule).
//
// Determinism: results[i] always corresponds to scenarios[i] — workers
// write only their own slot and the reduction is by index, so the report's
// VALUES are identical for every worker count (only the timing fields
// vary). A scenario whose solver could not be built (unknown solver,
// precondition violation such as RSD on an absorbing chain) or whose
// solve throws records its error string in its slot and the rest of the
// batch completes normally.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/transient_solver.hpp"
#include "markov/ctmc.hpp"
#include "support/thread_pool.hpp"

namespace rrl {

/// One scenario: one built solver answering one (measure, time grid,
/// epsilon) request. Solvers are safe to drive from concurrent workers as
/// long as each worker brings its own workspace, which the engine
/// guarantees, so scenarios handed the same instance share it (and, when
/// their requests share a pass, one solve_shared).
struct SweepScenario {
  /// The caller keeps whatever the solver borrows (its chain) alive.
  std::shared_ptr<const TransientSolver> solver;
  SolveRequest request;
  /// The solver's chain (borrowed), read by the scheduling heuristic.
  const Ctmc* chain = nullptr;
  /// Why `solver` is null: the error its construction raised, recorded
  /// as this scenario's result.
  std::string error;
};

/// A batch of scenarios plus the routing knob; the caller's pool is the
/// worker budget.
struct BatchRequest {
  std::vector<SweepScenario> scenarios;
  /// Hand out the scenarios one pass can answer (TransientSolver::
  /// shares_pass) as one unit; false makes every scenario — RR's
  /// included — its own unit. Values are bit-identical either way; this
  /// knob (and the RRL_SPMM=off environment override, which does the same
  /// for every batch) exists so benches and the CI determinism gate can
  /// compare the paths in one process.
  bool spmm = true;
};

/// Outcome of one scenario: either a report or an error message.
struct ScenarioResult {
  SolveReport report;  ///< valid iff error is empty
  std::string error;   ///< non-empty if the scenario failed
  /// Wall-clock of THIS scenario's solve (diagnostic, non-deterministic —
  /// never part of byte-compared report output). The members of a unit of
  /// several share one pass, so each reports the pass's wall-clock divided
  /// evenly across the members.
  double seconds = 0.0;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// The deterministic reduction of a batch: results[i] <-> scenarios[i].
struct SweepReport {
  std::vector<ScenarioResult> results;
  int jobs = 1;          ///< worker count actually used
  double seconds = 0.0;  ///< wall-clock of the whole batch

  [[nodiscard]] std::size_t failed() const noexcept {
    std::size_t n = 0;
    for (const ScenarioResult& r : results) n += r.ok() ? 0 : 1;
    return n;
  }
  [[nodiscard]] double scenarios_per_second() const noexcept {
    return seconds > 0.0 ? static_cast<double>(results.size()) / seconds
                         : 0.0;
  }
};

/// Run the batch on a caller-provided pool (reusable across batches).
/// The batch is taken by value and each scenario's solver reference is
/// dropped as soon as its unit is answered, so a batch whose scenarios
/// own their solvers (a study with its cache off) frees each solver's
/// compiled state as it finishes instead of holding every scenario's
/// until the batch ends. Pass std::move(batch) unless the caller reuses
/// it.
[[nodiscard]] SweepReport run_sweep(BatchRequest batch, ThreadPool& pool);

/// Unit-level entry point: run the batch on a caller-provided pool AND
/// caller-owned per-worker workspaces (grown to pool.num_threads() if
/// smaller, never shrunk). A worker loop executing many small work units
/// back to back — the dispatch executor — keeps its warmed-up buffers
/// across units this way, so after the first unit the model-sized vector
/// iterates allocate nothing. Identical values to the other overload.
[[nodiscard]] SweepReport run_sweep(BatchRequest batch, ThreadPool& pool,
                                    std::vector<SolveWorkspace>& workspaces);

}  // namespace rrl
