#include "core/sweep_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <utility>
#include <vector>

#include "core/schema_cache.hpp"
#include "sparse/spmv_kernels.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace rrl {

namespace {

// Per-solve accounting in the paper's own units (Tables 1–2 compare the
// methods by DTMC steps / truncation points / abscissae).
struct SolveCounters {
  metrics::Counter& solved = metrics::counter("rrl_scenarios_solved_total");
  metrics::Counter& failed = metrics::counter("rrl_scenarios_failed_total");
  metrics::Counter& dtmc_steps =
      metrics::counter("rrl_solve_dtmc_steps_total");
  metrics::Counter& vmodel_steps =
      metrics::counter("rrl_solve_vmodel_steps_total");
  metrics::Counter& abscissae = metrics::counter("rrl_solve_abscissae_total");
  metrics::Counter& capped = metrics::counter("rrl_solve_capped_total");
  metrics::Histogram& truncation =
      metrics::histogram("rrl_solve_truncation_steps");
};

SolveCounters& solve_counters() {
  static SolveCounters c;
  return c;
}

void note_result(const ScenarioResult& slot) {
  SolveCounters& c = solve_counters();
  if (!slot.error.empty()) {
    c.failed.add(1);
    return;
  }
  c.solved.add(1);
  const SolverStats& total = slot.report.total;
  c.dtmc_steps.add(static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, total.dtmc_steps)));
  c.vmodel_steps.add(static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, total.vmodel_steps)));
  c.abscissae.add(
      static_cast<std::uint64_t>(std::max(0, total.abscissae)));
  if (total.capped) c.capped.add(1);
  c.truncation.observe(static_cast<double>(total.dtmc_steps));
}

void fail(ScenarioResult& slot, const std::exception& e) {
  slot.error = e.what();
  if (slot.error.empty()) slot.error = "unknown error";
}

/// One hand-out unit: the scenarios one pass answers (members of one
/// shared solver whose requests pairwise shares_pass), or one scenario.
struct Unit {
  std::vector<std::size_t> members;  ///< scenario indices, ascending
  /// The most demanding member: its compile demand and its precompile
  /// request stand for the unit's.
  std::size_t lead = 0;
};

/// Solve one unit, compiling in its `turn` of `schedule` first. A unit of
/// several members runs one shared pass inside a
/// scenario.solve_rand_batch span whose argument is its member count; a
/// unit of one runs inside scenario.solve, and one without a solver
/// reports its construction error. Each member reports the unit's
/// wall-clock divided by its member count, then drops its solver
/// reference.
void solve_unit(std::vector<SweepScenario>& scenarios,
                const Unit& unit, std::vector<ScenarioResult>& results,
                SolveWorkspace& workspace, const LeaderSchedule& schedule,
                std::size_t turn) {
  const SweepScenario& lead = scenarios[unit.lead];
  if (lead.solver == nullptr) {
    ScenarioResult& slot = results[unit.lead];
    slot.error = lead.error.empty() ? "unknown error" : lead.error;
    note_result(slot);
    return;
  }
  const TransientSolver& solver = *lead.solver;
  const std::size_t size = unit.members.size();
  const trace::Span span(size > 1 ? "scenario.solve_rand_batch"
                                  : "scenario.solve",
                         size > 1 ? size : 0);
  const Stopwatch watch;
  try {
    // A follower waits here until its solver's leader has compiled, then
    // hits or cuts its schema. A compile error is left for the solve to
    // report.
    schedule.run(turn, [&] {
      try {
        solver.precompile(lead.request);
      } catch (const std::exception&) {
      }
    });
    std::vector<const SolveRequest*> requests;
    requests.reserve(size);
    for (const std::size_t i : unit.members) {
      requests.push_back(&scenarios[i].request);
    }
    std::vector<SharedResult> answers =
        solver.solve_shared(requests, workspace);
    for (std::size_t k = 0; k < size; ++k) {
      ScenarioResult& slot = results[unit.members[k]];
      if (answers[k].error == nullptr) {
        slot.report = std::move(answers[k].report);
        continue;
      }
      try {
        std::rethrow_exception(answers[k].error);
      } catch (const std::exception& e) {
        fail(slot, e);
      }
    }
  } catch (const std::exception& e) {
    for (const std::size_t i : unit.members) fail(results[i], e);
  }
  const double each = watch.seconds() / static_cast<double>(size);
  for (const std::size_t i : unit.members) {
    results[i].seconds = each;
    note_result(results[i]);
    scenarios[i].solver.reset();
  }
}

}  // namespace

SweepReport run_sweep(BatchRequest batch, ThreadPool& pool,
                      std::vector<SolveWorkspace>& workspaces) {
  const Stopwatch watch;
  SweepReport out;
  out.jobs = pool.num_threads();
  out.results.resize(batch.scenarios.size());

  // Compile demand of every scenario with a solver (LeaderSchedule's
  // order; one without is no solver's leader or follower).
  std::vector<CompileDemand> demands(batch.scenarios.size());
  for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
    const SweepScenario& scenario = batch.scenarios[i];
    if (scenario.solver == nullptr) continue;
    const SolveRequest& request = scenario.request;
    CompileDemand& demand = demands[i];
    demand.solver = scenario.solver.get();
    demand.eps = scenario.solver->effective_epsilon(request);
    if (!request.times.empty()) {
      demand.t_max =
          *std::max_element(request.times.begin(), request.times.end());
    }
    demand.states =
        scenario.chain != nullptr ? scenario.chain->num_states() : 0;
  }

  // Hand-out units. Scenarios on one solver whose requests pairwise share
  // a pass (TransientSolver::shares_pass: every SR/RSD request of a
  // solver, Krylov requests with one eps and grid, RR requests with one
  // compiled schema) form one unit, answered by one solve_shared; every
  // other scenario (one without a solver included) is a unit of its own.
  // BatchRequest::spmm = false or RRL_SPMM=off makes every scenario its
  // own unit. The answers are bitwise the per-scenario solves either way.
  std::vector<Unit> units;
  const bool share = batch.spmm && spmm_enabled();
  std::map<const TransientSolver*, std::vector<std::size_t>> units_of;
  for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
    const SweepScenario& scenario = batch.scenarios[i];
    const TransientSolver* const solver = scenario.solver.get();
    if (share && solver != nullptr) {
      std::vector<std::size_t>& mine = units_of[solver];
      const auto joins = [&](std::size_t u) {
        return std::all_of(units[u].members.begin(), units[u].members.end(),
                           [&](std::size_t j) {
                             return solver->shares_pass(
                                 batch.scenarios[j].request,
                                 scenario.request);
                           });
      };
      const auto it = std::find_if(mine.begin(), mine.end(), joins);
      if (it != mine.end()) {
        Unit& unit = units[*it];
        unit.members.push_back(i);
        // The lead is the LeaderSchedule's leader rule within the unit:
        // smallest eps, then largest t_max, then lowest index.
        const CompileDemand& d = demands[i];
        const CompileDemand& l = demands[unit.lead];
        if (d.eps < l.eps || (d.eps == l.eps && d.t_max > l.t_max)) {
          unit.lead = i;
        }
        continue;
      }
      mine.push_back(units.size());
    }
    units.push_back(Unit{{i}, i});
  }

  // Hand-out order. Units sharing an RR/RRL solver compile through its
  // schema memo, which cuts each new key from the longest series it holds
  // (core/schema_cache.hpp). Handed out in plan order, every worker would
  // land on the first solver and step its keys in turn; instead each shared
  // solver's most demanding unit compiles first and its other units wait
  // for that compile, then cut (LeaderSchedule). Only the order changes,
  // never a slot's value.
  std::vector<CompileDemand> unit_demands;
  unit_demands.reserve(units.size());
  for (const Unit& unit : units) unit_demands.push_back(demands[unit.lead]);
  const LeaderSchedule schedule(unit_demands);

  // A batch too small to occupy the pool on the unit axis (fewer units
  // than workers, with at least 2x slack so the switch is clearly a win)
  // runs the units serially and lends the pool to the solvers instead
  // (SolveWorkspace::lent_pool) if some unit's lead would run its hot loop
  // on it, or a lone unit part of its solve (TransientSolver::
  // lent_pool_use); a part-pooled unit's serial work would queue behind
  // other units'. Pooled loops are bit-identical to serial ones, so the
  // route changes no value.
  bool model_parallel = false;
  if (pool.num_threads() > 1 &&
      units.size() * 2 <= static_cast<std::size_t>(pool.num_threads())) {
    for (const Unit& unit : units) {
      const SweepScenario& lead = batch.scenarios[unit.lead];
      if (lead.solver == nullptr) continue;
      const LentPoolUse use = lead.solver->lent_pool_use(lead.request);
      model_parallel = model_parallel || use == LentPoolUse::kHotLoop ||
                       (use == LentPoolUse::kPart && units.size() == 1);
    }
  }
  // One workspace per worker slot: the solvers' mutable per-solve state.
  // Everything else a worker touches is either immutable shared input
  // (requests, chains, shared solvers) or its own unit's: result slots
  // and the solver references it drops once answered. The caller's
  // vector is grown (never shrunk) so a worker loop reuses its warmed-up
  // buffers across units.
  if (workspaces.size() < static_cast<std::size_t>(pool.num_threads())) {
    workspaces.resize(static_cast<std::size_t>(pool.num_threads()));
  }

  if (model_parallel) {
    SolveWorkspace& workspace = workspaces.front();
    ThreadPool* const saved_pool = workspace.lent_pool;
    workspace.lent_pool = &pool;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      solve_unit(batch.scenarios, units[schedule[k]], out.results, workspace,
                 schedule, schedule[k]);
    }
    workspace.lent_pool = saved_pool;
    out.seconds = watch.seconds();
    return out;
  }

  pool.parallel_for(schedule.size(), [&](std::size_t k, std::size_t worker) {
    solve_unit(batch.scenarios, units[schedule[k]], out.results,
               workspaces[worker], schedule, schedule[k]);
  });

  out.seconds = watch.seconds();
  return out;
}

SweepReport run_sweep(BatchRequest batch, ThreadPool& pool) {
  std::vector<SolveWorkspace> workspaces;
  return run_sweep(std::move(batch), pool, workspaces);
}

}  // namespace rrl
