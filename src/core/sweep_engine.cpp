#include "core/sweep_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string_view>

#include "core/randomization_batch.hpp"
#include "core/rr_solver.hpp"
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

/// Solve one scenario, compiling in its `turn` of `schedule` first.
void solve_one(const SweepScenario& scenario, ScenarioResult& slot,
               SolveWorkspace& workspace, const LeaderSchedule& schedule,
               std::size_t turn) {
  const trace::Span span("scenario.solve");
  const Stopwatch watch;
  try {
    if (scenario.shared_solver != nullptr) {
      // A follower waits here until its solver's leader has compiled, then
      // hits or cuts its schema. A compile error is left for solve_grid to
      // report.
      schedule.run(turn, [&] {
        try {
          scenario.shared_solver->precompile(scenario.request);
        } catch (const std::exception&) {
        }
      });
      slot.report =
          scenario.shared_solver->solve_grid(scenario.request, workspace);
    } else {
      RRL_EXPECTS(scenario.chain != nullptr);
      const auto solver =
          make_solver(scenario.solver, *scenario.chain, scenario.rewards,
                      scenario.initial, scenario.config);
      slot.report = solver->solve_grid(scenario.request, workspace);
    }
  } catch (const std::exception& e) {
    slot.error = e.what();
    if (slot.error.empty()) slot.error = "unknown error";
  }
  slot.seconds = watch.seconds();
  note_result(slot);
}

}  // namespace

SweepReport run_sweep(const BatchRequest& batch, ThreadPool& pool,
                      std::vector<SolveWorkspace>& workspaces) {
  const Stopwatch watch;
  SweepReport out;
  out.jobs = pool.num_threads();
  out.results.resize(batch.scenarios.size());

  // Batched V-solve routing: scenarios driving a SHARED RR solver go
  // through solve_rr_batch together, so items with the same compiled
  // schema share ONE ~Lambda*t V-pass (measure/grid variation reuses the
  // d(n) stream) and the distinct V-models step jointly through a pooled
  // block product — the only way the pool ever engages for the small
  // V-models, see rr_solver.hpp. Bit-identical to per-scenario
  // solve_grid(), so the routing is invisible in the report's values.
  // Per-scenario construction (no shared_solver) stays on the scenario
  // axis: those scenarios gain nothing from grouping (each would compile
  // its own schema) and would lose their worker-level parallelism.
  std::vector<std::size_t> batched;
  for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
    const SweepScenario& scenario = batch.scenarios[i];
    if (scenario.shared_solver != nullptr &&
        dynamic_cast<const RegenerativeRandomization*>(
            scenario.shared_solver.get()) != nullptr) {
      batched.push_back(i);
    }
  }
  std::vector<std::uint8_t> taken(batch.scenarios.size(), 0);
  if (batched.size() >= 2) {
    std::vector<RrBatchItem> items;
    items.reserve(batched.size());
    for (const std::size_t i : batched) {
      RrBatchItem item;
      item.solver = static_cast<const RegenerativeRandomization*>(
          batch.scenarios[i].shared_solver.get());
      item.request = &batch.scenarios[i].request;
      item.report = &out.results[i].report;
      item.error = &out.results[i].error;
      items.push_back(item);
      taken[i] = 1;
    }
    const Stopwatch batch_watch;
    {
      const trace::Span span("scenario.solve_batch", batched.size());
      solve_rr_batch(items, &pool);
    }
    // The members shared one pass; attribute its wall-clock evenly.
    const double each =
        batch_watch.seconds() / static_cast<double>(batched.size());
    for (const std::size_t i : batched) {
      out.results[i].seconds = each;
      note_result(out.results[i]);
    }
  }

  // Shared-pass SR/RSD batching (core/randomization_batch.hpp): scenarios
  // driving the SAME shared SR/RSD solver instance become columns of one
  // SpMM block, so each randomization step streams the shared matrix once
  // instead of once per scenario. Only instances with >= 2 scenarios are
  // routed — a singleton gains nothing from a one-column block and would
  // lose its worker-level parallelism. Bit-identical to per-scenario
  // solve_grid() (the engine's determinism contract), so BatchRequest::spmm
  // and RRL_SPMM=off only ever change timings, never values.
  if (batch.spmm && spmm_enabled()) {
    std::vector<std::size_t> rand_batched;
    for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
      const SweepScenario& scenario = batch.scenarios[i];
      if (taken[i] == 0 && scenario.shared_solver != nullptr &&
          randomization_batchable(*scenario.shared_solver)) {
        rand_batched.push_back(i);
      }
    }
    // Keep only instances shared by >= 2 scenarios.
    const auto shared_twice = [&](std::size_t i) {
      const TransientSolver* s = batch.scenarios[i].shared_solver.get();
      std::size_t n = 0;
      for (const std::size_t j : rand_batched) {
        n += batch.scenarios[j].shared_solver.get() == s ? 1 : 0;
      }
      return n >= 2;
    };
    std::erase_if(rand_batched,
                  [&](std::size_t i) { return !shared_twice(i); });
    if (!rand_batched.empty()) {
      if (workspaces.empty()) workspaces.resize(1);
      std::vector<RandBatchItem> items;
      items.reserve(rand_batched.size());
      for (const std::size_t i : rand_batched) {
        RandBatchItem item;
        item.solver = batch.scenarios[i].shared_solver.get();
        item.request = &batch.scenarios[i].request;
        item.report = &out.results[i].report;
        item.error = &out.results[i].error;
        items.push_back(item);
        taken[i] = 1;
      }
      const Stopwatch batch_watch;
      {
        const trace::Span span("scenario.solve_rand_batch",
                               rand_batched.size());
        solve_randomization_batch(items, &pool, &workspaces.front());
      }
      const double each =
          batch_watch.seconds() / static_cast<double>(rand_batched.size());
      for (const std::size_t i : rand_batched) {
        out.results[i].seconds = each;
        note_result(out.results[i]);
      }
    }
  }

  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < batch.scenarios.size(); ++i) {
    if (taken[i] == 0) rest.push_back(i);
  }
  if (rest.empty()) {
    out.seconds = watch.seconds();
    return out;
  }

  // Hand-out order. Scenarios sharing an RR/RRL solver compile through its
  // schema memo, which cuts each new key from the longest series it holds
  // (core/schema_cache.hpp). Handed out in plan order, every worker would
  // land on the first solver and step its keys in turn; instead each shared
  // solver's most demanding scenario compiles first and its other
  // scenarios wait for that compile, then cut (LeaderSchedule). Only the
  // order changes, never a slot's value.
  std::vector<CompileDemand> demands;
  demands.reserve(rest.size());
  for (const std::size_t i : rest) {
    const SweepScenario& scenario = batch.scenarios[i];
    const SolveRequest& request = scenario.request;
    CompileDemand demand;
    demand.solver = scenario.shared_solver.get();
    demand.eps =
        request.epsilon > 0.0 ? request.epsilon : scenario.config.epsilon;
    if (!request.times.empty()) {
      demand.t_max =
          *std::max_element(request.times.begin(), request.times.end());
    }
    demand.states =
        scenario.chain != nullptr ? scenario.chain->num_states() : 0;
    demands.push_back(demand);
  }
  const LeaderSchedule schedule(demands);

  // A batch too small to occupy the pool on the scenario axis (fewer
  // scenarios than workers, with at least 2x slack so the switch is
  // clearly a win) runs the scenarios serially and lends the pool to the
  // solvers' SpMV layer instead: the idle workers go to row-partitioned
  // model-sized products (SolveWorkspace::pooled_spmv applies the
  // nested-parallelism guard and a matrix-size floor). Only worth it when
  // some scenario would actually drive the pooled kernel — a model above
  // the size floor AND a solver whose hot loop steps the full model (the
  // single-pass randomization methods; rr's V-solve and rrl's inversions
  // never touch model-sized SpMVs) — otherwise serializing the scenarios
  // loses parallelism for nothing. Scenarios advertise their chain for
  // this check (a shared_solver scenario without one counts as small).
  // The pooled kernel is bit-identical to the serial one, so the report's
  // values stay independent of the worker count either way.
  const auto drives_pooled_spmv = [](const SweepScenario& scenario) {
    if (scenario.chain == nullptr ||
        scenario.chain->num_transitions() < SolveWorkspace::kMinPooledNnz) {
      return false;
    }
    const std::string_view name = scenario.shared_solver != nullptr
                                      ? scenario.shared_solver->name()
                                      : std::string_view(scenario.solver);
    return name == "sr" || name == "rsd";
  };
  const bool model_parallel =
      pool.num_threads() > 1 &&
      rest.size() * 2 <= static_cast<std::size_t>(pool.num_threads()) &&
      std::any_of(rest.begin(), rest.end(), [&](std::size_t i) {
        return drives_pooled_spmv(batch.scenarios[i]);
      });
  // One workspace per worker slot: the solvers' mutable per-solve state.
  // Everything else a worker touches is either immutable shared input
  // (scenarios, chains, shared solvers) or its own result slot. The
  // caller's vector is grown (never shrunk) so a worker loop reuses its
  // warmed-up buffers across units.
  if (workspaces.size() < static_cast<std::size_t>(pool.num_threads())) {
    workspaces.resize(static_cast<std::size_t>(pool.num_threads()));
  }

  if (model_parallel) {
    SolveWorkspace& workspace = workspaces.front();
    ThreadPool* const saved_pool = workspace.spmv_pool;
    workspace.spmv_pool = &pool;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      const std::size_t i = rest[schedule[k]];
      solve_one(batch.scenarios[i], out.results[i], workspace, schedule,
                schedule[k]);
    }
    workspace.spmv_pool = saved_pool;
    out.seconds = watch.seconds();
    return out;
  }

  pool.parallel_for(schedule.size(), [&](std::size_t k, std::size_t worker) {
    const std::size_t i = rest[schedule[k]];
    solve_one(batch.scenarios[i], out.results[i], workspaces[worker],
              schedule, schedule[k]);
  });

  out.seconds = watch.seconds();
  return out;
}

SweepReport run_sweep(const BatchRequest& batch, ThreadPool& pool) {
  std::vector<SolveWorkspace> workspaces;
  return run_sweep(batch, pool, workspaces);
}

SweepReport run_sweep(const BatchRequest& batch) {
  ThreadPool pool(batch.jobs);
  return run_sweep(batch, pool);
}

}  // namespace rrl
