// Study execution: solve a slice of a StudyPlan through the sweep engine —
// the third stage of the plan / dispatch / execute / reduce pipeline.
//
// A slice is any ascending selection of the plan's scenarios: one work
// unit (the dispatch worker loop), a round-robin shard, or the whole
// expansion (the single-process runner). Every solver is built here,
// before the sweep, in one of two ways. By default each scenario resolves
// its solver through the shared SolverCache, so scenarios keyed to the
// same (model, solver, config) drive ONE immutable compiled solver and
// the scenarios one pass can answer share it — chunking changes
// scheduling, never the work or the values. A key whose construction
// fails (rsd on an absorbing chain) is built once; the cache records the
// error and every scenario of the key reports it. With the cache off,
// every scenario builds a fresh solver of its own, the builds spread
// across the slice's pool, and the sweep frees each once its scenario is
// answered; values are bit-identical either way.
//
// A worker loop executing many slices back to back passes its own pool and
// workspace vector so thread and buffer warm-up survive across units; the
// one-shot callers let the slice build both per call. Either way the
// values are bit-identical (the engine's determinism contract).
#pragma once

#include <cstddef>
#include <vector>

#include "core/sweep_engine.hpp"
#include "study/solver_cache.hpp"
#include "study/study_plan.hpp"
#include "study/study_report.hpp"

namespace rrl {

/// Execution knobs of one slice.
struct ExecOptions {
  /// Worker threads INCLUDING the calling thread; <= 0 selects the
  /// hardware concurrency (only consulted when no pool is passed).
  int jobs = 1;
  /// false = a fresh solver per scenario (equivalence testing and
  /// benchmarking of the cache).
  bool use_cache = true;
};

/// A solved slice: metadata + results + provenance, index-aligned.
struct ExecutedSlice {
  std::vector<StudyScenario> scenarios;  ///< the slice, ascending order
  SweepReport sweep;                     ///< results[i] <-> scenarios[i]
  std::vector<CacheTier> tiers;          ///< where solvers[i] came from
  std::vector<std::vector<double>> grids;  ///< the plan's grids

  /// Report rows in canonical order (one per grid point, or one per
  /// failed scenario), including the diagnostic seconds / cache-tier
  /// fields (written to CSV only under --timings).
  [[nodiscard]] std::vector<ReportRow> rows() const;
};

/// Solve the plan scenarios at `positions` (ascending indices into
/// plan.scenarios) as ONE sweep batch. A scenario whose solver cannot be
/// built (e.g. rsd on an absorbing chain) records the construction error
/// in its own slot; the rest of the slice solves normally. When `pool` is
/// non-null the builds and the sweep run on it (with `workspaces`, which
/// must then be non-null too); otherwise a fresh pool of options.jobs
/// workers is built.
[[nodiscard]] ExecutedSlice execute_scenarios(
    const StudyPlan& plan, const std::vector<std::size_t>& positions,
    SolverCache& cache, const ExecOptions& options,
    ThreadPool* pool = nullptr,
    std::vector<SolveWorkspace>* workspaces = nullptr);

/// Unit-level entry point: solve one work unit (the dispatch worker's
/// per-assignment call).
[[nodiscard]] ExecutedSlice execute_unit(
    const StudyPlan& plan, const WorkUnit& unit, SolverCache& cache,
    const ExecOptions& options, ThreadPool* pool = nullptr,
    std::vector<SolveWorkspace>* workspaces = nullptr);

}  // namespace rrl
