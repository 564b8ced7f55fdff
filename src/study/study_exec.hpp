// Study execution: solve a slice of a StudyPlan through the sweep engine —
// the third stage of the plan / dispatch / execute / reduce pipeline.
//
// A slice is any ascending selection of the plan's scenarios: one work
// unit (the dispatch worker loop), a round-robin shard, or the whole
// expansion (the single-process runner). However the slice was chunked,
// every scenario resolves its solver through the shared SolverCache, so
// scenarios keyed to the same (model, solver, config) drive ONE immutable
// compiled solver and the scenarios one pass can answer share it —
// chunking changes scheduling, never the work or the values.
//
// A worker loop executing many slices back to back passes its own pool and
// workspace vector so thread and buffer warm-up survive across units; the
// one-shot callers let the engine build both per call. Either way the
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
  /// false = per-scenario fresh solver construction (the pre-cache
  /// behavior; kept for equivalence testing and benchmarking).
  bool use_cache = true;
};

/// A solved slice: metadata + results + provenance, index-aligned.
struct ExecutedSlice {
  std::vector<StudyScenario> scenarios;  ///< the slice, ascending order
  SweepReport sweep;                     ///< results[i] <-> scenarios[i]
  std::vector<CacheTier> tiers;          ///< where solvers[i] came from
  int jobs = 1;
};

/// Solve the plan scenarios at `positions` (ascending indices into
/// plan.scenarios) as ONE sweep batch. Solver-construction failures (e.g.
/// rsd on an absorbing chain) fall back to per-scenario construction
/// inside the sweep, which records the same error in that scenario's slot
/// — per-scenario isolation identical to the uncached path. When `pool`
/// is non-null the sweep runs on it (with `workspaces`, which must then be
/// non-null too); otherwise a fresh pool of options.jobs workers is built.
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

/// Report rows of a solved slice in canonical order (one per grid point,
/// or one per failed scenario), including the diagnostic seconds /
/// cache-tier fields (written to CSV only under --timings).
[[nodiscard]] std::vector<ReportRow> report_rows(
    const std::vector<StudyScenario>& scenarios, const SweepReport& sweep,
    const std::vector<CacheTier>& tiers,
    const std::vector<std::vector<double>>& grids);

[[nodiscard]] inline std::vector<ReportRow> slice_rows(
    const ExecutedSlice& slice,
    const std::vector<std::vector<double>>& grids) {
  return report_rows(slice.scenarios, slice.sweep, slice.tiers, grids);
}

}  // namespace rrl
