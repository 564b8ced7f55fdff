// Single-process study runner: the thin composition of the pipeline's
// planner (study_plan.hpp) and executor (study_exec.hpp) that expands a
// StudySpec, optionally slices off one round-robin shard, and solves it as
// one batch. The multi-process face of the same pipeline is the dispatch
// orchestrator (study_dispatch.hpp); both produce byte-identical reports.
//
// Sharding is round-robin: shard k of N (1-based) owns every scenario with
// index % N == k-1. Round-robin (rather than contiguous blocks) spreads a
// study's expensive axis — usually one model or one solver — evenly across
// shards, and the report rows carry global indices so --merge restores the
// unsharded order exactly. (Static sharding remains the zero-coordination
// deployment: any machine can compute its slice alone. The dispatcher
// exists for the workloads where static slicing straggles.)
//
// Solver sharing: scenarios are resolved through the SolverCache serially
// before the sweep, so all scenarios keyed to the same (model, solver,
// config) drive ONE immutable solver (per-worker SolveWorkspaces carry the
// mutable state), and a key whose construction fails is built once. The
// per-scenario epsilon travels in the SolveRequest — every method honors
// the request epsilon over its constructed default — so the cache is
// keyed with one canonical construction epsilon (the study's tightest)
// and epsilon variation costs no extra solvers. Results are bit-identical
// to a fresh solver per scenario (use_cache=false), which the tests
// assert.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep_engine.hpp"
#include "study/model_repository.hpp"
#include "study/solver_cache.hpp"
#include "study/study_exec.hpp"
#include "study/study_format.hpp"
#include "study/study_plan.hpp"
#include "study/study_report.hpp"

namespace rrl {

/// One shard of N (1-based index in [1, count]); {1, 1} = the whole study.
struct ShardSpec {
  int index = 1;
  int count = 1;

  [[nodiscard]] bool valid() const noexcept {
    return count >= 1 && index >= 1 && index <= count;
  }
};

/// Execution knobs beyond the spec.
struct StudyOptions {
  ShardSpec shard;
  /// Worker threads; <= 0 uses the spec's `jobs` line.
  int jobs = 0;
  /// false = a fresh solver per scenario (equivalence testing and
  /// benchmarking of the cache).
  bool use_cache = true;
};

/// A solved shard: the executed slice (this shard's scenarios in global
/// order, their results and solver provenance, the spec's grids, rows())
/// plus the study it was cut from.
struct StudyRun : ExecutedSlice {
  std::uint64_t total_scenarios = 0;  ///< full expansion size
  ShardSpec shard;
};

/// Plan, slice, resolve solvers through the cache, and solve. Models are
/// loaded through `repository` (each distinct content parsed once) and
/// solvers through `cache`; both outlive the returned run and may be
/// shared across runs — a second study over the same models starts warm.
/// Throws contract_error for an invalid shard, an unknown solver name, or
/// an unloadable model; per-scenario solver failures (e.g. rsd on an
/// absorbing chain) are recorded in the results instead.
[[nodiscard]] StudyRun run_study(const StudySpec& spec,
                                 ModelRepository& repository,
                                 SolverCache& cache,
                                 const StudyOptions& options = {});

}  // namespace rrl
