// Study planning: expand a StudySpec into an ordered StudyPlan of
// cost-annotated work units — the first stage of the plan / dispatch /
// execute / reduce pipeline.
//
// Expansion order (the contract that makes sharding, dispatching and
// merging work): scenario indices enumerate the cartesian product in fixed
// nested order —
//
//   for model in models:            # outermost
//     for solver in solvers:
//       for measure in measures:
//         for epsilon in epsilons:
//           for grid in grids:      # innermost
//
// — so index i is stable across runs, machines, shard counts and worker
// counts. The planner resolves everything the expansion needs up front
// (solver names against the registry, models through the repository, the
// canonical construction epsilon, each model's regenerative hint), so a
// typo fails the study, not one scenario per combination.
//
// Work units: the plan partitions the expansion into contiguous units, one
// per (model, solver) pair — every scenario of a unit shares ONE compiled
// solver through the SolverCache, and because the unit keeps the whole
// (measure x epsilon x grid) block together, the shared passes (one
// iterate, one V-pass or one Arnoldi pass for many requests) survive any
// re-chunking a dispatcher performs: a unit is the smallest schedulable
// grain that loses no sharing. Units carry a cost
// estimate (model size x scenario volume) so a dispatcher can schedule the
// expensive units first and a straggler model never idles the fleet.
//
// The fingerprint hashes the expansion's identity (sizes, unit boundaries,
// per-scenario solver/measure/epsilon and the grids' exact bit patterns).
// Two processes planning the same study — the dispatch parent and its
// workers — agree on the fingerprint iff they agree on every unit's
// meaning, which the serve handshake verifies before any work is handed
// out.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/transient_solver.hpp"
#include "study/model_repository.hpp"
#include "study/study_format.hpp"

namespace rrl {

/// Identity of one expanded scenario (reporting metadata).
struct StudyScenario {
  std::uint64_t index = 0;  ///< GLOBAL index in the full expansion
  std::string model;        ///< model label (path as written in the study)
  std::string solver;
  MeasureKind measure = MeasureKind::kTrr;
  double epsilon = 0.0;
  std::size_t grid = 0;  ///< index into StudyPlan::grids
};

/// One expanded scenario with everything needed to solve it: the interned
/// model, the canonical construction config (the study's tightest epsilon,
/// the resolved regenerative hint) and the per-scenario request.
struct PlannedScenario {
  StudyScenario meta;
  std::shared_ptr<const StudyModel> model;  ///< pins the chain
  SolverConfig config;
  SolveRequest request;
};

/// A contiguous run of scenarios sharing one compiled solver: all
/// (measure, epsilon, grid) combinations of one (model, solver) pair.
struct WorkUnit {
  std::uint32_t id = 0;     ///< ordinal in StudyPlan::units
  std::size_t first = 0;    ///< index into StudyPlan::scenarios AND the
                            ///< global index of the unit's first scenario
                            ///< (the plan holds the full expansion)
  std::size_t count = 0;    ///< scenarios in the unit (> 0)
  double cost = 0.0;        ///< scheduling estimate (see plan_unit_cost)
};

/// The planner's output: the full expansion plus its unit partition.
struct StudyPlan {
  std::vector<PlannedScenario> scenarios;  ///< full expansion, global order
  std::vector<WorkUnit> units;  ///< contiguous partition of `scenarios`
  std::vector<std::vector<double>> grids;  ///< the spec's grids (for rows)
  std::uint64_t total_scenarios = 0;
  /// Hash of the expansion's identity; equal fingerprints mean two
  /// processes agree on every unit's meaning (the serve handshake).
  std::uint64_t fingerprint = 0;
};

/// Relative cost estimate of solving `count` scenarios of `model` over
/// `points` total grid points: proportional to the model's stored entries
/// (every method's hot loop is the model-sized SpMV) times the scenario
/// volume. Only the ORDER of unit costs matters (longest-processing-time
/// dispatch); the scale is arbitrary.
[[nodiscard]] double plan_unit_cost(const StudyModel& model,
                                    std::size_t count, std::size_t points);

/// Expand, resolve and partition. Models are loaded through `repository`
/// (each distinct content parsed once) and outlive the plan via the
/// per-scenario shared_ptr. Throws contract_error for an unknown solver
/// name or an unloadable model.
[[nodiscard]] StudyPlan build_study_plan(const StudySpec& spec,
                                         ModelRepository& repository);

}  // namespace rrl
