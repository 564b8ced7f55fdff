// The `.study` file format: a cartesian parameter sweep in ten lines.
//
// A study declares the axes of a batch — models x solvers x measures x
// epsilons x time grids — and expands into one scenario per combination,
// so a 4-model, 4-solver, 2-measure, 3-epsilon, 2-grid study is 192
// scenarios from six lines. Line-oriented, whitespace-separated, '#'
// comments, keywords in any order:
//
//   model <path>              # repeatable, >= 1; relative paths resolve
//                             # against the study file's directory
//   solvers all | <name>...   # default: every registered solver
//   measures trr | mrr | both # default: trr  (a list "trr mrr" works too)
//   epsilons <e1> <e2> ...    # default: 1e-12
//   grid <lo>:<hi>:<count>    # one log-spaced time grid; repeatable
//   times <t1> <t2> ...       # one explicit time grid; repeatable
//   regenerative auto | <i>   # default: each model file's hint, else auto
//   jobs <n>                  # default worker count, 1..kMaxJobs (CLI
//                             # --jobs overrides)
//
// Fields and numbers are read as in model files (io/field_scanner.hpp): a
// number must fill its field, so `jobs 2x` or `times 5 1e` is an error.
//
// At least one `model` and one `grid`/`times` line are required. The
// expansion order is fixed and documented (study_runner.hpp): model-major,
// then solver, measure, epsilon, grid — scenario indices are therefore
// stable across runs, which is what makes deterministic sharding and
// mergeable shard reports possible.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/transient_solver.hpp"

namespace rrl {

/// A parsed study: the axes, not yet expanded.
struct StudySpec {
  std::vector<std::string> models;  ///< paths, already base-dir resolved
  std::vector<std::string> model_labels;  ///< the paths as written
  std::vector<std::string> solvers;       ///< empty = all registered
  std::vector<MeasureKind> measures = {MeasureKind::kTrr};
  std::vector<double> epsilons = {1e-12};
  std::vector<std::vector<double>> grids;  ///< one entry per grid/times line
  /// Regenerative state override for every model: -2 = use each file's
  /// hint (the default), -1 = auto-select, >= 0 = this exact index.
  index_t regenerative = -2;
  int jobs = 1;

  /// Scenarios in the full expansion. An empty `solvers` defers to the
  /// registry, so the true count is only known at run time — pass the
  /// resolved solver count (run_study does this internally).
  [[nodiscard]] std::size_t scenario_count(std::size_t solver_count) const {
    return models.size() * solver_count * measures.size() *
           epsilons.size() * grids.size();
  }
};

/// Sentinel: use each model file's regenerative hint.
inline constexpr index_t kRegenerativeFromModel = -2;

/// Parse a study from a stream. `base_dir` (may be empty) is prepended to
/// relative model paths. Throws contract_error with a line-numbered
/// message on malformed input; defaults are applied afterwards (solvers
/// left empty for run-time registry resolution). Validates that at least
/// one model and one grid are declared.
[[nodiscard]] StudySpec read_study(std::istream& in,
                                   const std::string& base_dir = "");

/// Parse a study file; relative model paths resolve against its directory.
[[nodiscard]] StudySpec read_study_file(const std::string& path);

}  // namespace rrl
