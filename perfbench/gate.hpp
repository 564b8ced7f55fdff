// The checks that decide whether a run's numbers may be published: the
// output gate (is every point right?) and the phase-integrity guard (did
// each phase do exactly the work its name claims?).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "study/study_plan.hpp"
#include "study/study_runner.hpp"
#include "support/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Points one phase attempted and the ones the gate failed.
struct GateCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;  ///< what the first failed point missed
};

/// Gates one phase. A point fails when its scenario errored, its stats say
/// capped or !inversion_converged, it is further from its reference than
/// its own eps + the reference's eps + a round-off allowance of 1e-14 per
/// step the reference took to that point, or its CSV line differs from the
/// same line of `expected_csv` (the run's first cold report).
[[nodiscard]] GateCount gate_points(const rrl::StudyRun& run,
                                    const std::string& csv,
                                    const std::string& expected_csv,
                                    const References& refs);

/// Feeds the gate a copy of `run` with one value moved twice its tolerance
/// off its reference and one `capped` flag flipped, gated against the
/// copy's own CSV; true when exactly those two more points fail, and when
/// the clean run gated against the copy's CSV fails the moved line alone.
[[nodiscard]] bool gate_self_test(const rrl::StudyRun& run,
                                  const std::string& csv,
                                  const References& refs);

/// Distinct keys a plan must compile (solver cache) and build (schema
/// memo of the rr/rrl solvers).
struct PlanKeys {
  std::size_t solvers = 0;
  std::size_t schemas = 0;
};
[[nodiscard]] PlanKeys plan_keys(const rrl::StudyPlan& plan);

/// Sum of K + L over the plan's distinct schema keys, read from the points
/// of a run of that plan.
[[nodiscard]] double distinct_schema_steps(const rrl::StudyPlan& plan,
                                           const rrl::StudyRun& run);

enum class PhaseKind { kCold, kWarm, kHot };
[[nodiscard]] const char* phase_name(PhaseKind kind);

/// The guard for one phase, from its metrics::snapshot() deltas: cold
/// compiles every solver key and builds every schema key at least once;
/// warm compiles and builds nothing and loads every key from disk; hot
/// compiles, imports and builds nothing. Returns the violations.
[[nodiscard]] std::vector<std::string> phase_violations(
    PhaseKind kind, const rrl::metrics::MetricsSnapshot& before,
    const rrl::metrics::MetricsSnapshot& after, const PlanKeys& keys);

}  // namespace perfbench
