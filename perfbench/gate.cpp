#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "study/study_report.hpp"

namespace perfbench {
namespace {

/// Round-off allowance per DTMC or V-model step: the one fig4_ur_cpu uses
/// for long SR passes (~1e-15 accumulated per step, with a 10x margin).
constexpr double kRoundoffPerStep = 1e-14;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(std::move(line));
  }
  return lines;
}

/// (model hash, solver, t_max, eps): the schema memo's key of an rr/rrl
/// scenario.
using SchemaKey = std::tuple<std::uint64_t, std::string, double, double>;

std::optional<SchemaKey> schema_key(const rrl::PlannedScenario& s) {
  if (s.meta.solver != "rr" && s.meta.solver != "rrl") return std::nullopt;
  const std::vector<double>& times = s.request.times;
  return SchemaKey{s.model->hash, s.meta.solver,
                   *std::max_element(times.begin(), times.end()),
                   s.request.epsilon};
}

/// The reference block of a scenario's points, or nullptr.
const Reference* reference_of(const rrl::StudyScenario& s,
                              const References& refs) {
  const auto it = refs.find({s.model, rrl::measure_name(s.measure), s.grid});
  return it == refs.end() ? nullptr : &it->second;
}

/// How far point `p` of a scenario solved to `eps` may be from the
/// reference: both epsilons plus the round-off of the reference's own
/// steps at that point.
double tolerance(double eps, const Reference& r, std::size_t p) {
  return eps + r.eps +
         kRoundoffPerStep * r.steps[p] * std::max(1.0, std::abs(r.values[p]));
}

}  // namespace

GateCount gate_points(const rrl::StudyRun& run, const std::string& csv,
                      const std::string& expected_csv,
                      const References& refs) {
  const std::vector<std::string> lines = split_lines(csv);
  const std::vector<std::string> expected = split_lines(expected_csv);
  const bool same_shape = lines.size() == expected.size() &&
                          lines.size() >= 2 && lines[0] == expected[0] &&
                          lines[1] == expected[1];
  GateCount count;
  std::size_t line = 2;  // past the metadata and header lines
  for (std::size_t i = 0; i < run.scenarios.size(); ++i) {
    const rrl::StudyScenario& s = run.scenarios[i];
    const rrl::ScenarioResult& result = run.sweep.results[i];
    const std::size_t points = run.grids[s.grid].size();
    count.attempted += points;
    const auto fail = [&](std::size_t point, const std::string& why) {
      ++count.failed;
      if (count.first_failure.empty()) {
        count.first_failure = "scenario " + std::to_string(s.index) + " (" +
                              s.model + " " + s.solver + " " +
                              rrl::measure_name(s.measure) + ") point " +
                              std::to_string(point) + ": " + why;
      }
    };
    if (!result.ok()) {
      for (std::size_t p = 0; p < points; ++p) fail(p, result.error);
      ++line;  // a failed scenario is one report row
      continue;
    }
    const Reference* ref = reference_of(s, refs);
    for (std::size_t p = 0; p < points; ++p, ++line) {
      if (p >= result.report.points.size()) {
        fail(p, "missing from the report");
        continue;
      }
      const rrl::TransientValue& point = result.report.points[p];
      if (!same_shape || lines[line] != expected[line]) {
        fail(p, "CSV line differs from the first cold report");
      } else if (point.stats.capped) {
        fail(p, "step cap hit");
      } else if (!point.stats.inversion_converged) {
        fail(p, "Laplace inversion did not converge");
      } else if (ref == nullptr || p >= ref->values.size()) {
        fail(p, "no reference value");
      } else {
        const double tol = tolerance(s.epsilon, *ref, p);
        const double diff = std::abs(point.value - ref->values[p]);
        if (!(diff <= tol)) {
          std::ostringstream why;
          why << "|value - reference| = " << diff << " > tolerance " << tol;
          fail(p, why.str());
        }
      }
    }
  }
  return count;
}

bool gate_self_test(const rrl::StudyRun& run, const std::string& csv,
                    const References& refs) {
  const GateCount clean = gate_points(run, csv, csv, refs);
  std::vector<std::size_t> solved;
  for (std::size_t i = 0; i < run.sweep.results.size(); ++i) {
    const Reference* ref = reference_of(run.scenarios[i], refs);
    if (run.sweep.results[i].ok() &&
        !run.sweep.results[i].report.points.empty() && ref != nullptr &&
        !ref->values.empty()) {
      solved.push_back(i);
    }
  }
  if (solved.empty()) return false;
  rrl::StudyRun bad = run;
  std::vector<rrl::TransientValue>& first =
      bad.sweep.results[solved.front()].report.points;
  std::vector<rrl::TransientValue>& last =
      bad.sweep.results[solved.back()].report.points;
  if (&first == &last && first.size() < 2) return false;
  // Move the value away from its reference by twice its tolerance: a
  // passing point then misses by more than the tolerance, but by at most
  // three times it.
  const rrl::StudyScenario& s = run.scenarios[solved.front()];
  const Reference& ref = *reference_of(s, refs);
  rrl::TransientValue& moved = first.front();
  moved.value += (moved.value >= ref.values[0] ? 2.0 : -2.0) *
                 tolerance(s.epsilon, ref, 0);
  last.back().stats.capped = true;
  std::ostringstream bad_csv;
  rrl::write_report_csv(bad_csv, bad.total_scenarios, bad.rows());
  // Gated against its own CSV, only the reference check can count the
  // moved value. The clean run gated against the copy's CSV must fail the
  // moved line alone (the capped flag is not in the CSV).
  return gate_points(bad, bad_csv.str(), bad_csv.str(), refs).failed ==
             clean.failed + 2 &&
         gate_points(run, csv, bad_csv.str(), refs).failed ==
             clean.failed + 1;
}

PlanKeys plan_keys(const rrl::StudyPlan& plan) {
  std::set<std::tuple<std::uint64_t, std::string, double, double,
                      rrl::index_t, std::int64_t>>
      solvers;
  std::set<SchemaKey> schemas;
  for (const rrl::PlannedScenario& s : plan.scenarios) {
    const rrl::SolverConfig& c = s.config;
    solvers.emplace(s.model->hash, s.meta.solver, c.epsilon, c.rate_factor,
                    c.regenerative, c.step_cap);
    if (const auto key = schema_key(s)) schemas.insert(*key);
  }
  return PlanKeys{solvers.size(), schemas.size()};
}

double distinct_schema_steps(const rrl::StudyPlan& plan,
                             const rrl::StudyRun& run) {
  std::map<SchemaKey, double> steps;
  for (std::size_t i = 0; i < run.scenarios.size(); ++i) {
    const auto key = schema_key(plan.scenarios.at(run.scenarios[i].index));
    const std::vector<rrl::TransientValue>& points =
        run.sweep.results[i].report.points;
    if (key && !points.empty()) {
      steps.emplace(*key, static_cast<double>(points.front().stats.dtmc_steps));
    }
  }
  double total = 0.0;
  for (const auto& entry : steps) total += entry.second;
  return total;
}

const char* phase_name(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kCold:
      return "cold";
    case PhaseKind::kWarm:
      return "warm";
    case PhaseKind::kHot:
    default:
      return "hot";
  }
}

std::vector<std::string> phase_violations(
    PhaseKind kind, const rrl::metrics::MetricsSnapshot& before,
    const rrl::metrics::MetricsSnapshot& after, const PlanKeys& keys) {
  std::vector<std::string> violations;
  const auto expect = [&](const char* counter, bool (*ok)(std::uint64_t,
                                                          std::size_t),
                          std::size_t want, const char* relation) {
    const std::uint64_t delta = after.value(counter) - before.value(counter);
    if (!ok(delta, want)) {
      violations.push_back(std::string(counter) + " moved by " +
                           std::to_string(delta) + ", expected " + relation +
                           " " + std::to_string(want));
    }
  };
  const auto equal = [](std::uint64_t d, std::size_t w) { return d == w; };
  const auto at_least = [](std::uint64_t d, std::size_t w) { return d >= w; };
  switch (kind) {
    case PhaseKind::kCold:
      expect("rrl_solver_compiles_total", equal, keys.solvers, "==");
      expect("rrl_cache_schema_builds_total", at_least, keys.schemas, ">=");
      break;
    case PhaseKind::kWarm:
      expect("rrl_solver_compiles_total", equal, 0, "==");
      expect("rrl_cache_schema_builds_total", equal, 0, "==");
      expect("rrl_cache_disk_hits_total", equal, keys.solvers, "==");
      break;
    case PhaseKind::kHot:
      expect("rrl_solver_compiles_total", equal, 0, "==");
      expect("rrl_cache_memory_misses_total", equal, 0, "==");
      expect("rrl_cache_schema_builds_total", equal, 0, "==");
      break;
  }
  return violations;
}

}  // namespace perfbench
