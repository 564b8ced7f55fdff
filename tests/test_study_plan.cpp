// Study planner: (1) the expansion order and unit partition — contiguous
// (model, solver) blocks covering the cartesian product exactly, matching
// run_study's documented scenario indices; (2) cost annotations ordering
// big models above small ones; (3) the plan fingerprint — stable across
// re-plans of the same study, sensitive to anything that changes a
// scenario index's meaning; (4) the unit-level executor agreeing
// bit-for-bit with the whole-study runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "counter_delta.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"

namespace rrl {
namespace {

ModelFile multiproc_file() {
  const MultiprocModel m = build_multiproc_availability({});
  ModelFile f;
  f.chain = m.chain;
  f.rewards = m.failure_rewards();
  f.initial = m.initial_distribution();
  f.regenerative = m.initial_state;
  return f;
}

ModelFile raid_file(int groups = 10) {
  Raid5Params p;
  p.groups = groups;
  const Raid5Model m = build_raid5_availability(p);
  ModelFile f;
  f.chain = m.chain;
  f.rewards = m.failure_rewards();
  f.initial = m.initial_distribution();
  f.regenerative = m.initial_state;
  return f;
}

std::string write_temp_model(const std::string& name, const ModelFile& f) {
  const std::string path = "test_study_plan_" + name + ".rrlm";
  write_model_file(path, f.chain, f.rewards, f.initial, f.regenerative);
  return path;
}

StudySpec two_model_spec(const std::string& small_path,
                         const std::string& big_path) {
  std::istringstream in("model " + small_path + "\n" +
                        "model " + big_path + "\n" +
                        "solvers rr rrl\n"
                        "measures both\n"
                        "epsilons 1e-8 1e-10\n"
                        "grid 1:100:3\n"
                        "times 7 70\n");
  return read_study(in);
}

TEST(StudyPlan, UnitsPartitionTheExpansionBySharedSolver) {
  const std::string small = write_temp_model("small", multiproc_file());
  const std::string big = write_temp_model("big", raid_file(20));
  const StudySpec spec = two_model_spec(small, big);

  ModelRepository repo;
  const StudyPlan plan = build_study_plan(spec, repo);

  // 2 models x 2 solvers x 2 measures x 2 epsilons x 2 grids.
  EXPECT_EQ(plan.total_scenarios, 32u);
  ASSERT_EQ(plan.scenarios.size(), 32u);
  // One unit per (model, solver), each 2x2x2 scenarios, contiguous.
  ASSERT_EQ(plan.units.size(), 4u);
  std::size_t expected_first = 0;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const WorkUnit& unit = plan.units[u];
    EXPECT_EQ(unit.id, u);
    EXPECT_EQ(unit.first, expected_first);
    EXPECT_EQ(unit.count, 8u);
    expected_first += unit.count;
    // Every scenario of the unit shares (model, solver) — the solver-
    // sharing grain that keeps shared passes alive under re-chunking.
    const PlannedScenario& head = plan.scenarios[unit.first];
    for (std::size_t i = 0; i < unit.count; ++i) {
      const PlannedScenario& s = plan.scenarios[unit.first + i];
      EXPECT_EQ(s.meta.index, unit.first + i);  // global order
      EXPECT_EQ(s.model.get(), head.model.get());
      EXPECT_EQ(s.meta.solver, head.meta.solver);
      // Canonical construction epsilon: the study's tightest.
      EXPECT_EQ(s.config.epsilon, 1e-10);
    }
  }

  // Model-major then solver order, matching the documented expansion.
  EXPECT_EQ(plan.scenarios[0].meta.model, small);
  EXPECT_EQ(plan.scenarios[0].meta.solver, "rr");
  EXPECT_EQ(plan.scenarios[8].meta.solver, "rrl");
  EXPECT_EQ(plan.scenarios[16].meta.model, big);

  // Cost annotation: the big model's units dominate the small model's.
  EXPECT_GT(plan.units[2].cost, plan.units[0].cost);
  EXPECT_GT(plan.units[3].cost, plan.units[1].cost);

  std::remove(small.c_str());
  std::remove(big.c_str());
}

TEST(StudyPlan, FingerprintIsStableAndSensitive) {
  const std::string small = write_temp_model("fp_small", multiproc_file());
  const std::string big = write_temp_model("fp_big", raid_file());
  const StudySpec spec = two_model_spec(small, big);

  ModelRepository repo;
  const StudyPlan a = build_study_plan(spec, repo);
  // Re-planning the same study — even through a fresh repository, as a
  // dispatch worker does — agrees: that is the serve handshake.
  ModelRepository other_repo;
  const StudyPlan b = build_study_plan(spec, other_repo);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  // Any change to a scenario index's meaning changes the fingerprint.
  StudySpec swapped = spec;
  std::swap(swapped.models[0], swapped.models[1]);
  std::swap(swapped.model_labels[0], swapped.model_labels[1]);
  EXPECT_NE(build_study_plan(swapped, repo).fingerprint, a.fingerprint);

  StudySpec fewer = spec;
  fewer.epsilons = {1e-8};
  EXPECT_NE(build_study_plan(fewer, repo).fingerprint, a.fingerprint);

  StudySpec regrid = spec;
  regrid.grids[0][1] *= 1.0000001;
  EXPECT_NE(build_study_plan(regrid, repo).fingerprint, a.fingerprint);

  std::remove(small.c_str());
  std::remove(big.c_str());
}

TEST(StudyPlan, RejectsUnknownSolversUpFront) {
  const std::string small = write_temp_model("bad_solver", multiproc_file());
  std::istringstream in("model " + small + "\nsolvers rr frobnicate\n" +
                        "times 1 10\n");
  const StudySpec spec = read_study(in);
  ModelRepository repo;
  EXPECT_THROW((void)build_study_plan(spec, repo), contract_error);
  std::remove(small.c_str());
}

TEST(StudyExec, UnitExecutionMatchesWholeStudyBitForBit) {
  const std::string small = write_temp_model("exec_small", multiproc_file());
  const std::string big = write_temp_model("exec_big", raid_file());
  const StudySpec spec = two_model_spec(small, big);

  // Whole study through the single-process runner.
  ModelRepository repo;
  SolverCache run_cache;
  const StudyRun whole = run_study(spec, repo, run_cache);
  ASSERT_EQ(whole.sweep.failed(), 0u);

  // The same study unit by unit, in REVERSE order, through a persistent
  // pool and workspace set (the dispatch worker's shape) and a separate
  // cache.
  const StudyPlan plan = build_study_plan(spec, repo);
  SolverCache unit_cache;
  ThreadPool pool(2);
  std::vector<SolveWorkspace> workspaces;
  ExecOptions exec;
  exec.jobs = 2;
  std::vector<ReportRow> rows;
  for (auto it = plan.units.rbegin(); it != plan.units.rend(); ++it) {
    const CounterDelta misses("rrl_cache_memory_misses_total");
    const CounterDelta hits("rrl_cache_memory_hits_total");
    const ExecutedSlice slice =
        execute_unit(plan, *it, unit_cache, exec, &pool, &workspaces);
    // Unit scenarios share one compiled solver: exactly 1 miss per unit.
    EXPECT_EQ(misses(), 1u);
    EXPECT_EQ(hits(), it->count - 1);
    const std::vector<ReportRow> unit_rows = slice.rows();
    rows.insert(rows.begin(), unit_rows.begin(), unit_rows.end());
  }

  // Reassembled rows == the whole run's rows, bit for bit (values AND
  // formatting; the diagnostic fields are excluded from the canonical
  // layout).
  std::ostringstream whole_csv;
  write_report_csv(whole_csv, whole.total_scenarios, whole.rows());
  std::ostringstream unit_csv;
  write_report_csv(unit_csv, plan.total_scenarios, rows);
  EXPECT_EQ(unit_csv.str(), whole_csv.str());

  // Tier provenance: first unit execution compiles, the rest of the unit
  // shares in memory.
  SolverCache tier_cache;
  const ExecutedSlice tiered =
      execute_unit(plan, plan.units.front(), tier_cache, exec);
  ASSERT_EQ(tiered.tiers.size(), plan.units.front().count);
  EXPECT_EQ(tiered.tiers.front(), CacheTier::kCompiled);
  for (std::size_t i = 1; i < tiered.tiers.size(); ++i) {
    EXPECT_EQ(tiered.tiers[i], CacheTier::kMemory);
  }

  std::remove(small.c_str());
  std::remove(big.c_str());
}

}  // namespace
}  // namespace rrl
