// Uniformized-Krylov backend: registry wiring, agreement with standard
// randomization within the combined tolerance on the paper's models (both
// measures), degenerate inputs, the step-cap budget contract, and the
// artifact round trip it shares with SR.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_artifact.hpp"
#include "core/krylov_solver.hpp"
#include "io/artifact_codec.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"

namespace rrl {
namespace {

constexpr double kEps = 1e-9;

struct Model {
  std::string label;
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
  index_t regenerative = 0;
};

Model raid_model() {
  Raid5Params p;
  p.groups = 20;
  const Raid5Model m = build_raid5_availability(p);
  return {"raid5-g20", m.chain, m.failure_rewards(),
          m.initial_distribution(), m.initial_state};
}

Model multiproc_model() {
  const MultiprocModel m = build_multiproc_availability({});
  return {"multiproc", m.chain, m.failure_rewards(),
          m.initial_distribution(), m.initial_state};
}

TEST(KrylovSolver, RegisteredUnderItsName) {
  const std::vector<std::string> names = registered_solvers();
  EXPECT_NE(std::find(names.begin(), names.end(), "krylov"), names.end());
  const Model model = raid_model();
  SolverConfig config;
  config.epsilon = kEps;
  const auto solver = make_solver("krylov", model.chain, model.rewards,
                                  model.initial, config);
  EXPECT_EQ(solver->name(), "krylov");
}

TEST(KrylovSolver, AgreesWithStandardRandomization) {
  const std::vector<double> grid = log_time_grid(0.5, 2000.0, 7);
  for (const Model& model : {raid_model(), multiproc_model()}) {
    SolverConfig config;
    config.epsilon = kEps;
    config.regenerative = model.regenerative;
    const auto sr = make_solver("sr", model.chain, model.rewards,
                                model.initial, config);
    const auto krylov = make_solver("krylov", model.chain, model.rewards,
                                    model.initial, config);
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      const SolveReport a = sr->solve_grid({measure, grid, -1.0});
      const SolveReport b = krylov->solve_grid({measure, grid, -1.0});
      ASSERT_EQ(a.points.size(), b.points.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_NEAR(a.points[i].value, b.points[i].value, 2.0 * kEps)
            << model.label << " " << measure_name(measure)
            << " t=" << grid[i];
        EXPECT_FALSE(b.points[i].stats.capped);
      }
    }
  }
}

TEST(KrylovSolver, TimeZeroIsTheInitialReward) {
  const Model model = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  const auto solver = make_solver("krylov", model.chain, model.rewards,
                                  model.initial, config);
  double expected = 0.0;
  for (index_t s = 0; s < model.chain.num_states(); ++s) {
    expected += model.initial[static_cast<std::size_t>(s)] *
                model.rewards[static_cast<std::size_t>(s)];
  }
  const SolveReport report =
      solver->solve_grid(SolveRequest::trr({0.0, 10.0}));
  EXPECT_DOUBLE_EQ(report.points[0].value, expected);
}

TEST(KrylovSolver, ZeroRewardsShortCircuit) {
  const Model model = raid_model();
  const std::vector<double> zero(
      static_cast<std::size_t>(model.chain.num_states()), 0.0);
  SolverConfig config;
  config.epsilon = kEps;
  const auto solver =
      make_solver("krylov", model.chain, zero, model.initial, config);
  const SolveReport report =
      solver->solve_grid(SolveRequest::mrr(log_time_grid(1.0, 1e6, 5)));
  for (const TransientValue& p : report.points) {
    EXPECT_EQ(p.value, 0.0);
    EXPECT_FALSE(p.stats.capped);
  }
  EXPECT_EQ(report.total.dtmc_steps, 0);
}

TEST(KrylovSolver, StepCapMarksPointsCapped) {
  const Model model = raid_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.step_cap = 1;  // far below one Arnoldi sweep
  const auto solver = make_solver("krylov", model.chain, model.rewards,
                                  model.initial, config);
  const SolveReport report =
      solver->solve_grid(SolveRequest::trr({5000.0}));
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_TRUE(report.points[0].stats.capped);
}

TEST(KrylovSolver, ArtifactRoundTripIsBitIdentical) {
  const std::vector<double> grid = log_time_grid(1.0, 300.0, 4);
  const Model model = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  const auto cold = make_solver("krylov", model.chain, model.rewards,
                                model.initial, config);
  const SolveReport cold_trr = cold->solve_grid(SolveRequest::trr(grid));

  CompiledArtifact exported =
      export_artifact(*cold, /*model_hash=*/99, config);
  exported.model_spec = "k_of_n demo=1";  // provenance must survive codec
  exported.pre_lump_states = 123;
  CompiledArtifact restored = decode_artifact(encode_artifact(exported));
  EXPECT_EQ(restored.model_spec, "k_of_n demo=1");
  EXPECT_EQ(restored.pre_lump_states, 123);

  const auto warm = make_solver("krylov", model.chain, model.rewards,
                                model.initial, config);
  warm->import_compiled(std::move(restored));
  const SolveReport warm_trr = warm->solve_grid(SolveRequest::trr(grid));
  ASSERT_EQ(warm_trr.points.size(), cold_trr.points.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(warm_trr.points[i].value, cold_trr.points[i].value);
  }
}

}  // namespace
}  // namespace rrl
