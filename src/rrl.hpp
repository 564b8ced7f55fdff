// Umbrella header of the rrl library.
//
// rrl reproduces Carrasco's "Transient Analysis of Dependability/
// Performability Models by Regenerative Randomization with Laplace Transform
// Inversion" (IPDPS 2000 Workshops): five transient solvers for rewarded
// CTMCs — standard randomization (SR), randomization with steady-state
// detection (RSD), regenerative randomization (RR), the paper's new
// variant RRL, and a uniformized-Krylov backend for large stiff models —
// plus the substrates (sparse kernels, Poisson arithmetic, uniformization,
// Laplace inversion, parametric model generation and exact lumping) and
// the paper's RAID-5 evaluation models.
//
// Quick start (see examples/quickstart.cpp and README.md):
//   rrl::Ctmc chain = ...;                      // your model
//   std::vector<double> rewards = ...;          // r_i >= 0
//   std::vector<double> alpha = ...;            // initial distribution
//   rrl::SolverConfig config;                   // eps, regenerative state
//   auto solver = rrl::make_solver("rrl", chain, rewards, alpha, config);
//   double ua = solver->solve_point(t, rrl::MeasureKind::kTrr).value;
//   // whole time grids amortize the schema / randomization pass:
//   auto report = solver->solve_grid(
//       rrl::SolveRequest::trr(rrl::log_time_grid(1.0, 1e5, 20)));
// The concrete classes (RegenerativeRandomizationLaplace, ...) remain
// available for method-specific tuning and rigorous bounds.
//
// Compile → execute split (core/compiled_artifact.hpp): the expensive
// model-derived state of a solver can be exported, serialized and
// re-imported, so a later process skips the compilation and still answers
// bit-identically:
//   auto artifact = rrl::export_artifact(*solver, model_hash, config);
//   rrl::write_artifact_file("m.rrla", artifact);        // io/artifact_codec
//   ...
//   auto warm = rrl::make_solver("rrl", chain, rewards, alpha, config);
//   warm->import_compiled(rrl::read_artifact_file("m.rrla"));
// The study subsystem automates this: give the SolverCache an
// ArtifactStore (study/artifact_store.hpp) — or `rrl_solve --cache-dir` —
// and repeated studies and all shards of a --shard k/N run start warm.
#pragma once

#include "core/compiled_artifact.hpp"  // IWYU pragma: export
#include "core/grid_sweep.hpp"         // IWYU pragma: export
#include "core/krylov_solver.hpp"      // IWYU pragma: export
#include "core/regenerative.hpp"       // IWYU pragma: export
#include "core/registry.hpp"           // IWYU pragma: export
#include "core/rr_solver.hpp"          // IWYU pragma: export
#include "core/rrl_solver.hpp"         // IWYU pragma: export
#include "core/rrl_transform.hpp"      // IWYU pragma: export
#include "core/solver.hpp"             // IWYU pragma: export
#include "core/standard_randomization.hpp"   // IWYU pragma: export
#include "core/steady_state_detection.hpp"   // IWYU pragma: export
#include "core/sweep_engine.hpp"       // IWYU pragma: export
#include "core/transient_solver.hpp"   // IWYU pragma: export
#include "core/vmodel.hpp"             // IWYU pragma: export
#include "laplace/crump.hpp"           // IWYU pragma: export
#include "laplace/epsilon.hpp"         // IWYU pragma: export
#include "laplace/error_control.hpp"   // IWYU pragma: export
#include "markov/builder.hpp"          // IWYU pragma: export
#include "markov/ctmc.hpp"             // IWYU pragma: export
#include "markov/dtmc.hpp"             // IWYU pragma: export
#include "markov/generator.hpp"        // IWYU pragma: export
#include "markov/lumping.hpp"          // IWYU pragma: export
#include "markov/poisson.hpp"          // IWYU pragma: export
#include "markov/scc.hpp"              // IWYU pragma: export
#include "markov/steady_state.hpp"     // IWYU pragma: export
#include "io/artifact_codec.hpp"       // IWYU pragma: export
#include "io/model_format.hpp"         // IWYU pragma: export
#include "io/model_solver.hpp"         // IWYU pragma: export
#include "io/net_transport.hpp"        // IWYU pragma: export
#include "io/wire_codec.hpp"           // IWYU pragma: export
#include "models/multiproc.hpp"        // IWYU pragma: export
#include "models/raid5.hpp"            // IWYU pragma: export
#include "models/simple.hpp"           // IWYU pragma: export
#include "sparse/aligned_alloc.hpp"    // IWYU pragma: export
#include "sparse/csr.hpp"              // IWYU pragma: export
#include "sparse/sell.hpp"             // IWYU pragma: export
#include "sparse/spmv_kernels.hpp"     // IWYU pragma: export
#include "sparse/vector_ops.hpp"       // IWYU pragma: export
#include "sparse/workspace.hpp"        // IWYU pragma: export
#include "study/artifact_store.hpp"    // IWYU pragma: export
#include "study/model_repository.hpp"  // IWYU pragma: export
#include "study/solver_cache.hpp"      // IWYU pragma: export
#include "study/study_dispatch.hpp"    // IWYU pragma: export
#include "study/study_exec.hpp"        // IWYU pragma: export
#include "study/study_format.hpp"      // IWYU pragma: export
#include "study/study_plan.hpp"        // IWYU pragma: export
#include "study/study_reduce.hpp"      // IWYU pragma: export
#include "study/study_report.hpp"      // IWYU pragma: export
#include "study/study_runner.hpp"      // IWYU pragma: export
#include "support/self_exe.hpp"        // IWYU pragma: export
#include "support/thread_pool.hpp"     // IWYU pragma: export
