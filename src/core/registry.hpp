// String-keyed solver registry/factory.
//
// Cross-method scenario studies (the paper's Tables 1-2 and Figures 3-4,
// the CLI tool, the examples and the benches) select a method by name
// instead of hard-coding solver classes:
//
//   auto solver = rrl::make_solver("rrl", chain, rewards, initial);
//   auto report = solver->solve_grid(rrl::SolveRequest::trr(ts));
//
// The five built-in methods are pre-registered under "sr", "rsd", "rr",
// "rrl" and "krylov"; downstream code can register additional methods (or
// replace a built-in, e.g. with an instrumented wrapper) via
// register_solver().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/transient_solver.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

/// Method-agnostic construction parameters. Method-specific tuning beyond
/// these (Durbin period multiplier, detection tolerance, ...) still goes
/// through the concrete solver classes.
struct SolverConfig {
  /// Total error bound (the paper's eps).
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate (1.0 = the paper's choice).
  double rate_factor = 1.0;
  /// Regenerative state for rr/rrl; < 0 selects one automatically with
  /// suggest_regenerative_state(). Ignored by sr/rsd/krylov.
  index_t regenerative = -1;
  /// Safety step cap; < 0 disables. Applied to the randomization pass of
  /// sr/rsd, to the V-solve of rr, and to the schema of rr/rrl.
  std::int64_t step_cap = -1;
};

/// Factory signature: bind a solver to (chain, rewards, initial).
/// The chain reference must outlive the returned solver.
using SolverFactory = std::function<std::unique_ptr<TransientSolver>(
    const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, const SolverConfig& config)>;

/// Register `factory` under `name` (replaces an existing registration of
/// the same name). An empty `description` keeps the name's existing
/// description, so an instrumented replacement of a built-in inherits the
/// original text unless it supplies its own.
void register_solver(const std::string& name, SolverFactory factory,
                     std::string description = "");

/// True if `name` is registered.
[[nodiscard]] bool solver_registered(const std::string& name);

/// All registered names in registration order; the built-ins come first
/// ("sr", "rsd", "rr", "rrl", "krylov").
[[nodiscard]] std::vector<std::string> registered_solvers();

/// The registered names as one comma-separated string (for error/usage
/// messages).
[[nodiscard]] std::string registered_solver_list();

/// One-line description of a registered method (empty if it has none).
[[nodiscard]] std::string solver_description(const std::string& name);

/// Construct a solver by name. Throws contract_error for unknown names
/// (the message lists what is registered). The chain reference must outlive
/// the returned solver.
[[nodiscard]] std::unique_ptr<TransientSolver> make_solver(
    const std::string& name, const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, const SolverConfig& config = {});

// The convenience overload for parsed model files lives in
// io/model_solver.hpp, keeping this core layer independent of io.

}  // namespace rrl
