// The original regenerative randomization method (RR, the paper's refs
// [1, 2]): compute the schema, materialize the truncated transformed model
// V_{K,L}, and solve it by standard randomization with the remaining eps/2
// budget. Kept as a baseline: for large t the V-solve still needs ~Lambda*t
// randomization steps (of a much smaller chain), which is precisely the cost
// the paper's new variant (RRL) eliminates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/regenerative_solver.hpp"
#include "core/standard_randomization.hpp"
#include "core/vmodel.hpp"

namespace rrl {

struct RrOptions {
  /// Total error bound (eps/2 model truncation + eps/2 V-solve).
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate of X.
  double rate_factor = 1.0;
  /// Step caps forwarded to the schema computation and to the V-solve.
  std::int64_t schema_step_cap = 10'000'000;
  std::int64_t vmodel_step_cap = -1;
};

/// RR's object derived from each memoized schema: V_{K,L} and the
/// standard-randomization solver that steps it (rate factor 1, the
/// V-solve step cap). The solver randomizes V on the key's first pass and
/// every later pass reads that DTMC. Neither copyable nor movable: `sr`
/// refers to `model`.
struct VModelPass {
  VModelPass(const RegenerativeSchema& schema, std::int64_t step_cap);

  VModel model;
  StandardRandomization sr;
};

/// Regenerative randomization solver bound to one model + measure.
class RegenerativeRandomization : public RegenerativeSolver {
 public:
  /// Preconditions: as RegenerativeSolver's.
  RegenerativeRandomization(const Ctmc& chain, std::vector<double> rewards,
                            std::vector<double> initial,
                            index_t regenerative_state, RrOptions options = {});

  /// Single-sourced method description (the registry registers built-ins
  /// with this exact text).
  static constexpr std::string_view kDescription =
      "regenerative randomization (explicit V_{K,L} model)";

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rr";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return kDescription;
  }

  /// The V-pass depends only on the compiled schema: requests with the
  /// same effective eps and the same largest time share it (an empty grid
  /// shares with nothing).
  [[nodiscard]] bool shares_pass(const SolveRequest& a,
                                 const SolveRequest& b) const override;

  /// Amortized sweep: ONE schema computed at the largest grid time (valid
  /// for the smaller times because the truncation bound decreases in K for
  /// every fixed t) and ONE standard-randomization pass of V_{K,L} feeding
  /// all grid points — the dominant K model-sized DTMC steps and the
  /// ~Lambda*t_max V-steps are both paid once for the whole grid. One
  /// compile and one V-pass per group of requests that share it: the
  /// group's V_{K,L} is solved by standard randomization at eps/2, every
  /// member a reader of that one iterate (StandardRandomization::
  /// solve_shared), whose vector iterates the workspace buffers carry.
  /// Each report is bitwise its solve_grid report.
  [[nodiscard]] std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& workspace) const override;

 private:
  /// The V-pass answering requests[k] for every k in `readers`
  /// (validated, sharing one compiled schema at effective eps `eps`).
  void run_pass(std::span<const SolveRequest* const> requests,
                std::span<const std::size_t> readers, double eps,
                std::span<SharedResult> results,
                SolveWorkspace& workspace) const;
};

}  // namespace rrl
