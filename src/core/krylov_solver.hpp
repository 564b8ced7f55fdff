// Uniformized-Krylov transient solver: exp(Qt)-action by Arnoldi
// projection with adaptive time-stepping (the Expokit dgexpv scheme,
// Sidje 1998; see also Masetti & Robol's matrix-function treatment of
// performability measures in PAPERS.md).
//
// Randomization methods pay ~Lambda*t vector iterations: on a stiff
// million-state model with Lambda*t ~ 10^5..10^7 the step counts explode
// (the very effect the paper's Tables 1-2 document for SR). This solver
// instead advances the distribution directly through the matrix
// exponential: per substep tau it builds an m-dimensional Krylov basis
// V_m of A = Q^T at the current iterate w (m ~ 30), projects
// exp(tau A) w ~= beta V_{m+1} exp(tau H_bar) e_1 with a DENSE
// (m+2)-order exponential (Pade scaling-and-squaring — m^3 flops,
// nothing against the n-sized matvecs), and adapts tau from Expokit's
// corrected a-posteriori local error estimate. Cost per substep is m+1
// matvecs regardless of Lambda*t, so total matvecs track the transient's
// intrinsic time scale, not its stiffness.
//
// The matvecs reuse the existing uniformization machinery: A v = Q^T v =
// Lambda * (P^T v - v) with P^T the randomized DTMC's CSR gather matrix,
// so every SpMV dispatches through the vectorized kernels
// (sparse/spmv_kernels.hpp), and the compile -> execute split is SR's and
// RSD's (core/randomized_solver.hpp) — export/import carry (Lambda, P^T,
// self-loops) and an imported solver answers bit-identically.
//
// Measures: TRR(t) = r . w(t) is read off whenever a substep lands on a
// grid time (substeps are clipped to grid times, so values are evaluated
// exactly at the requested t, never interpolated). MRR's integral
// Int_0^t r . w is accumulated per accepted substep through the phi_1
// trick: for the block matrix [[H, e_1], [0, 0]],
// exp(tau * [[H, e_1], [0, 0]]) has Int_0^tau exp(sH) e_1 ds as its
// top-right column, so the integral increment is
// beta * (r^T V) Int_0^tau exp(s H) e_1 ds — one more small dense
// exponential per substep, no extra matvecs.
//
// Orthogonalization: modified Gram-Schmidt, in MGS order, with each
// subtraction w -= h_i v_i fused with the next coefficient's dot
// h_{i+1} = v_{i+1} . w into one sweep over w, so each basis vector costs
// one read of w instead of two. Every dot accumulates in 8 fixed lanes:
// entry k goes to lane k mod 8, and the lanes combine in one fixed tree.
// The code is plain C++ with no ISA dispatch, so each rounding depends on
// the entry index alone, and zero entries past the live prefix leave every
// lane unchanged: reports are byte-identical across kernel variants,
// --jobs, shared passes and live prefixes, and (the library builds with
// -ffp-contract=off) across -march builds. The sweep replaced serial
// Neumaier dots, which were bound by add latency (2.0 ns per entry against
// 0.40 ns for 8 lanes on a 7188-entry vector). Not CGS2: classical
// Gram-Schmidt with one reorthogonalization reads the whole basis four
// times per Arnoldi step, against MGS's one fused read; timed on
// eps_sweep's Krylov pairs (one thread, 4-core AVX-512 Xeon) it ran
// 1.2-1.3x faster than the serial path, the fused sweep 2.1-3.5x. A
// breakdown (h_{j+1,j} ~ 0) ends the basis and jumps to the grid time; it
// counts only when the residual it drops, about beta * h_{j+1,j} per unit
// time, fits the error rate below.
//
// Nothing the pass steps depends on the measure, so a TRR and an MRR
// request with the same eps and grid read ONE pass (shares_pass,
// solve_shared): the sweep engine hands such a pair out as one unit and
// the Arnoldi work is paid once.
//
// Error control: the local estimate err_loc is held below
// tau/t * (eps / max(r_max, 1)) per substep. Because exp(Q^T s) is an
// L1-contraction on the probability simplex, local vector errors
// accumulate at most additively over substeps, so the sweep-wide reward
// error stays ~eps for the dependability-style rewards this library
// targets. Unlike SR/RR the bound rests on a (robust, Expokit-standard)
// ESTIMATE, not a proof — tests/test_oracle.cpp pins every point of its
// corpus within eps of a long-double matrix exponential.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/randomized_solver.hpp"
#include "core/solver.hpp"
#include "markov/ctmc.hpp"

namespace rrl {

struct KrylovOptions {
  /// Total error target (per grid point, like every other solver here).
  double epsilon = 1e-12;
  /// Lambda = rate_factor * max exit rate (shared with SR so artifacts
  /// interchange bit-identically for the same config).
  double rate_factor = 1.0;
  /// Optional cap on TOTAL matvecs of a solve_grid call; < 0 disables.
  /// When it fires the remaining grid points report the value at the
  /// last reached time and are flagged `capped`.
  std::int64_t step_cap = -1;
  /// Krylov subspace dimension per substep (clamped to the state count).
  /// Expokit's default 30 balances basis storage ((m+1) n-vectors)
  /// against substep length.
  int max_dim = 30;
};

/// Its matvecs are the part of a solve a lent pool carries; the
/// orthogonalization and the small dense exponentials stay on the caller.
class KrylovSolver : public RandomizedSolver {
 public:
  KrylovSolver(const Ctmc& chain, std::vector<double> rewards,
               std::vector<double> initial, KrylovOptions options = {});

  static constexpr std::string_view kDescription =
      "uniformized-Krylov exp(Qt) action (Arnoldi, adaptive stepping)";

  [[nodiscard]] std::string_view name() const noexcept override {
    return "krylov";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return kDescription;
  }

  /// The iterate, substeps, rejections and step cap depend on eps and the
  /// grid but not on the measure: requests with the same effective eps
  /// and an equal `times` vector share one pass.
  [[nodiscard]] bool shares_pass(const SolveRequest& a,
                                 const SolveRequest& b) const override;

  /// One adaptive pass from t = 0 to the largest grid time per group of
  /// requests that share it; every grid point is evaluated exactly when
  /// the pass crosses it, so the whole grid costs one sweep (same
  /// amortization contract as SR/RSD). TRR reads r . w and MRR the phi_1
  /// integral at each grid time (the phi_1 exponential runs when any
  /// reader is MRR). Each report is bitwise its solve_grid report.
  [[nodiscard]] std::vector<SharedResult> solve_shared(
      std::span<const SolveRequest* const> requests,
      SolveWorkspace& workspace) const override;

 private:
  /// The adaptive pass answering requests[k] for every k in `readers`
  /// (validated, sharing a pass at effective eps `eps`).
  void run_pass(std::span<const SolveRequest* const> requests,
                std::span<const std::size_t> readers, double eps,
                std::span<SharedResult> results,
                SolveWorkspace& workspace) const;

  KrylovOptions options_;
};

}  // namespace rrl
