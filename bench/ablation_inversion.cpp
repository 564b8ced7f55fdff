// Ablation: the paper's Durbin/Crump inversion vs Gaver-Stehfest on the
// actual Section 2.1 transforms.
//
// The paper (Section 2.2) chooses a Fourier-series method with epsilon
// acceleration; a natural question is whether the much simpler
// Gaver-Stehfest rule (real abscissae, no complex arithmetic) would do.
// This bench shows why not: GS accuracy saturates around 1e-6..1e-8 in
// double precision (alternating weights ~10^{n/2}), far from the paper's
// eps = 1e-12, while Crump reaches it with ~100 abscissae.
#include "bench_common.hpp"

#include "laplace/error_control.hpp"
#include "gaver_stehfest.hpp"

int main() {
  using namespace rrl;
  using namespace rrl::bench;

  std::printf(
      "=== Ablation: Durbin/Crump (paper) vs Gaver-Stehfest inversion ===\n"
      "transform: closed-form UR~(s) of the G=20 reliability model\n\n");

  const Raid5Model model = build_raid5_reliability(paper_params(20));
  print_model_banner("reliability / UR(t)", model);
  const auto rewards = model.failure_rewards();
  const auto alpha = model.initial_distribution();

  RrlOptions rrl_opt;
  rrl_opt.epsilon = kEpsilon;
  const RegenerativeRandomizationLaplace solver(
      model.chain, rewards, alpha, model.initial_state, rrl_opt);

  TextTable table({"t (h)", "method", "UR(t)", "|diff vs Crump|",
                   "abscissae"});
  for (const double t : time_sweep()) {
    const auto schema = solver.schema(t);
    const TrrTransform transform(schema);

    // Reference: the paper's method at eps = 1e-12.
    CrumpOptions crump;
    crump.damping = damping_for_bounded(1.0, kEpsilon, 8.0 * t);
    crump.tolerance = kEpsilon / 100.0;
    const CrumpResult reference = crump_invert(
        [&](std::complex<double> s) { return transform.trr(s); }, t, crump);
    table.add_row({fmt_sig(t, 6), "Crump T=8t", fmt_sci(reference.value, 9),
                   "-", std::to_string(reference.abscissae)});

    for (const int order : {10, 14, 18}) {
      const auto gs = gaver_stehfest_invert(
          [&](double s) {
            return transform.trr(std::complex<double>(s, 0.0)).real();
          },
          t, order);
      table.add_row({fmt_sig(t, 6),
                     "Gaver-Stehfest n=" + std::to_string(order),
                     fmt_sci(gs.value, 9),
                     fmt_sci(std::abs(gs.value - reference.value), 3),
                     std::to_string(gs.abscissae)});
    }
  }
  table.print();
  std::printf(
      "\nshape check: GS needs ~7x fewer abscissae but plateaus around\n"
      "1e-6..1e-9 absolute accuracy (order > 16 degrades again); the\n"
      "paper's eps = 1e-12 requirement rules it out, motivating the\n"
      "Durbin/Crump series with epsilon acceleration.\n");
  return 0;
}
