#include "core/regenerative.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "markov/poisson.hpp"
#include "sparse/vector_ops.hpp"
#include "support/contracts.hpp"

namespace rrl {

double ExcursionSeries::va_total(std::size_t k) const {
  double total = 0.0;
  for (const auto& series : va) total += series[k];
  return total;
}

double ExcursionSeries::va_rewarded(std::size_t k,
                                    std::span<const double> f_rewards) const {
  RRL_EXPECTS(f_rewards.size() == va.size());
  double total = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    total += f_rewards[i] * va[i][k];
  }
  return total;
}

namespace {

/// Where an excursion series ends at index k.
enum class ExcursionStop { kContinue, kWithinBudget, kCapped };

/// The truncation rule, shared by a fresh build and a cut so the two stop
/// at the same index: stop once r_max * a(k) * E[(N(Lambda t) - k)^+] is
/// within `eps_budget` (r_max == 0 means every reward is zero and the
/// measure is trivially exact), else once k reaches the step cap.
ExcursionStop excursion_stop(std::int64_t k, double mass,
                             const PoissonDistribution& poisson,
                             double r_max, double eps_budget,
                             std::int64_t step_cap) {
  const double bound =
      r_max == 0.0 ? 0.0 : r_max * mass * poisson.expected_excess(k);
  if (bound <= eps_budget) return ExcursionStop::kWithinBudget;
  if (step_cap >= 0 && k >= step_cap) return ExcursionStop::kCapped;
  return ExcursionStop::kContinue;
}

/// Step one excursion chain until the truncation rule stops it. `mu` is
/// the initial sub-distribution (mass at r for the main chain, the initial
/// distribution restricted to S \ {r} for the primed chain).
ExcursionSeries run_excursion(const RandomizedDtmc& dtmc,
                              std::span<const double> rewards,
                              std::span<const index_t> reward_idx,
                              std::span<const index_t> absorbing,
                              index_t regenerative, std::vector<double> mu,
                              const PoissonDistribution& poisson,
                              double r_max, double eps_budget,
                              std::int64_t step_cap, bool& capped) {
  ExcursionSeries series;
  series.va.resize(absorbing.size());
  const std::size_t n = mu.size();
  std::vector<double> next(n, 0.0);
  // The pass starts from a point mass or a sparse initial vector, so it
  // steps, sums and dots only its live prefix (markov/dtmc.hpp).
  index_t live = leading_support(mu);
  const auto live_sum = [&] {
    return sum(std::span<const double>(mu).first(
        static_cast<std::size_t>(live)));
  };

  double mass = live_sum();
  for (std::int64_t k = 0;; ++k) {
    series.a.push_back(mass);
    series.c.push_back(
        sparse_reward_dot(indices_below(reward_idx, live), rewards, mu));

    const ExcursionStop stop =
        excursion_stop(k, mass, poisson, r_max, eps_budget, step_cap);
    if (stop == ExcursionStop::kWithinBudget) {
      series.exact = (mass == 0.0);
      break;
    }
    if (stop == ExcursionStop::kCapped) {
      capped = true;
      break;
    }

    live = std::max(live, dtmc.reach(live));
    dtmc.step(mu, next, live);
    mu.swap(next);
    // Collect regeneration and absorption mass, then mask those states so
    // mu keeps tracking only the surviving excursion.
    const auto ur = static_cast<std::size_t>(regenerative);
    series.qa.push_back(mu[ur]);
    mu[ur] = 0.0;
    for (std::size_t i = 0; i < absorbing.size(); ++i) {
      const auto uf = static_cast<std::size_t>(absorbing[i]);
      series.va[i].push_back(mu[uf]);
      mu[uf] = 0.0;
    }
    // Recompute the surviving mass from the vector itself: maintaining it
    // incrementally (mass -= returned - absorbed) leaves a constant rounding
    // residue ~1e-17 that would put a floor under a(k) and stall the
    // truncation criterion for large t.
    mass = live_sum();
  }
  return series;
}

/// The series a fresh run_excursion() with this Poisson distribution,
/// budget and cap would produce, cut from `longer`: the same rule walked
/// over longer's a(k). nullopt if `longer` ends before the rule stops.
std::optional<ExcursionSeries> cut_excursion(
    const ExcursionSeries& longer, const PoissonDistribution& poisson,
    double r_max, double eps_budget, std::int64_t step_cap, bool& capped) {
  for (std::int64_t k = 0; k <= longer.truncation(); ++k) {
    const auto uk = static_cast<std::size_t>(k);
    const ExcursionStop stop = excursion_stop(k, longer.a[uk], poisson,
                                              r_max, eps_budget, step_cap);
    if (stop == ExcursionStop::kContinue) continue;
    const auto prefix = [](const std::vector<double>& v, std::size_t n) {
      return std::vector<double>(v.begin(),
                                 v.begin() + static_cast<std::ptrdiff_t>(n));
    };
    ExcursionSeries series;
    series.a = prefix(longer.a, uk + 1);
    series.c = prefix(longer.c, uk + 1);
    series.qa = prefix(longer.qa, uk);
    series.va.reserve(longer.va.size());
    for (const std::vector<double>& v : longer.va) {
      series.va.push_back(prefix(v, uk));
    }
    series.exact =
        stop == ExcursionStop::kWithinBudget && longer.a[uk] == 0.0;
    if (stop == ExcursionStop::kCapped) capped = true;
    return series;
  }
  return std::nullopt;
}

}  // namespace

RegenerativeSchema compute_regenerative_schema(
    const Ctmc& chain, std::span<const double> rewards,
    std::span<const double> initial, index_t regenerative_state, double t,
    const RegenerativeOptions& options) {
  RRL_EXPECTS(t >= 0.0);
  RRL_EXPECTS(options.epsilon > 0.0);
  RRL_EXPECTS(static_cast<index_t>(rewards.size()) == chain.num_states());
  RRL_EXPECTS(regenerative_state >= 0 &&
              regenerative_state < chain.num_states());
  RRL_EXPECTS(!chain.is_absorbing(regenerative_state));
  check_distribution(initial, chain.num_states());

  RegenerativeSchema schema;
  schema.t = t;
  schema.regenerative = regenerative_state;
  schema.absorbing = chain.absorbing_states();
  schema.r_max = max_reward(rewards);
  for (const index_t f : schema.absorbing) {
    // The paper assumes P[X(0) = f_i] = 0.
    RRL_EXPECTS(initial[static_cast<std::size_t>(f)] == 0.0);
    schema.f_rewards.push_back(rewards[static_cast<std::size_t>(f)]);
  }

  const RandomizedDtmc dtmc(chain, options.rate_factor);
  schema.lambda = dtmc.lambda();
  const PoissonDistribution poisson(dtmc.lambda() * t);
  const std::vector<index_t> reward_idx = nonzero_reward_states(rewards);

  schema.alpha_r = initial[static_cast<std::size_t>(regenerative_state)];
  schema.has_primed = schema.alpha_r < 1.0;
  // eps/2 for model truncation, split in half again when both chains exist.
  const double eps_model =
      options.epsilon / (schema.has_primed ? 4.0 : 2.0);

  {
    std::vector<double> mu(static_cast<std::size_t>(chain.num_states()), 0.0);
    mu[static_cast<std::size_t>(regenerative_state)] = 1.0;
    schema.main = run_excursion(dtmc, rewards, reward_idx, schema.absorbing,
                                regenerative_state, std::move(mu), poisson,
                                schema.r_max, eps_model, options.step_cap,
                                schema.capped);
  }
  if (schema.has_primed) {
    std::vector<double> mu(initial.begin(), initial.end());
    mu[static_cast<std::size_t>(regenerative_state)] = 0.0;
    schema.primed = run_excursion(dtmc, rewards, reward_idx, schema.absorbing,
                                  regenerative_state, std::move(mu), poisson,
                                  schema.r_max, eps_model, options.step_cap,
                                  schema.capped);
  }
  return schema;
}

std::optional<RegenerativeSchema> truncate_regenerative_schema(
    const RegenerativeSchema& longer, double t,
    const RegenerativeOptions& options) {
  RRL_EXPECTS(t >= 0.0);
  RRL_EXPECTS(options.epsilon > 0.0);
  RRL_EXPECTS(!longer.main.a.empty());

  RegenerativeSchema schema;
  schema.t = t;
  schema.lambda = longer.lambda;
  schema.alpha_r = longer.alpha_r;
  schema.r_max = longer.r_max;
  schema.regenerative = longer.regenerative;
  schema.absorbing = longer.absorbing;
  schema.f_rewards = longer.f_rewards;
  schema.has_primed = longer.has_primed;

  // The same Poisson distribution and budget split as a fresh build.
  const PoissonDistribution poisson(longer.lambda * t);
  const double eps_model =
      options.epsilon / (schema.has_primed ? 4.0 : 2.0);
  std::optional<ExcursionSeries> main =
      cut_excursion(longer.main, poisson, schema.r_max, eps_model,
                    options.step_cap, schema.capped);
  if (!main) return std::nullopt;
  schema.main = std::move(*main);
  if (schema.has_primed) {
    std::optional<ExcursionSeries> primed =
        cut_excursion(longer.primed, poisson, schema.r_max, eps_model,
                      options.step_cap, schema.capped);
    if (!primed) return std::nullopt;
    schema.primed = std::move(*primed);
  }
  return schema;
}

index_t suggest_regenerative_state(const Ctmc& chain, int iterations) {
  RRL_EXPECTS(iterations >= 1);
  RRL_EXPECTS(chain.max_exit_rate() > 0.0);
  const RandomizedDtmc dtmc(chain);
  const std::vector<index_t> absorbing = chain.absorbing_states();
  const std::size_t n = static_cast<std::size_t>(chain.num_states());
  RRL_EXPECTS(absorbing.size() < n);

  std::vector<double> mu(n, 1.0 / static_cast<double>(n));
  for (const index_t f : absorbing) mu[static_cast<std::size_t>(f)] = 0.0;
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    dtmc.step(mu, next);
    mu.swap(next);
    // Mask absorbed mass and renormalize: the iteration then tracks the
    // occupancy of the chain conditioned on staying in S.
    for (const index_t f : absorbing) mu[static_cast<std::size_t>(f)] = 0.0;
    const double total = sum(mu);
    RRL_ENSURES(total > 0.0);
    for (double& p : mu) p /= total;
  }
  index_t best = -1;
  double best_mass = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chain.is_absorbing(static_cast<index_t>(i))) continue;
    if (mu[i] > best_mass) {
      best_mass = mu[i];
      best = static_cast<index_t>(i);
    }
  }
  RRL_ENSURES(best >= 0);
  return best;
}

}  // namespace rrl
