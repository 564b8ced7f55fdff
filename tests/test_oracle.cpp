// The eps promise against an independent oracle: every value SR, RSD and
// Krylov return is within eps of the true measure. Agreement between the
// solvers is not enough, since a bug they share would pass it.
//
// The truth is a long-double dense exponential of the Van Loan block
// generator
//
//   B = [[Q, r], [0, 0]],   exp(tB) = [[exp(tQ), Int_0^t exp(sQ) r ds],
//                                      [0,       1                    ]],
//
// so one exponential per t gives TRR(t) = alpha exp(tQ) r and MRR(t) =
// alpha (top-right column) / t, with no quadrature. It shares nothing with
// the solvers: no uniformization, no Poisson weights, no Krylov basis, and
// 64-bit mantissas where they have 53. Each exponential is a Taylor
// polynomial of tB / 2^s with ||tB / 2^s||_inf <= 1/2, then s squarings;
// the chains keep to a few hundred states, so dense is cheap.
//
// RR and RRL are not asserted here: they miss eps on points of this corpus
// today, as does SR on one (kKnownMisses); ROADMAP item 1 lists the cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "io/model_format.hpp"
#include "markov/generator.hpp"
#include "models/raid5.hpp"
#include "models/simple.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

// ---------------------------------------------------------------------------
// The oracle

using Dense = std::vector<long double>;  // row-major, order d

/// a * b. Rows of `a` skip their zeros: the Taylor phase multiplies by the
/// sparse h B, so it costs nnz(B) * d per product instead of d^3.
Dense multiply(const Dense& a, const Dense& b, std::size_t d) {
  Dense c(d * d, 0.0L);
  for (std::size_t i = 0; i < d; ++i) {
    long double* const ci = &c[i * d];
    for (std::size_t k = 0; k < d; ++k) {
      const long double aik = a[i * d + k];
      if (aik == 0.0L) continue;
      const long double* const bk = &b[k * d];
      for (std::size_t j = 0; j < d; ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

/// exp(t b) for a d x d matrix b.
Dense expm(const Dense& b, std::size_t d, long double t) {
  long double norm = 0.0L;  // ||t b||_inf
  for (std::size_t i = 0; i < d; ++i) {
    long double row = 0.0L;
    for (std::size_t j = 0; j < d; ++j) row += std::fabs(t * b[i * d + j]);
    norm = std::max(norm, row);
  }
  int squarings = 0;
  long double h = t;
  while (norm > 0.5L) {
    norm /= 2.0L;
    h /= 2.0L;
    ++squarings;
  }
  // Horner: T = I + hb (I + hb/2 (I + ... (I + hb/K))). With ||hb|| <= 1/2
  // the first omitted term is below 0.5^19 / 19! ~ 2e-23.
  constexpr int kTerms = 18;
  Dense hb(b);
  for (long double& v : hb) v *= h;
  Dense taylor(d * d, 0.0L);
  for (std::size_t i = 0; i < d; ++i) taylor[i * d + i] = 1.0L;
  for (int k = kTerms; k >= 1; --k) {
    taylor = multiply(hb, taylor, d);
    for (long double& v : taylor) v /= static_cast<long double>(k);
    for (std::size_t i = 0; i < d; ++i) taylor[i * d + i] += 1.0L;
  }
  for (int s = 0; s < squarings; ++s) taylor = multiply(taylor, taylor, d);
  return taylor;
}

struct Truth {
  double trr;
  double mrr;
};

/// TRR(t) and MRR(t) of (chain, rewards, initial) for every t.
std::vector<Truth> oracle(const Ctmc& chain, const std::vector<double>& rewards,
                          const std::vector<double>& initial,
                          const std::vector<double>& times) {
  const std::size_t n = static_cast<std::size_t>(chain.num_states());
  const std::size_t d = n + 1;
  Dense b(d * d, 0.0L);
  const CsrMatrix& rates = chain.rates();
  for (std::size_t i = 0; i < n; ++i) {
    for (auto k = rates.row_ptr()[i]; k < rates.row_ptr()[i + 1]; ++k) {
      const auto j = static_cast<std::size_t>(
          rates.col_idx()[static_cast<std::size_t>(k)]);
      const long double rate = rates.values()[static_cast<std::size_t>(k)];
      b[i * d + j] += rate;
      b[i * d + i] -= rate;
    }
    b[i * d + n] = rewards[i];
  }
  std::vector<Truth> truth;
  for (const double t : times) {
    const Dense e = expm(b, d, t);
    long double trr = 0.0L;
    long double integral = 0.0L;
    for (std::size_t i = 0; i < n; ++i) {
      if (initial[i] == 0.0) continue;
      long double row = 0.0L;
      for (std::size_t j = 0; j < n; ++j) row += e[i * d + j] * rewards[j];
      trr += initial[i] * row;
      integral += initial[i] * e[i * d + n];
    }
    truth.push_back({static_cast<double>(trr),
                     static_cast<double>(integral / t)});
  }
  return truth;
}

TEST(Oracle, MatchesTheTwoStateClosedForm) {
  // Up (0) / down (1) with failure rate a and repair rate b: the down
  // probability is a/(a+b) (1 - e^{-(a+b)t}), and its time average
  // a/(a+b) (1 - (1 - e^{-(a+b)t}) / ((a+b)t)).
  const double a = 0.3;
  const double b = 2.5;
  const Ctmc chain = Ctmc::from_transitions(2, {{0, 1, a}, {1, 0, b}});
  const std::vector<double> times{0.01, 0.5, 5.0, 500.0};
  const std::vector<Truth> truth = oracle(chain, {0.0, 1.0}, {1.0, 0.0}, times);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const long double s = static_cast<long double>(a) + b;
    const long double decay = -std::expm1(-s * times[i]);
    const long double trr = a / s * decay;
    const long double mrr = a / s * (1.0L - decay / (s * times[i]));
    EXPECT_NEAR(truth[i].trr, static_cast<double>(trr), 1e-16) << times[i];
    EXPECT_NEAR(truth[i].mrr, static_cast<double>(mrr), 1e-16) << times[i];
  }
}

// ---------------------------------------------------------------------------
// The corpus

struct Case {
  std::string name;
  ModelFile model;
};

ModelFile from_parts(Ctmc chain, std::vector<double> rewards,
                     std::vector<double> initial) {
  ModelFile model;
  model.chain = std::move(chain);
  model.rewards = std::move(rewards);
  model.initial = std::move(initial);
  return model;
}

Case generated(const std::string& family, const GeneratorParams& params) {
  std::string name = family;
  for (const auto& [key, value] : params) name += " " + key + "=" + value;
  return {name, generate_model(family, params)};
}

Case raid5(bool availability) {
  Raid5Params params;
  params.groups = 2;
  Raid5Model m = availability ? build_raid5_availability(params)
                              : build_raid5_reliability(params);
  std::vector<double> rewards = m.failure_rewards();
  std::vector<double> initial = m.initial_distribution();
  return {availability ? "RAID-5 G=2 UA" : "RAID-5 G=2 UR",
          from_parts(std::move(m.chain), std::move(rewards),
                     std::move(initial))};
}

// Random chains with the rewards of the cross-solver sweep: one transient
// state at 0.75 and the absorbing states (when present) at 1, 0.75, ...
Case random_chain(std::uint64_t seed, index_t states, index_t absorbing) {
  Ctmc chain = make_random_ctmc(
      {.num_states = states, .num_absorbing = absorbing, .seed = seed});
  std::vector<double> rewards(static_cast<std::size_t>(states), 0.0);
  rewards[static_cast<std::size_t>(states) / 2] = 0.75;
  for (index_t i = 0; i < absorbing; ++i) {
    rewards[static_cast<std::size_t>(states - 1 - i)] =
        1.0 - 0.25 * static_cast<double>(i);
  }
  std::vector<double> initial(static_cast<std::size_t>(states), 0.0);
  initial[0] = 1.0;
  return {"random seed=" + std::to_string(seed) + " states=" +
              std::to_string(states) + " absorbing=" +
              std::to_string(absorbing),
          from_parts(std::move(chain), std::move(rewards),
                     std::move(initial))};
}

std::vector<Case> corpus() {
  std::vector<Case> cases;
  for (const char* file : {"cluster", "gridcell", "repairable"}) {
    cases.push_back({file, read_model_file(std::string(RRL_EXAMPLE_MODELS) +
                                           "/" + file + ".rrlm")});
  }
  const GeneratorParams kofn{{"n", "3"},        {"k", "2"},
                             {"groups", "3"},   {"lambda", "0.01"},
                             {"mu", "1"}};
  cases.push_back(generated("k_of_n", kofn));
  GeneratorParams kofn_lumped = kofn;
  kofn_lumped.emplace_back("lump", "1");
  cases.push_back(generated("k_of_n", kofn_lumped));
  cases.push_back(generated("k_of_n", {{"n", "4"},
                                       {"k", "3"},
                                       {"groups", "2"},
                                       {"lambda", "0.05"},
                                       {"mu", "0.5"},
                                       {"lump", "1"}}));
  cases.push_back(generated("tiered_repair", {{"tiers", "3"},
                                              {"n", "3"},
                                              {"k", "2"},
                                              {"lambda", "0.05"},
                                              {"mu", "2"},
                                              {"scale", "2"},
                                              {"repairmen", "2"}}));
  cases.push_back(generated("tiered_repair", {{"tiers", "2"},
                                              {"n", "4"},
                                              {"k", "3"},
                                              {"lambda", "0.1"},
                                              {"mu", "1"},
                                              {"lump", "1"}}));
  cases.push_back(generated("queue", {{"capacity", "60"},
                                      {"servers", "2"},
                                      {"arrival", "2"},
                                      {"service", "3"},
                                      {"fail", "0.01"},
                                      {"repair", "1"}}));
  cases.push_back(generated("queue", {{"capacity", "30"},
                                      {"servers", "3"},
                                      {"arrival", "4"},
                                      {"service", "1.5"}}));
  cases.push_back(raid5(true));
  cases.push_back(raid5(false));
  cases.push_back(random_chain(3, 40, 0));
  cases.push_back(random_chain(17, 60, 0));
  cases.push_back(random_chain(29, 40, 2));
  cases.push_back(random_chain(41, 30, 1));
  return cases;
}

// ---------------------------------------------------------------------------
// Every SR, RSD and Krylov point of the corpus within eps of the oracle

// Points that miss eps today, each a ROADMAP item 1 regression case. A known
// miss is checked to still miss, so the fix that mends one must take its
// entry out, and the point is asserted from then on.
struct KnownMiss {
  const char* solver;
  const char* model;
  bool mrr;
  double t;
  double eps;
};
constexpr KnownMiss kKnownMisses[] = {
    // SR's Poisson truncation spends the whole of eps (its error alone reads
    // 0.98 eps), and ~47000 DTMC steps add ~5e-14 of round-off on top: SR
    // reads 0.99999999999895339, the oracle 0.99999999999998879 (1.035 eps).
    {"sr", "random seed=41 states=30 absorbing=1", false, 500.0, 1e-12},
};

bool known_miss(const std::string& solver, const std::string& model,
                bool mrr, double t, double eps) {
  return std::any_of(std::begin(kKnownMisses), std::end(kKnownMisses),
                     [&](const KnownMiss& k) {
                       return solver == k.solver && model == k.model &&
                              mrr == k.mrr && t == k.t && eps == k.eps;
                     });
}

TEST(Oracle, EverySrRsdKrylovPointIsWithinEps) {
  const std::vector<double> times{0.5, 5.0, 50.0, 500.0};
  const std::vector<double> epsilons{1e-8, 1e-10, 1e-12};
  const char* const solvers[] = {"sr", "rsd", "krylov"};
  double worst[3] = {0.0, 0.0, 0.0};  // |error| / eps, per solver
  std::string worst_at[3];
  int solved[3] = {0, 0, 0};

  for (const Case& c : corpus()) {
    const ModelFile& m = c.model;
    ASSERT_LE(m.chain.num_states(), 300) << c.name;
    const std::vector<Truth> truth =
        oracle(m.chain, m.rewards, m.initial, times);
    for (int s = 0; s < 3; ++s) {
      std::unique_ptr<TransientSolver> solver;
      try {
        solver = make_solver(solvers[s], m.chain, m.rewards, m.initial);
      } catch (const contract_error& e) {
        // Only RSD may refuse a chain, and only one with absorbing states.
        EXPECT_STREQ(solvers[s], "rsd") << c.name << ": " << e.what();
        EXPECT_FALSE(m.chain.absorbing_states().empty()) << c.name;
        continue;
      }
      ++solved[s];
      for (const double eps : epsilons) {
        for (const bool mrr : {false, true}) {
          const SolveReport report = solver->solve_grid(
              mrr ? SolveRequest::mrr(times, eps)
                  : SolveRequest::trr(times, eps));
          for (std::size_t i = 0; i < times.size(); ++i) {
            const double want = mrr ? truth[i].mrr : truth[i].trr;
            const double error = std::abs(report.points[i].value - want);
            char where[256];
            std::snprintf(where, sizeof where, "%s %s %s(%g) eps %g",
                          solvers[s], c.name.c_str(), mrr ? "MRR" : "TRR",
                          times[i], eps);
            if (known_miss(solvers[s], c.name, mrr, times[i], eps)) {
              EXPECT_GT(error, eps) << where << " is within eps now: take "
                                    << "it out of kKnownMisses";
              continue;
            }
            EXPECT_LE(error, eps)
                << where << ": got " << report.points[i].value
                << ", oracle " << want;
            if (error / eps > worst[s]) {
              worst[s] = error / eps;
              worst_at[s] = where;
            }
          }
        }
      }
    }
  }
  for (int s = 0; s < 3; ++s) {
    EXPECT_GT(solved[s], 0) << solvers[s];
    std::printf("worst %s error: %.3g eps (%s)\n", solvers[s], worst[s],
                worst_at[s].c_str());
  }
}

}  // namespace
}  // namespace rrl
