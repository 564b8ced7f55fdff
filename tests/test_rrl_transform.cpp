// Cross-validation of the Section 2.1 closed-form Laplace transform against
// the transform computed directly from the explicit V_{K,L} CTMC:
//   p~(s) = (s I - Q_V^T)^{-1} alpha,   TRR~(s) = r . p~(s),
// solved by dense complex Gaussian elimination. Agreement at many complex
// abscissae proves the closed form implements the V model exactly.
// A bitwise guard holds the evaluator's blocked passes (one power
// recurrence per chain, the product sums read from stored powers, zero and
// duplicate sums skipped) to the values of a single pass carrying all four
// complex<long double> sums and the power. It runs at the block edges of
// seeded random series with every shape of absorbing rewards, on primed
// chains shorter and longer than the main one, on RAID-5 G=20 and G=40
// schemas, and at every abscissa of whole TRR and MRR inversions.
#include "core/rrl_transform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rrl_solver.hpp"
#include "core/vmodel.hpp"
#include "laplace/crump.hpp"
#include "laplace/error_control.hpp"
#include "models/raid5.hpp"
#include "models/simple.hpp"

namespace rrl {
namespace {

using cd = std::complex<double>;

/// Dense complex Gaussian elimination with partial pivoting (test-only).
std::vector<cd> solve_dense(std::vector<std::vector<cd>> a,
                            std::vector<cd> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const cd factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<cd> x(n);
  for (std::size_t i = n; i-- > 0;) {
    cd acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a[i][c] * x[c];
    x[i] = acc / a[i][i];
  }
  return x;
}

/// TRR~(s) of a CTMC computed from first principles.
cd transform_by_linear_solve(const Ctmc& chain,
                             const std::vector<double>& rewards,
                             const std::vector<double>& alpha, cd s) {
  const std::size_t n = static_cast<std::size_t>(chain.num_states());
  // (s I - Q^T) p~ = alpha, with Q = R - diag(exit).
  std::vector<std::vector<cd>> a(n, std::vector<cd>(n, cd(0.0, 0.0)));
  const auto& r = chain.rates();
  const auto row_ptr = r.row_ptr();
  const auto col_idx = r.col_idx();
  const auto values = r.values();
  for (index_t i = 0; i < chain.num_states(); ++i) {
    a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] =
        s + chain.exit_rates()[static_cast<std::size_t>(i)];
    for (std::int64_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      // Q^T entry (j, i) = rate i->j.
      a[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])]
       [static_cast<std::size_t>(i)] -= values[static_cast<std::size_t>(k)];
    }
  }
  std::vector<cd> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = alpha[i];
  const auto p = solve_dense(std::move(a), std::move(b));
  cd acc(0.0, 0.0);
  for (std::size_t i = 0; i < n; ++i) acc += rewards[i] * p[i];
  return acc;
}

void expect_transform_matches(const Ctmc& chain,
                              const std::vector<double>& rewards,
                              const std::vector<double>& alpha,
                              index_t regenerative, double t) {
  const auto schema =
      compute_regenerative_schema(chain, rewards, alpha, regenerative, t, {});
  const VModel v = build_vmodel(schema);
  const TrrTransform transform(schema);
  // Abscissae spanning the contour the inversion uses: a + ik pi/T.
  const double a_damp = 0.02 / t;
  for (const double im : {0.0, 0.1 / t, 3.0 / t, 50.0 / t}) {
    const cd s(a_damp, im);
    const cd closed = transform.trr(s);
    const cd direct =
        transform_by_linear_solve(v.chain, v.rewards, v.initial, s);
    const double scale = std::max(1.0, std::abs(direct));
    EXPECT_NEAR(closed.real(), direct.real(), 1e-10 * scale)
        << "s=(" << s.real() << "," << s.imag() << ")";
    EXPECT_NEAR(closed.imag(), direct.imag(), 1e-10 * scale)
        << "s=(" << s.real() << "," << s.imag() << ")";
  }
}

/// A chain with its measure: the inputs of one schema.
struct Measured {
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> alpha;
  double t = 0.0;
};

Measured two_state_chain() {
  return {make_two_state(2e-3, 0.5).chain, {0.0, 1.0}, {1.0, 0.0}, 25.0};
}

Measured random_irreducible_chain() {
  Measured m{make_random_ctmc({.num_states = 14, .seed = 31}),
             std::vector<double>(14, 0.0), std::vector<double>(14, 0.0),
             10.0};
  m.rewards[3] = 1.0;
  m.rewards[7] = 0.25;
  m.alpha[0] = 1.0;
  return m;
}

Measured absorbing_chain() {
  Measured m{make_random_ctmc(
                 {.num_states = 13, .num_absorbing = 2, .seed = 17}),
             std::vector<double>(13, 0.0), std::vector<double>(13, 0.0),
             15.0};
  m.rewards[11] = 1.0;   // r_{f_1}
  m.rewards[12] = 0.5;   // r_{f_2}
  m.rewards[4] = 0.125;  // and a transient reward
  m.alpha[0] = 1.0;
  return m;
}

Measured primed_chain() {
  Measured m{make_random_ctmc({.num_states = 10, .seed = 41}),
             std::vector<double>(10, 0.0),
             std::vector<double>(10, 0.05),  // alpha_r < 1
             8.0};
  m.rewards[5] = 1.0;
  m.alpha[0] = 1.0 - 0.05 * 9;
  return m;
}

void expect_transform_matches(const Measured& m) {
  expect_transform_matches(m.chain, m.rewards, m.alpha, 0, m.t);
}

TEST(Transform, MatchesDenseSolveIrreducible) {
  expect_transform_matches(two_state_chain());
}

TEST(Transform, MatchesDenseSolveRandomIrreducible) {
  expect_transform_matches(random_irreducible_chain());
}

TEST(Transform, MatchesDenseSolveWithAbsorbingStates) {
  expect_transform_matches(absorbing_chain());
}

TEST(Transform, MatchesDenseSolveWithPrimedChain) {
  expect_transform_matches(primed_chain());
}

/// The transform as one pass per chain evaluates it, all four sums and the
/// theta power carried together in complex<long double>; the library's
/// blocked passes must reproduce its bits.
class SinglePassTransform {
 public:
  explicit SinglePassTransform(const RegenerativeSchema& schema)
      : lambda_(schema.lambda),
        has_primed_(schema.has_primed),
        main_(flatten(schema.main, schema.f_rewards)) {
    if (has_primed_) primed_ = flatten(schema.primed, schema.f_rewards);
  }

  [[nodiscard]] cd trr(cd s) const {
    const cld sl(static_cast<long double>(s.real()),
                 static_cast<long double>(s.imag()));
    const long double lambda = static_cast<long double>(lambda_);
    const cld s_plus_lambda = sl + lambda;
    const cld theta = lambda / s_plus_lambda;

    const Sums m = accumulate(main_, theta);
    const long double aK = static_cast<long double>(main_.a.back());
    const cld B = sl * m.a + lambda * m.va + aK * lambda * m.top_power;
    cld A(1.0L, 0.0L);
    cld primed_terms(0.0L, 0.0L);
    if (has_primed_) {
      const Sums p = accumulate(primed_, theta);
      const long double apL = static_cast<long double>(primed_.a.back());
      A = cld(1.0L, 0.0L) - (sl / s_plus_lambda) * p.a -
          (lambda / s_plus_lambda) * p.va - apL * p.top_power * theta;
      primed_terms = p.c / s_plus_lambda + theta / sl * p.rv;
    }
    const cld p0 = A / B;
    const cld value = (m.c + lambda / sl * m.rv) * p0 + primed_terms;
    return {static_cast<double>(value.real()),
            static_cast<double>(value.imag())};
  }

 private:
  using cld = std::complex<long double>;
  struct Series {
    std::vector<double> a, c, vat, rv;
  };
  struct Sums {
    cld a, c, va, rv, top_power;
  };

  static Series flatten(const ExcursionSeries& series,
                        std::span<const double> f_rewards) {
    Series out{series.a, series.c, {}, {}};
    for (std::size_t k = 0; k < series.qa.size(); ++k) {
      out.vat.push_back(series.va_total(k));
      out.rv.push_back(series.va_rewarded(k, f_rewards));
    }
    return out;
  }

  static Sums accumulate(const Series& series, cld theta) {
    Sums sums;
    cld power(1.0L, 0.0L);
    const std::size_t kmax = series.a.size() - 1;
    for (std::size_t k = 0; k <= kmax; ++k) {
      sums.a += static_cast<long double>(series.a[k]) * power;
      sums.c += static_cast<long double>(series.c[k]) * power;
      if (k < kmax) {
        sums.va += static_cast<long double>(series.vat[k]) * power;
        sums.rv += static_cast<long double>(series.rv[k]) * power;
        power *= theta;
      }
    }
    sums.top_power = power;
    return sums;
  }

  double lambda_;
  bool has_primed_;
  Series main_;
  Series primed_;
};

/// Counts `got` in `mismatches` when its bytes differ from `want`'s, and
/// reports the first mismatch of a run.
void expect_same_bits(cd got, cd want, cd s, int& mismatches) {
  if (std::memcmp(&got, &want, sizeof(cd)) != 0 && ++mismatches == 1) {
    ADD_FAILURE() << "first mismatch at s=(" << s.real() << "," << s.imag()
                  << "): " << got << " vs " << want;
  }
}

/// Compares trr() and cumulative() byte for byte (as complex<double>) with
/// the single pass at the first 100 Crump abscissae of the TRR and MRR
/// inversions at t = 1, 100 and 1e5.
void expect_single_pass_bits(const RegenerativeSchema& schema) {
  const TrrTransform transform(schema);
  const SinglePassTransform reference(schema);
  const double eps = 1e-12;
  int compared = 0;
  int mismatches = 0;
  for (const double t : {1.0, 100.0, 1e5}) {
    SCOPED_TRACE("t = " + std::to_string(t));
    const double T = 8.0 * t;
    for (const double damping :
         {damping_for_bounded(schema.r_max, eps, T),
          damping_for_time_linear(schema.r_max, eps, t, T)}) {
      for (int k = 0; k < 100; ++k) {
        const cd s(damping, static_cast<double>(k) * M_PI / T);
        const cd want_trr = reference.trr(s);
        expect_same_bits(transform.trr(s), want_trr, s, mismatches);
        expect_same_bits(transform.cumulative(s), want_trr / s, s,
                         mismatches);
        compared += 2;
      }
    }
  }
  EXPECT_EQ(compared, 1200);
  EXPECT_EQ(mismatches, 0);
}

/// A chain of `steps` terms from `rng` with `absorbing` absorbing states:
/// a(k) non-increasing from `mass`, c(k) <= a(k), and qa and the va series
/// sharing what leaves.
ExcursionSeries random_series(std::size_t steps, double mass,
                              std::size_t absorbing, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  ExcursionSeries series;
  series.a.push_back(mass);
  for (std::size_t k = 1; k <= steps; ++k) {
    series.a.push_back(series.a.back() * (1.0 - 0.01 * unit(rng)));
  }
  series.va.resize(absorbing);
  for (std::size_t k = 0; k <= steps; ++k) {
    series.c.push_back(series.a[k] * unit(rng));
    if (k == steps) break;
    series.qa.push_back(series.a[k] * 0.005 * unit(rng));
    for (std::vector<double>& va : series.va) {
      va.push_back(series.a[k] * 0.002 * unit(rng));
    }
  }
  return series;
}

/// The rewards of the absorbing states of a synthetic schema, one entry per
/// state. Each set gives the evaluator's product sums another shape:
/// va_total and rv all zero (no absorbing state), rv all zero, rv equal to
/// va_total term for term (every reward 1), and four distinct series.
const std::vector<std::vector<double>> kAbsorbingRewards = {
    {}, {0.0, 0.0}, {1.0, 1.0}, {1.0, 0.25}};

/// A schema whose main chain has K terms (and whose primed chain has L
/// terms, if given) of seeded random series: lengths at accumulate()'s block
/// edges, which no model's truncation rule picks on purpose.
RegenerativeSchema synthetic_schema(std::size_t K,
                                    std::optional<std::size_t> L,
                                    const std::vector<double>& f_rewards,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RegenerativeSchema schema;
  schema.lambda = 3.0;
  schema.r_max = 1.0;
  for (std::size_t i = 0; i < f_rewards.size(); ++i) {
    schema.absorbing.push_back(static_cast<index_t>(i + 1));
  }
  schema.f_rewards = f_rewards;
  schema.alpha_r = L ? 0.6 : 1.0;
  schema.main = random_series(K, 1.0, f_rewards.size(), rng);
  if (L) {
    schema.has_primed = true;
    schema.primed =
        random_series(*L, 1.0 - schema.alpha_r, f_rewards.size(), rng);
  }
  return schema;
}

/// "K = .., L = .., absorbing rewards { .. }": one synthetic schema.
std::string describe(std::size_t K, std::optional<std::size_t> L,
                     const std::vector<double>& f_rewards) {
  std::ostringstream out;
  out << "K = " << K;
  if (L) out << ", L = " << *L;
  out << ", absorbing rewards {";
  for (const double r : f_rewards) out << ' ' << r;
  out << " }";
  return out.str();
}

RegenerativeSchema schema_of(const Measured& m) {
  return compute_regenerative_schema(m.chain, m.rewards, m.alpha, 0, m.t, {});
}

RegenerativeSchema raid5_schema(const Raid5Model& m) {
  RegenerativeOptions options;
  options.epsilon = 1e-12;
  return compute_regenerative_schema(m.chain, m.failure_rewards(),
                                     m.initial_distribution(),
                                     m.initial_state, 1e5, options);
}

TEST(Transform, BlockedPassesMatchSinglePassBitwise) {
  for (const Measured& m : {two_state_chain(), random_irreducible_chain(),
                            absorbing_chain(), primed_chain()}) {
    expect_single_pass_bits(schema_of(m));
  }
  EXPECT_TRUE(schema_of(primed_chain()).has_primed);
}

TEST(Transform, BlockedPassesMatchSinglePassBitwiseAtBlockEdges) {
  constexpr std::size_t B = TrrTransform::kBlock;
  std::uint64_t seed = 1;
  for (const std::vector<double>& f_rewards : kAbsorbingRewards) {
    for (const std::size_t K : {std::size_t{1}, B - 1, B, B + 1, 2 * B + 1}) {
      SCOPED_TRACE(describe(K, std::nullopt, f_rewards));
      const RegenerativeSchema schema =
          synthetic_schema(K, std::nullopt, f_rewards, seed++);
      ASSERT_EQ(schema.K(), static_cast<std::int64_t>(K));
      expect_single_pass_bits(schema);
    }
  }
}

TEST(Transform, BlockedPassesMatchSinglePassBitwiseWithPrimedChain) {
  // A primed chain shorter than the main one, and one longer; each chain
  // walks its own blocks from its first term.
  constexpr std::size_t B = TrrTransform::kBlock;
  std::uint64_t seed = 101;
  for (const std::vector<double>& f_rewards : kAbsorbingRewards) {
    for (const auto& [K, L] :
         {std::pair{B + 1, B - 1}, std::pair{B, 2 * B + 1}}) {
      SCOPED_TRACE(describe(K, L, f_rewards));
      const RegenerativeSchema schema =
          synthetic_schema(K, L, f_rewards, seed++);
      ASSERT_EQ(schema.K(), static_cast<std::int64_t>(K));
      ASSERT_EQ(schema.L(), static_cast<std::int64_t>(L));
      expect_single_pass_bits(schema);
    }
  }
}

TEST(Transform, BlockedPassesMatchSinglePassBitwiseOnRaid5) {
  // The paper's arrays at their longest horizon: K ~ 3157 terms at G = 20
  // and K ~ 5956 (paper_rrl's longest series) at G = 40.
  for (const auto& [groups, min_K] :
       {std::pair{20, 3000}, std::pair{40, 5000}}) {
    Raid5Params params;
    params.groups = groups;
    for (const Raid5Model& m : {build_raid5_availability(params),
                                build_raid5_reliability(params)}) {
      const RegenerativeSchema schema = raid5_schema(m);
      SCOPED_TRACE("G = " + std::to_string(groups) +
                   ", K = " + std::to_string(schema.K()));
      EXPECT_GT(schema.K(), min_K);
      expect_single_pass_bits(schema);
    }
  }
}

TEST(Transform, BlockedPassesMatchSinglePassBitwiseAtKZero) {
  // A horizon so short that no step is needed: the series is a(0), c(0),
  // and the rewarded regenerative state makes TRR~(s) = 1/(s + Lambda).
  Measured m = two_state_chain();
  m.rewards = {1.0, 0.5};
  m.t = 1e-15;
  const RegenerativeSchema schema = schema_of(m);
  ASSERT_EQ(schema.K(), 0);
  ASSERT_GT(schema.main.c[0], 0.0);
  expect_single_pass_bits(schema);
}

TEST(Transform, BlockedPassesMatchSinglePassThroughWholeInversions) {
  // RRL's TRR and MRR inversions on the paper's G = 20 UA grid at eps
  // 1e-12, with the options RRL gives crump_invert: every abscissa each
  // inversion evaluates is compared byte for byte with the single pass, and
  // each inversion is the solver's (same abscissae, same value bits).
  const Raid5Model m = build_raid5_availability(Raid5Params{});
  const RegenerativeSchema schema = raid5_schema(m);  // t = 1e5
  const TrrTransform transform(schema);
  const SinglePassTransform reference(schema);
  const RegenerativeRandomizationLaplace solver(
      m.chain, m.failure_rewards(), m.initial_distribution(),
      m.initial_state);
  const RrlOptions options;
  const double eps = options.epsilon;
  const std::vector<double> times = {1.0, 10.0, 1e2, 1e3, 1e4, 1e5};
  int evaluations = 0;
  int mismatches = 0;
  for (const MeasureKind kind : {MeasureKind::kTrr, MeasureKind::kMrr}) {
    const bool mrr = kind == MeasureKind::kMrr;
    const SolveReport report = solver.solve_grid(
        mrr ? SolveRequest::mrr(times) : SolveRequest::trr(times));
    for (std::size_t i = 0; i < times.size(); ++i) {
      const double t = times[i];
      SCOPED_TRACE((mrr ? "MRR t = " : "TRR t = ") + std::to_string(t));
      CrumpOptions crump;
      crump.t_multiplier = options.t_multiplier;
      crump.max_terms = options.max_terms;
      crump.required_hits = options.required_hits;
      const double T = crump.t_multiplier * t;
      crump.damping = mrr ? damping_for_time_linear(schema.r_max, eps, t, T)
                          : damping_for_bounded(schema.r_max, eps, T);
      crump.tolerance = (mrr ? t : 1.0) * eps / 100.0;
      int calls = 0;
      const CrumpResult res = crump_invert(
          [&](cd s) {
            ++calls;
            const cd want_trr = reference.trr(s);
            const cd got = mrr ? transform.cumulative(s) : transform.trr(s);
            expect_same_bits(got, mrr ? want_trr / s : want_trr, s,
                             mismatches);
            return got;
          },
          t, crump);
      evaluations += calls;
      EXPECT_TRUE(res.converged);
      EXPECT_EQ(calls, res.abscissae);
      const TransientValue& point = report.points[i];
      EXPECT_EQ(point.stats.abscissae, res.abscissae);
      const double value = mrr ? res.value / t : res.value;
      EXPECT_EQ(std::memcmp(&point.value, &value, sizeof(double)), 0)
          << point.value << " vs " << value;
    }
  }
  EXPECT_GT(evaluations, 12 * 8);
  EXPECT_EQ(mismatches, 0);
}

TEST(Transform, ConjugateSymmetry) {
  // TRR~(conj(s)) = conj(TRR~(s)) since TRR(t) is real.
  const auto m = make_two_state(1e-3, 1.0);
  const std::vector<double> rewards = {0.0, 1.0};
  const std::vector<double> alpha = {1.0, 0.0};
  const auto schema =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 100.0, {});
  const TrrTransform tr(schema);
  const cd s(0.01, 0.3);
  const cd a = tr.trr(s);
  const cd b = tr.trr(std::conj(s));
  EXPECT_NEAR(a.real(), b.real(), 1e-15);
  EXPECT_NEAR(a.imag(), -b.imag(), 1e-15);
}

TEST(Transform, SmallSLimitIsSteadyState) {
  // s * TRR~(s) -> TRR(inf) as s -> 0 (final value theorem); for the
  // two-state model TRR(inf) = lambda/(lambda+mu).
  const auto m = make_two_state(1e-3, 1.0);
  const std::vector<double> rewards = {0.0, 1.0};
  const std::vector<double> alpha = {1.0, 0.0};
  const auto schema =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 1e7, {});
  const TrrTransform tr(schema);
  const cd s(1e-9, 0.0);
  const cd limit = s * tr.trr(s);
  EXPECT_NEAR(limit.real(), 1e-3 / (1e-3 + 1.0), 1e-9);
}

TEST(Transform, CumulativeIsTrrOverS) {
  const auto m = make_two_state(1e-3, 1.0);
  const std::vector<double> rewards = {0.0, 1.0};
  const std::vector<double> alpha = {1.0, 0.0};
  const auto schema =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 100.0, {});
  const TrrTransform tr(schema);
  const cd s(0.05, 0.4);
  const cd lhs = tr.cumulative(s) * s;
  const cd rhs = tr.trr(s);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-15);
}

}  // namespace
}  // namespace rrl
