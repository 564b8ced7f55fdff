#include "core/krylov_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sparse/vector_ops.hpp"
#include "support/stopwatch.hpp"

namespace rrl {
namespace {

// ---- Small dense kernels (matrices of order m+2 <= 32, row-major) ----
//
// Everything here is O(m^3) on a matrix that fits in L1; against the
// n-sized matvecs of the outer iteration it is noise, so clarity beats
// cleverness.

double dense_norm1(const std::vector<double>& a, int d) {
  double best = 0.0;
  for (int c = 0; c < d; ++c) {
    double col = 0.0;
    for (int r = 0; r < d; ++r) col += std::abs(a[static_cast<std::size_t>(r * d + c)]);
    best = std::max(best, col);
  }
  return best;
}

void dense_mul(const std::vector<double>& a, const std::vector<double>& b,
               std::vector<double>& c, int d) {
  for (int r = 0; r < d; ++r) {
    for (int k = 0; k < d; ++k) {
      const double arv = a[static_cast<std::size_t>(r * d + k)];
      if (arv == 0.0) continue;
      for (int col = 0; col < d; ++col) {
        c[static_cast<std::size_t>(r * d + col)] +=
            arv * b[static_cast<std::size_t>(k * d + col)];
      }
    }
  }
}

/// Solve M X = B for X (both d x d, row-major); M is destroyed, B becomes
/// X. Partial-pivoted LU — M = (V - U) of the Pade form is well
/// conditioned after scaling, but pivoting costs nothing at this size.
void dense_solve(std::vector<double>& m, std::vector<double>& b, int d) {
  for (int col = 0; col < d; ++col) {
    int pivot = col;
    double best = std::abs(m[static_cast<std::size_t>(col * d + col)]);
    for (int r = col + 1; r < d; ++r) {
      const double v = std::abs(m[static_cast<std::size_t>(r * d + col)]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    RRL_ENSURES(best > 0.0);  // (V - U) is nonsingular for scaled Pade
    if (pivot != col) {
      for (int c = 0; c < d; ++c) {
        std::swap(m[static_cast<std::size_t>(col * d + c)],
                  m[static_cast<std::size_t>(pivot * d + c)]);
        std::swap(b[static_cast<std::size_t>(col * d + c)],
                  b[static_cast<std::size_t>(pivot * d + c)]);
      }
    }
    const double inv = 1.0 / m[static_cast<std::size_t>(col * d + col)];
    for (int r = col + 1; r < d; ++r) {
      const double f = m[static_cast<std::size_t>(r * d + col)] * inv;
      if (f == 0.0) continue;
      for (int c = col + 1; c < d; ++c) {
        m[static_cast<std::size_t>(r * d + c)] -=
            f * m[static_cast<std::size_t>(col * d + c)];
      }
      for (int c = 0; c < d; ++c) {
        b[static_cast<std::size_t>(r * d + c)] -=
            f * b[static_cast<std::size_t>(col * d + c)];
      }
    }
  }
  for (int r = d - 1; r >= 0; --r) {
    const double inv = 1.0 / m[static_cast<std::size_t>(r * d + r)];
    for (int c = 0; c < d; ++c) {
      double acc = b[static_cast<std::size_t>(r * d + c)];
      for (int k = r + 1; k < d; ++k) {
        acc -= m[static_cast<std::size_t>(r * d + k)] *
               b[static_cast<std::size_t>(k * d + c)];
      }
      b[static_cast<std::size_t>(r * d + c)] = acc * inv;
    }
  }
}

/// In-place exp(A), degree-13 Pade with scaling and squaring (Higham
/// 2005). Exact enough to machine precision for any scaled norm; the
/// projected Hessenberg tau*H can carry a large norm when tau covers a
/// stiff stretch, which scaling absorbs.
void dense_matexp(std::vector<double>& a, int d) {
  static const double kB[14] = {
      64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
      1187353796428800.0,  129060195264000.0,   10559470521600.0,
      670442572800.0,      33522128640.0,       1323241920.0,
      40840800.0,          960960.0,            16380.0,
      182.0,               1.0};
  constexpr double kTheta13 = 5.371920351148152;

  const double nrm = dense_norm1(a, d);
  int squarings = 0;
  if (nrm > kTheta13) {
    squarings = static_cast<int>(std::ceil(std::log2(nrm / kTheta13)));
    const double scale = std::ldexp(1.0, -squarings);
    for (double& v : a) v *= scale;
  }

  const std::size_t dd = static_cast<std::size_t>(d) * static_cast<std::size_t>(d);
  std::vector<double> a2(dd, 0.0), a4(dd, 0.0), a6(dd, 0.0);
  dense_mul(a, a, a2, d);
  dense_mul(a2, a2, a4, d);
  dense_mul(a2, a4, a6, d);

  std::vector<double> w(dd, 0.0), u(dd, 0.0), z(dd, 0.0), v(dd, 0.0);
  // w = a6*(b13 a6 + b11 a4 + b9 a2) + b7 a6 + b5 a4 + b3 a2 + b1 I
  for (std::size_t i = 0; i < dd; ++i) {
    z[i] = kB[13] * a6[i] + kB[11] * a4[i] + kB[9] * a2[i];
  }
  dense_mul(a6, z, w, d);
  for (std::size_t i = 0; i < dd; ++i) {
    w[i] += kB[7] * a6[i] + kB[5] * a4[i] + kB[3] * a2[i];
  }
  for (int r = 0; r < d; ++r) w[static_cast<std::size_t>(r * d + r)] += kB[1];
  // u = a * w  (odd part)
  dense_mul(a, w, u, d);
  // v = a6*(b12 a6 + b10 a4 + b8 a2) + b6 a6 + b4 a4 + b2 a2 + b0 I
  for (std::size_t i = 0; i < dd; ++i) {
    z[i] = kB[12] * a6[i] + kB[10] * a4[i] + kB[8] * a2[i];
  }
  dense_mul(a6, z, v, d);
  for (std::size_t i = 0; i < dd; ++i) {
    v[i] += kB[6] * a6[i] + kB[4] * a4[i] + kB[2] * a2[i];
  }
  for (int r = 0; r < d; ++r) v[static_cast<std::size_t>(r * d + r)] += kB[0];

  // (v - u) F = (v + u)
  for (std::size_t i = 0; i < dd; ++i) {
    const double vi = v[i];
    const double ui = u[i];
    v[i] = vi - ui;  // left-hand side
    u[i] = vi + ui;  // right-hand side, becomes F
  }
  dense_solve(v, u, d);

  for (int s = 0; s < squarings; ++s) {
    std::fill(z.begin(), z.end(), 0.0);
    dense_mul(u, u, z, d);
    u.swap(z);
  }
  a = std::move(u);
}

double norm2(std::span<const double> x) {
  double s = 0.0;
  for (const double v : x) s += v * v;
  return std::sqrt(s);
}

// ---- Orthogonalization sweeps (n-sized: the pass's hot loop) ----
//
// Every Gram-Schmidt dot accumulates in kLanes fixed lanes: entry k goes to
// lane k mod kLanes, and the lanes combine in one fixed tree. Each rounding
// is then fixed by the entry index alone, so a dot reads the same bits
// whatever the compiler vectorizes it into, and zero entries past the live
// prefix would add +-0.0 to lanes that start at +0.0 and never hold -0.0:
// every lane is unchanged, so the prefix's length never shows.
constexpr std::size_t kLanes = 8;

double combine(const double (&lane)[kLanes]) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/// x . y over [0, len).
double lane_dot(const double* x, const double* y, std::size_t len) {
  double lane[kLanes] = {};
  std::size_t k = 0;
  for (; k + kLanes <= len; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) lane[l] += x[k + l] * y[k + l];
  }
  for (std::size_t l = 0; k + l < len; ++l) lane[l] += x[k + l] * y[k + l];
  return combine(lane);
}

/// One modified Gram-Schmidt step fused with the next one's dot: w -= h v
/// over [0, len), returning next . w of the updated w, so w is read once per
/// basis vector instead of twice.
double subtract_then_dot(double h, const double* v, const double* next,
                         double* w, std::size_t len) {
  double lane[kLanes] = {};
  std::size_t k = 0;
  for (; k + kLanes <= len; k += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double x = w[k + l] - h * v[k + l];
      w[k + l] = x;
      lane[l] += next[k + l] * x;
    }
  }
  for (std::size_t l = 0; k + l < len; ++l) {
    const double x = w[k + l] - h * v[k + l];
    w[k + l] = x;
    lane[l] += next[k + l] * x;
  }
  return combine(lane);
}

}  // namespace

KrylovSolver::KrylovSolver(const Ctmc& chain, std::vector<double> rewards,
                           std::vector<double> initial,
                           KrylovOptions options)
    : RandomizedSolver(chain, std::move(rewards), std::move(initial),
                       options.epsilon, options.rate_factor,
                       LentPoolUse::kPart),
      options_(options) {
  RRL_EXPECTS(options_.max_dim >= 1);
}

bool KrylovSolver::shares_pass(const SolveRequest& a,
                               const SolveRequest& b) const {
  return effective_epsilon(a) == effective_epsilon(b) && a.times == b.times;
}

std::vector<SharedResult> KrylovSolver::solve_shared(
    std::span<const SolveRequest* const> requests,
    SolveWorkspace& workspace) const {
  return solve_in_groups(requests, [&](auto readers, double eps, auto out) {
    run_pass(requests, readers, eps, out, workspace);
  });
}

void KrylovSolver::run_pass(std::span<const SolveRequest* const> requests,
                            std::span<const std::size_t> readers, double eps,
                            std::span<SharedResult> results,
                            SolveWorkspace& workspace) const {
  const Stopwatch watch;
  const RandomizedDtmc& dtmc = dtmc_.get();
  // The readers ask for one grid; the first one's stands for all.
  const std::vector<double>& times = requests[readers.front()]->times;
  const std::size_t num_points = times.size();
  bool any_mrr = false;
  for (const std::size_t k : readers) {
    results[k].report = SolveReport::blank(num_points, dtmc.lambda());
    any_mrr = any_mrr || requests[k]->measure == MeasureKind::kMrr;
  }

  if (r_max_ == 0.0) {
    const double seconds = watch.seconds();
    for (const std::size_t k : readers) {
      results[k].report.total.seconds = seconds;
    }
    return;
  }

  // Grid times in ascending order (original order restored through the
  // permutation); the adaptive pass visits each exactly.
  std::vector<std::size_t> order(num_points);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return times[a] < times[b];
                   });
  const double t_end = times[order.back()];

  const std::size_t n = static_cast<std::size_t>(chain_.num_states());
  const double lambda = dtmc.lambda();
  const double anorm = 2.0 * lambda;  // ||Q||_inf <= 2 Lambda
  const int m = std::min<int>(options_.max_dim,
                              static_cast<int>(chain_.num_states()));
  const int ld = m + 2;  // leading dimension of the Hessenberg storage

  // Error budget: err_loc per substep <= tau/t_end * eps_vec, with the L1
  // contraction of the semigroup turning the per-step budget into a
  // sweep-wide ~eps_vec bound on the iterate, hence ~eps on the reward
  // (safety factor 0.5 against estimate slack).
  const double eps_vec = 0.5 * eps / std::max(r_max_, 1.0);
  const double tol_rate = t_end > 0.0 ? eps_vec / t_end : eps_vec;
  constexpr double kDelta = 1.2;   // acceptance slack (Expokit)
  constexpr double kGamma = 0.9;   // step-size safety (Expokit)
  constexpr int kMaxReject = 10;

  AlignedVector<double>& w = workspace.pi(n);
  std::copy(initial_.begin(), initial_.end(), w.begin());
  AlignedVector<double>& step_tmp = workspace.next(n);
  AlignedVector<double>& scratch = workspace.scratch(n);

  // Live-prefix stepping (markov/dtmc.hpp): every vector of the pass is
  // zero from `live` on, and every write, norm and dot covers [0, live)
  // only. One prefix serves the whole pass — it grows before each matvec
  // and never shrinks, so everything written earlier lies inside it and
  // the fresh basis vectors stay zero past it. step_tmp and scratch are
  // only ever read inside the prefix after being written there.
  index_t live = leading_support(initial_);
  std::size_t len = static_cast<std::size_t>(live);
  const auto prefix = [&](const AlignedVector<double>& v) {
    return std::span<const double>(v.data(), len);
  };

  std::int64_t matvecs = 0;
  auto apply_a = [&](const double* in, double* out) {
    live = std::max(live, dtmc.reach(live));
    len = static_cast<std::size_t>(live);
    const std::span<const double> in_span(in, n);
    ThreadPool* const pool = workspace.pooled_spmv(dtmc.leading_nnz(live));
    if (pool != nullptr) {
      dtmc.step(in_span, step_tmp, live, *pool);
    } else {
      dtmc.step(in_span, step_tmp, live);
    }
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = lambda * (step_tmp[i] - in[i]);
    }
    ++matvecs;
  };
  const auto reward_dot = [&](const AlignedVector<double>& v) {
    return sparse_reward_dot(indices_below(reward_idx_, live), rewards_, v);
  };

  std::vector<AlignedVector<double>> basis(static_cast<std::size_t>(m + 1));
  for (auto& v : basis) v.resize(n);
  std::vector<double> hess(static_cast<std::size_t>(ld * ld), 0.0);
  std::vector<double> small;  // per-trial dense exp operand
  std::vector<double> phi;    // per-step phi_1 operand (MRR)

  CompensatedSum integral;  // Int_0^t_now r . w(s) ds  (MRR)
  double t_now = 0.0;
  double tau_suggest = 0.0;
  bool budget_spent = false;  // step cap fired
  bool tolerance_missed = false;

  // Every reader reads grid point `original` off the same pass state.
  auto record = [&](std::size_t original, double t, bool point_capped) {
    for (const std::size_t k : readers) {
      TransientValue& p = results[k].report.points[original];
      p.value = requests[k]->measure == MeasureKind::kTrr
                    ? reward_dot(w)
                    : integral.value() / t;
      p.stats.dtmc_steps = matvecs;
      p.stats.capped = point_capped || tolerance_missed;
    }
  };

  std::size_t next_target = 0;
  while (next_target < num_points) {
    const double t_target = times[order[next_target]];
    if (t_target <= t_now) {
      record(order[next_target], t_target, false);
      ++next_target;
      continue;
    }
    if (budget_spent ||
        (options_.step_cap >= 0 && matvecs + m + 1 > options_.step_cap)) {
      // Out of budget: report the value at the last reached time, capped.
      budget_spent = true;
      record(order[next_target], t_target, true);
      ++next_target;
      continue;
    }

    // ---- One adaptive substep from t_now toward t_target ----
    const double beta = norm2(prefix(w));
    if (beta == 0.0) {  // zero vector is a fixed point
      t_now = t_target;
      continue;
    }

    // Arnoldi on A = Q^T at w: modified Gram-Schmidt, each subtraction
    // fused with the next coefficient's dot.
    std::fill(hess.begin(), hess.end(), 0.0);
    {
      const double inv_beta = 1.0 / beta;
      for (std::size_t i = 0; i < len; ++i) basis[0][i] = w[i] * inv_beta;
    }
    // A breakdown (h_{j+1,j} ~ 0) makes the basis invariant, and the pass
    // jumps to the target in one step. Unless h_{j+1,j} is exactly zero the
    // projection drops a residual of about beta * h_{j+1,j} per unit time,
    // so a breakdown also needs that to fit the pass's error rate: near a
    // steady state a tiny but nonzero h_{j+1,j} would otherwise carry a
    // dropped residual across hundreds of time units.
    const double breakdown_tol = std::min(1e-14 * anorm, tol_rate / beta);
    int dim = m;
    bool breakdown = false;
    for (int j = 0; j < m; ++j) {
      apply_a(basis[static_cast<std::size_t>(j)].data(),
              basis[static_cast<std::size_t>(j + 1)].data());
      AlignedVector<double>& cand = basis[static_cast<std::size_t>(j + 1)];
      double h = lane_dot(basis[0].data(), cand.data(), len);
      for (int i = 0; i < j; ++i) {
        hess[static_cast<std::size_t>(i * ld + j)] = h;
        h = subtract_then_dot(h, basis[static_cast<std::size_t>(i)].data(),
                              basis[static_cast<std::size_t>(i + 1)].data(),
                              cand.data(), len);
      }
      hess[static_cast<std::size_t>(j * ld + j)] = h;
      const AlignedVector<double>& vj = basis[static_cast<std::size_t>(j)];
      for (std::size_t x = 0; x < len; ++x) cand[x] -= h * vj[x];
      const double h_next = norm2(prefix(cand));
      if (h_next <= breakdown_tol) {
        dim = j + 1;
        breakdown = true;
        break;
      }
      hess[static_cast<std::size_t>((j + 1) * ld + j)] = h_next;
      const double inv = 1.0 / h_next;
      for (std::size_t x = 0; x < len; ++x) cand[x] *= inv;
    }

    double avnorm = 0.0;
    if (!breakdown) {
      // ||A v_{m+1}||, the weight of the second-order error term.
      apply_a(basis[static_cast<std::size_t>(m)].data(), scratch.data());
      avnorm = norm2(prefix(scratch));
      hess[static_cast<std::size_t>((m + 1) * ld + m)] = 1.0;
    }

    // First substep: Expokit's a-priori guess from the series remainder.
    if (tau_suggest <= 0.0) {
      const double xm = 1.0 / static_cast<double>(m);
      const double fact =
          std::pow((m + 1) / std::exp(1.0), m + 1) *
          std::sqrt(2.0 * 3.14159265358979323846 * (m + 1));
      tau_suggest = (1.0 / anorm) *
                    std::pow((fact * std::max(tol_rate * t_end, 1e-300)) /
                                 (4.0 * beta * anorm),
                             xm);
    }

    double tau = std::min(tau_suggest, t_target - t_now);
    // Trial loop: evaluate the projected exponential, estimate the local
    // error, shrink tau until accepted.
    const int mx = breakdown ? dim : m + 2;  // operand order
    double err_loc = 0.0;
    int rejections = 0;
    for (;;) {
      if (breakdown) {
        // The basis is invariant (to within the error rate): jump straight
        // to the target.
        tau = t_target - t_now;
      }
      small.assign(static_cast<std::size_t>(mx * mx), 0.0);
      for (int r = 0; r < mx; ++r) {
        for (int c = 0; c < mx; ++c) {
          small[static_cast<std::size_t>(r * mx + c)] =
              tau * hess[static_cast<std::size_t>(r * ld + c)];
        }
      }
      dense_matexp(small, mx);
      if (breakdown) {
        err_loc = 0.0;
        break;
      }
      const double p1 =
          std::abs(beta * small[static_cast<std::size_t>(m * mx)]);
      const double p2 =
          std::abs(beta * small[static_cast<std::size_t>((m + 1) * mx)]) *
          avnorm;
      double xm_l;
      if (p1 > 10.0 * p2) {
        err_loc = p2;
        xm_l = 1.0 / static_cast<double>(m);
      } else if (p1 > p2) {
        err_loc = p1 * p2 / (p1 - p2);
        xm_l = 1.0 / static_cast<double>(m);
      } else {
        err_loc = p1;
        xm_l = m > 1 ? 1.0 / static_cast<double>(m - 1) : 1.0;
      }
      if (err_loc <= kDelta * tau * tol_rate) {
        tau_suggest = kGamma * tau *
                      std::pow(tau * tol_rate / std::max(err_loc, 1e-300),
                               xm_l);
        break;
      }
      if (++rejections > kMaxReject) {
        // Give up shrinking: accept and flag every subsequent value as
        // not guaranteed (mirrors the capped semantics of SR's step cap).
        tolerance_missed = true;
        break;
      }
      tau = kGamma * tau *
            std::pow(tau * tol_rate / std::max(err_loc, 1e-300), xm_l);
    }

    const int mk = breakdown ? dim : m + 1;  // basis vectors in the update
    // MRR: accumulate Int_{t_now}^{t_now+tau} r . w(s) ds BEFORE w is
    // overwritten, via the phi_1 block-matrix identity on the projected
    // operator (header comment). Nothing else reads phi or the integral,
    // so a TRR reader of the same pass sees the steps it would alone.
    if (any_mrr) {
      const int md = mk + 1;
      phi.assign(static_cast<std::size_t>(md * md), 0.0);
      for (int r = 0; r < mk; ++r) {
        for (int c = 0; c < mk; ++c) {
          phi[static_cast<std::size_t>(r * md + c)] =
              tau * hess[static_cast<std::size_t>(r * ld + c)];
        }
      }
      phi[static_cast<std::size_t>(mk)] = tau;  // e_1 column, row 0
      dense_matexp(phi, md);
      CompensatedSum inc;
      for (int j = 0; j < mk; ++j) {
        const double weight = phi[static_cast<std::size_t>(j * md + mk)];
        if (weight == 0.0) continue;
        inc.add(weight * reward_dot(basis[static_cast<std::size_t>(j)]));
      }
      integral.add(beta * inc.value());
    }

    // w <- beta * V_{1..mk} * exp(tau H)(:, 1)
    std::fill_n(scratch.begin(), len, 0.0);
    for (int j = 0; j < mk; ++j) {
      const double f = beta * small[static_cast<std::size_t>(j * mx)];
      if (f == 0.0) continue;
      const AlignedVector<double>& vj = basis[static_cast<std::size_t>(j)];
      for (std::size_t i = 0; i < len; ++i) scratch[i] += f * vj[i];
    }
    std::copy_n(scratch.begin(), len, w.begin());

    t_now = tau >= t_target - t_now ? t_target : t_now + tau;
  }

  const double seconds = watch.seconds();
  for (const std::size_t k : readers) {
    SolveReport& report = results[k].report;
    report.total.dtmc_steps = matvecs;
    report.total.capped = budget_spent || tolerance_missed;
    report.total.seconds = seconds;
  }
}

}  // namespace rrl
