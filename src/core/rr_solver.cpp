#include "core/rr_solver.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include <cstring>

#include "core/compiled_artifact.hpp"
#include "core/grid_sweep.hpp"
#include "core/standard_randomization.hpp"
#include "core/vmodel.hpp"
#include "markov/dtmc.hpp"
#include "sparse/aligned_alloc.hpp"
#include "sparse/block.hpp"
#include "sparse/spmv_kernels.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace rrl {

RegenerativeRandomization::RegenerativeRandomization(
    const Ctmc& chain, std::vector<double> rewards,
    std::vector<double> initial, index_t regenerative_state,
    RrOptions options)
    : chain_(chain),
      rewards_(std::move(rewards)),
      initial_(std::move(initial)),
      regenerative_(regenerative_state),
      options_(options) {
  RRL_EXPECTS(options_.epsilon > 0.0);
  RRL_EXPECTS(static_cast<index_t>(rewards_.size()) == chain.num_states());
  check_distribution(initial_, chain.num_states());
}

RegenerativeSchema RegenerativeRandomization::schema(double t) const {
  return compute_regenerative_schema(chain_, rewards_, initial_,
                                     regenerative_, t,
                                     schema_options(options_.epsilon));
}

RegenerativeOptions RegenerativeRandomization::schema_options(
    double eps) const {
  RegenerativeOptions opts;
  opts.epsilon = eps;
  opts.rate_factor = options_.rate_factor;
  opts.step_cap = options_.schema_step_cap;
  return opts;
}

std::shared_ptr<const CompiledSchema> RegenerativeRandomization::compiled_for(
    double t, double eps) const {
  const RegenerativeOptions opts = schema_options(eps);
  return schema_cache_.get(
      t, eps, /*want_transform=*/false, /*want_vmodel=*/true,
      [&] {
        return compute_regenerative_schema(chain_, rewards_, initial_,
                                           regenerative_, t, opts);
      },
      [&](const RegenerativeSchema& longer) {
        return truncate_regenerative_schema(longer, t, opts);
      });
}

void RegenerativeRandomization::export_compiled(
    CompiledArtifact& artifact) const {
  for (const SchemaCache::Entry& e : schema_cache_.snapshot()) {
    artifact.schemas.push_back(
        ArtifactSchemaEntry{e.t, e.eps, e.compiled->schema});
  }
}

void RegenerativeRandomization::import_compiled(
    const CompiledArtifact& artifact) {
  for (const ArtifactSchemaEntry& e : artifact.schemas) {
    // Structural sanity only (identity matching is the caller's job): a
    // schema for another regenerative state or with an empty series can
    // never be ours.
    if (e.schema.regenerative != regenerative_ || e.schema.main.a.empty()) {
      continue;
    }
    schema_cache_.seed(e.t, e.eps, e.schema, /*want_transform=*/false,
                       /*want_vmodel=*/true);
  }
}

void RegenerativeRandomization::precompile(
    const SolveRequest& request) const {
  const double eps = validated_epsilon(request, options_.epsilon);
  (void)compiled_for(
      *std::max_element(request.times.begin(), request.times.end()), eps);
}

TransientValue RegenerativeRandomization::trr(double t) const {
  RRL_EXPECTS(t >= 0.0);
  return solve_point(t, MeasureKind::kTrr);
}

TransientValue RegenerativeRandomization::mrr(double t) const {
  RRL_EXPECTS(t > 0.0);
  return solve_point(t, MeasureKind::kMrr);
}

SolveReport RegenerativeRandomization::solve_grid(
    const SolveRequest& request, SolveWorkspace& workspace) const {
  const Stopwatch watch;
  const double eps = validated_epsilon(request, options_.epsilon);
  const std::size_t m = request.times.size();

  // One schema for the whole sweep, computed at the largest time: for
  // t < t_max the truncation bound at K(t_max) is only smaller
  // (E[(N(Lambda t) - K)^+] decreases in K), so the longer series stays
  // within budget at every requested time. The compiled artifact (schema +
  // materialized V_{K,L}) is memoized per (t_max, eps), and a new key is
  // cut from the longest memoized series when it fits — repeated sweeps
  // (the other measure, another grid resolution or eps, the study
  // subsystem's shared solvers) pay the K model-sized steps once.
  const double t_max =
      *std::max_element(request.times.begin(), request.times.end());
  const auto compiled = compiled_for(t_max, eps);
  const RegenerativeSchema& sch = compiled->schema;
  const VModel& vmodel = *compiled->vmodel;

  // One standard-randomization pass of V_{K,L} serves every grid point,
  // with the remaining eps/2 budget.
  SrOptions sr;
  sr.epsilon = eps / 2.0;
  sr.rate_factor = 1.0;
  sr.step_cap = options_.vmodel_step_cap;
  const StandardRandomization inner(vmodel.chain, vmodel.rewards,
                                    vmodel.initial, sr);
  SolveRequest inner_request = request;
  inner_request.epsilon = eps / 2.0;
  // The V-model is (much) smaller than X, so reusing the caller's buffers
  // just resizes them down for the inner pass.
  const SolveReport inner_report = inner.solve_grid(inner_request, workspace);

  SolveReport report;
  report.points.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    TransientValue& p = report.points[i];
    const TransientValue& v = inner_report.points[i];
    p.value = v.value;
    p.stats.dtmc_steps = sch.dtmc_steps();
    p.stats.vmodel_steps = v.stats.dtmc_steps;
    p.stats.lambda = sch.lambda;
    p.stats.capped = sch.capped || v.stats.capped;
  }
  report.total.dtmc_steps = sch.dtmc_steps();
  report.total.vmodel_steps = inner_report.total.dtmc_steps;
  report.total.lambda = sch.lambda;
  report.total.capped = sch.capped || inner_report.total.capped;
  report.total.seconds = watch.seconds();
  return report;
}

// ---------------------------------------------------------------------------
// Batched V-solve.

namespace {

/// All items of one distinct compiled schema: ONE V-model, ONE d(n)
/// stream, one Poisson-mixture sweep per item.
struct VGroup {
  const RegenerativeRandomization* solver = nullptr;
  double t_max = 0.0;
  double eps = 0.0;
  std::vector<std::size_t> members;  ///< indices into `items`

  std::shared_ptr<const CompiledSchema> compiled;
  std::optional<RandomizedDtmc> dtmc;  // built once the group compiles
  std::vector<index_t> reward_idx;
  double r_max = 0.0;
  /// One sweep per member, same order as `members`.
  std::vector<std::unique_ptr<GridSweep>> sweeps;
  std::int64_t pass_steps = 0;
  bool zero_rewards = false;  ///< V-model rewards all zero: values are 0
  double compile_seconds = 0.0;  ///< this group's own compile phase
};

}  // namespace

void solve_rr_batch(std::span<const RrBatchItem> items, ThreadPool* pool) {
  const bool pool_usable = pool != nullptr && pool->num_threads() > 1 &&
                           !ThreadPool::in_parallel_region();

  // --- Group the items by compiled schema (solver, t_max, effective eps),
  // validating each request exactly as solve_grid() would (same
  // preconditions, same contract_error on violation — recorded in the
  // item's error slot, per-scenario isolation).
  std::vector<VGroup> groups;
  std::map<std::tuple<const void*, double, double>, std::size_t> index;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const RrBatchItem& item = items[i];
    RRL_EXPECTS(item.solver != nullptr && item.request != nullptr &&
                item.report != nullptr && item.error != nullptr);
    try {
      const SolveRequest& request = *item.request;
      // The canonical entry validation — the same call solve_grid makes,
      // so batched and per-scenario behavior cannot drift.
      const double eps = TransientSolver::validated_epsilon(
          request, item.solver->options().epsilon);
      const double t_max =
          *std::max_element(request.times.begin(), request.times.end());
      const auto key = std::make_tuple(
          static_cast<const void*>(item.solver), t_max, eps);
      const auto [it, inserted] = index.emplace(key, groups.size());
      if (inserted) {
        VGroup g;
        g.solver = item.solver;
        g.t_max = t_max;
        g.eps = eps;
        groups.push_back(std::move(g));
      }
      groups[it->second].members.push_back(i);
    } catch (const std::exception& e) {
      *item.error = e.what()[0] != '\0' ? e.what() : "unknown error";
    }
  }

  // --- Compile each group once (memoized in the solver, so a group whose
  // schema another sweep already built pays nothing) and build the
  // members' Poisson-mixture sweeps with the inner pass's exact truncation
  // rule. A compile failure fails every member of the group — identical to
  // what each per-scenario solve would have reported. Groups compile
  // concurrently on the pool (they touch disjoint member slots), leaders
  // first (LeaderSchedule): each solver's most demanding group steps its
  // schema while that solver's other groups wait to cut theirs from it,
  // and different solvers' leaders build side by side.
  const auto compile_group = [&items](VGroup& g) {
    const Stopwatch compile_watch;
    try {
      g.compiled = g.solver->compiled_for(g.t_max, g.eps);
      const VModel& vmodel = *g.compiled->vmodel;
      g.r_max = max_reward(vmodel.rewards);
      g.zero_rewards = g.r_max == 0.0;
      if (!g.zero_rewards) {
        g.dtmc.emplace(vmodel.chain, 1.0);
        g.reward_idx = nonzero_reward_states(vmodel.rewards);
        g.sweeps.reserve(g.members.size());
        for (const std::size_t i : g.members) {
          const SolveRequest& request = *items[i].request;
          const double inner_eps = g.eps / 2.0;
          auto sweep = std::make_unique<GridSweep>(
              g.dtmc->lambda(), request.times, request.measure,
              [&](const PoissonDistribution& poisson) {
                return sr_truncation_point(poisson, request.measure,
                                           inner_eps / g.r_max);
              },
              g.solver->options().vmodel_step_cap);
          g.pass_steps = std::max(g.pass_steps, sweep->pass_steps());
          g.sweeps.push_back(std::move(sweep));
        }
      }
    } catch (const std::exception& e) {
      const std::string message =
          e.what()[0] != '\0' ? e.what() : "unknown error";
      for (const std::size_t i : g.members) *items[i].error = message;
      g.members.clear();
      g.sweeps.clear();
    }
    g.compile_seconds = compile_watch.seconds();
  };
  std::vector<CompileDemand> demands;
  demands.reserve(groups.size());
  for (const VGroup& g : groups) {
    demands.push_back(CompileDemand{g.solver, g.eps, g.t_max,
                                    g.solver->chain().num_states()});
  }
  const LeaderSchedule schedule(demands);
  if (pool_usable && groups.size() > 1) {
    pool->parallel_for(schedule.size(), [&](std::size_t k, std::size_t) {
      const std::size_t b = schedule[k];
      schedule.run(b, [&] { compile_group(groups[b]); });
    });
  } else {
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      compile_group(groups[schedule[k]]);
    }
  }

  // Drop groups with nothing to step (compile failures, zero-reward
  // V-models — the latter keep their members, whose values are zero).
  std::vector<VGroup*> live;
  for (VGroup& g : groups) {
    if (!g.members.empty() && !g.zero_rewards) live.push_back(&g);
  }

  // --- Execute phase. Starts here: the SpMM classes below are execute
  // work, timed into the same phase as the fused/parallel/serial
  // schedules.
  const Stopwatch execute_watch;

  // Per-scenario isolation extends into the execute phase: a group whose
  // pass fails (allocation failure on a huge V-model, a contract
  // violation) fails ITS members and the rest of the batch — including
  // the unrelated scenarios still queued behind run_sweep — completes,
  // exactly as the per-scenario path's per-slot catch would have
  // arranged.
  const auto fail_members = [&items](const VGroup& g,
                                     const std::exception& e) {
    const std::string message =
        e.what()[0] != '\0' ? e.what() : "unknown error";
    for (const std::size_t i : g.members) *items[i].error = message;
  };

  // --- SpMM classes: distinct groups whose V stepping matrices are
  // bitwise EQUAL step jointly, each group one column of a dense block,
  // each step one multi-RHS product (sparse/block.hpp). Equal V matrices
  // arise naturally from exactly-terminating excursion processes (a(k)
  // hits 0, so K saturates): the same solver queried at different t_max
  // compiles distinct groups with the identical truncated V_{K,L}. Unlike
  // the fused block-diagonal path below — which streams every group's
  // matrix once per step — the class streams ONE matrix for all its
  // groups. Equality is bitwise (memcmp of the CSR arrays), so each
  // column's products are exactly the products its own matrix would have
  // produced and the kernel contract keeps the pass bit-identical to the
  // group's serial pass. Classes with a single member fall through to the
  // fused/group-parallel/serial schedules unchanged.
  if (spmm_enabled() && live.size() > 1) {
    const auto same_matrix = [](const CsrMatrix& a, const CsrMatrix& b) {
      if (a.rows() != b.rows() || a.cols() != b.cols() ||
          a.nnz() != b.nnz()) {
        return false;
      }
      const auto bytes_equal = [](const auto& x, const auto& y) {
        return std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
      };
      return bytes_equal(a.row_ptr(), b.row_ptr()) &&
             bytes_equal(a.col_idx(), b.col_idx()) &&
             bytes_equal(a.values(), b.values());
    };
    std::vector<std::vector<VGroup*>> classes;
    for (VGroup* g : live) {
      const CsrMatrix& pt = g->dtmc->transition_transposed();
      auto it = std::find_if(
          classes.begin(), classes.end(), [&](const auto& cls) {
            return same_matrix(
                cls.front()->dtmc->transition_transposed(), pt);
          });
      if (it == classes.end()) {
        classes.push_back({g});
      } else {
        it->push_back(g);
      }
    }
    const auto run_class_spmm = [&](std::vector<VGroup*>& cls) {
      try {
        // Longest pass first: retired columns form a suffix and whole
        // tiles drop out of the product.
        std::stable_sort(cls.begin(), cls.end(),
                         [](const VGroup* a, const VGroup* b) {
                           return a->pass_steps > b->pass_steps;
                         });
        const CsrMatrix& pt = cls.front()->dtmc->transition_transposed();
        const index_t n_states = pt.rows();
        DenseBlock x;
        DenseBlock y;
        x.reshape(n_states, static_cast<index_t>(cls.size()));
        y.reshape(n_states, static_cast<index_t>(cls.size()));
        for (std::size_t j = 0; j < cls.size(); ++j) {
          x.fill_column(static_cast<index_t>(j),
                        cls[j]->compiled->vmodel->initial);
        }
        ThreadPool* const prod_pool =
            (pool_usable && pt.nnz() >= SolveWorkspace::kMinPooledNnz)
                ? pool
                : nullptr;
        std::vector<SpmmOperand> ops;
        std::size_t live_cols = cls.size();
        for (std::int64_t n = 0;; ++n) {
          for (std::size_t j = 0; j < live_cols; ++j) {
            VGroup& g = *cls[j];
            const index_t t =
                DenseBlock::tile_of(static_cast<index_t>(j));
            const double d = sparse_reward_dot_strided(
                g.reward_idx, g.compiled->vmodel->rewards,
                x.tile(t) + DenseBlock::lane_of(static_cast<index_t>(j)),
                static_cast<std::size_t>(x.tile_width(t)));
            for (auto& sweep : g.sweeps) sweep->accumulate(n, d);
          }
          while (live_cols > 0 && cls[live_cols - 1]->pass_steps == n) {
            --live_cols;
          }
          if (live_cols == 0) break;
          ops.clear();
          for (index_t t = 0; t < x.num_tiles(); ++t) {
            if (static_cast<std::size_t>(x.tile_col_begin(t)) >=
                live_cols) {
              break;
            }
            const index_t in_tile = std::min<index_t>(
                x.tile_cols(t),
                static_cast<index_t>(live_cols) - x.tile_col_begin(t));
            ops.push_back(
                SpmmOperand{x.tile(t), y.tile(t), x.tile_width(t),
                            in_tile});
          }
          if (prod_pool != nullptr) {
            pt.mul_block(ops, n_states, *prod_pool);
          } else {
            pt.mul_block(ops, n_states);
          }
          x.swap(y);
        }
      } catch (const std::exception& e) {
        for (VGroup* g : cls) fail_members(*g, e);
      }
    };
    bool any_class = false;
    for (std::vector<VGroup*>& cls : classes) {
      if (cls.size() < 2) continue;
      run_class_spmm(cls);
      any_class = true;
    }
    if (any_class) {
      // Only singleton classes remain for the schedules below.
      std::vector<VGroup*> rest;
      for (const std::vector<VGroup*>& cls : classes) {
        if (cls.size() < 2) rest.push_back(cls.front());
      }
      live = std::move(rest);
    }
  }

  // --- The remaining V-passes: one d(n) stream per group, every member's
  // mixtures fed from it. Three schedules, all bit-identical:
  //  * fused: all groups' gather matrices concatenated block-diagonally
  //    and stepped as ONE row-partitioned product per step — the pool
  //    engages on the combined stored-entry count even though each
  //    V-model alone is far below the floor; groups are ordered by
  //    descending pass length so retired blocks shrink the live prefix
  //    (mul_vec_leading) instead of being stepped to the global horizon;
  //  * group-parallel: each group's serial pass on its own worker;
  //  * serial: group after group on the calling thread.
  const auto run_group_serial = [&fail_members](VGroup& g) {
    try {
      const VModel& vmodel = *g.compiled->vmodel;
      const std::size_t n_states =
          static_cast<std::size_t>(vmodel.chain.num_states());
      AlignedVector<double> pi(vmodel.initial.begin(), vmodel.initial.end());
      AlignedVector<double> next(n_states);
      for (std::int64_t n = 0;; ++n) {
        const double d =
            sparse_reward_dot(g.reward_idx, vmodel.rewards, pi);
        for (auto& sweep : g.sweeps) sweep->accumulate(n, d);
        if (n == g.pass_steps) break;
        g.dtmc->step(pi, next);
        pi.swap(next);
      }
    } catch (const std::exception& e) {
      fail_members(g, e);
    }
  };

  if (live.size() > 1 && pool_usable) {
    // Order by descending pass length (ties by first appearance, so the
    // layout is deterministic).
    std::stable_sort(live.begin(), live.end(),
                     [](const VGroup* a, const VGroup* b) {
                       return a->pass_steps > b->pass_steps;
                     });
    std::int64_t combined_nnz = 0;
    index_t combined_states = 0;
    for (const VGroup* g : live) {
      combined_nnz += g->dtmc->transition_transposed().nnz();
      combined_states += g->compiled->vmodel->chain.num_states();
    }
    if (combined_nnz >= SolveWorkspace::kMinPooledNnz) {
      // Fused: block-concatenate the gather matrices (rows and columns of
      // block b offset by the states before it) by direct CSR splicing —
      // every block row keeps its exact stored order, so each slice of
      // the product is bit-identical to the small matrix's own kernel.
      const auto run_fused = [&] {
        std::vector<std::int64_t> row_ptr;
        std::vector<index_t> col_idx;
        std::vector<double> values;
        row_ptr.reserve(static_cast<std::size_t>(combined_states) + 1);
        col_idx.reserve(static_cast<std::size_t>(combined_nnz));
        values.reserve(static_cast<std::size_t>(combined_nnz));
        row_ptr.push_back(0);
        std::vector<index_t> offsets;
        offsets.reserve(live.size());
        index_t offset = 0;
        for (const VGroup* g : live) {
          const CsrMatrix& pt = g->dtmc->transition_transposed();
          offsets.push_back(offset);
          const std::int64_t base = row_ptr.back();
          for (std::size_t r = 1; r <= static_cast<std::size_t>(pt.rows());
               ++r) {
            row_ptr.push_back(base + pt.row_ptr()[r]);
          }
          for (const index_t c : pt.col_idx()) {
            col_idx.push_back(c + offset);
          }
          values.insert(values.end(), pt.values().begin(),
                        pt.values().end());
          offset += pt.rows();
        }
        CsrMatrix combined = CsrMatrix::from_parts(
            combined_states, combined_states, std::move(row_ptr),
            std::move(col_idx), std::move(values));
        // The fused block matrix is stepped to the longest pass's horizon:
        // derive the blocked kernel layout for it like any other compiled
        // matrix (bit-identical; the V-blocks' own layouts don't carry
        // over through the CSR splice).
        combined.specialize();

        AlignedVector<double> x(static_cast<std::size_t>(combined_states),
                                0.0);
        AlignedVector<double> y(static_cast<std::size_t>(combined_states),
                                0.0);
        for (std::size_t b = 0; b < live.size(); ++b) {
          const std::vector<double>& init =
              live[b]->compiled->vmodel->initial;
          std::copy(init.begin(), init.end(), x.begin() + offsets[b]);
        }

        std::size_t live_blocks = live.size();
        for (std::int64_t n = 0;; ++n) {
          for (std::size_t b = 0; b < live_blocks; ++b) {
            VGroup& g = *live[b];
            const VModel& vmodel = *g.compiled->vmodel;
            const std::span<const double> slice(
                x.data() + offsets[b],
                static_cast<std::size_t>(vmodel.chain.num_states()));
            const double d =
                sparse_reward_dot(g.reward_idx, vmodel.rewards, slice);
            for (auto& sweep : g.sweeps) sweep->accumulate(n, d);
          }
          // Retire completed blocks: passes are sorted descending, so the
          // live set is always a prefix and the product shrinks with it.
          while (live_blocks > 0 &&
                 live[live_blocks - 1]->pass_steps == n) {
            --live_blocks;
          }
          if (live_blocks == 0) break;
          const index_t leading =
              offsets[live_blocks - 1] +
              live[live_blocks - 1]->compiled->vmodel->chain.num_states();
          // Retirement can shrink the live prefix back below the floor
          // the fusion was gated on; the serial kernel (bit-identical)
          // then beats paying the per-step pool synchronization for a
          // tail of a few small blocks.
          const std::int64_t live_nnz =
              combined.row_ptr()[static_cast<std::size_t>(leading)];
          if (live_nnz >= SolveWorkspace::kMinPooledNnz) {
            combined.mul_vec_leading(x, y, leading, *pool);
          } else {
            combined.mul_vec_leading(x, y, leading);
          }
          x.swap(y);
        }
      };
      try {
        run_fused();
      } catch (const std::exception& e) {
        // The joint pass is shared state (sweeps may be mid-accumulation),
        // so the whole fused set fails together; everything outside it —
        // validation-failed items, zero-reward groups, the rest of the
        // sweep — is unaffected.
        for (VGroup* g : live) fail_members(*g, e);
      }
    } else {
      // Too small to pay the per-step pool synchronization as one block:
      // give each group's whole serial pass to a worker instead (the
      // passes are independent; per-group arithmetic unchanged).
      pool->parallel_for(live.size(), [&](std::size_t b, std::size_t) {
        run_group_serial(*live[b]);
      });
    }
  } else {
    for (VGroup* g : live) run_group_serial(*g);
  }

  // --- Reports, mirroring solve_grid()'s step attribution exactly: the
  // shared schema cost on every point, each point's own V-truncation as
  // its vmodel_steps, the member's own pass length (not the group's) as
  // the aggregate. Seconds are necessarily phase-level, not per-member —
  // the execute phase is shared work (that is the point of batching) — so
  // a member reports its group's compile time plus the joint execute
  // elapsed; summing seconds across members of a batch over-counts, just
  // as summing the per-point seconds of one OpenMP RRL sweep does.
  const double execute_seconds = execute_watch.seconds();
  for (VGroup& g : groups) {
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      const std::size_t i = g.members[k];
      const RrBatchItem& item = items[i];
      if (!item.error->empty()) continue;
      const RegenerativeSchema& sch = g.compiled->schema;
      const std::size_t m = item.request->times.size();
      SolveReport report;
      report.points.resize(m);
      const GridSweep* sweep =
          g.zero_rewards ? nullptr : g.sweeps[k].get();
      for (std::size_t p = 0; p < m; ++p) {
        TransientValue& point = report.points[p];
        point.value = sweep != nullptr ? sweep->value(p) : 0.0;
        point.stats.dtmc_steps = sch.dtmc_steps();
        point.stats.vmodel_steps = sweep != nullptr ? sweep->n_max(p) : 0;
        point.stats.lambda = sch.lambda;
        point.stats.capped =
            sch.capped || (sweep != nullptr && sweep->point_capped(p));
      }
      report.total.dtmc_steps = sch.dtmc_steps();
      report.total.vmodel_steps =
          sweep != nullptr ? sweep->pass_steps() : 0;
      report.total.lambda = sch.lambda;
      report.total.capped =
          sch.capped || (sweep != nullptr && sweep->any_capped());
      report.total.seconds = g.compile_seconds + execute_seconds;
      *item.report = std::move(report);
    }
  }
}

}  // namespace rrl
