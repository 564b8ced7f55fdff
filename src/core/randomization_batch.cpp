#include "core/randomization_batch.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/grid_sweep.hpp"
#include "core/standard_randomization.hpp"
#include "core/steady_state_detection.hpp"
#include "markov/poisson.hpp"
#include "sparse/block.hpp"
#include "sparse/vector_ops.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

// Base pointer and stride of block column j — recomputed after every
// swap(), since the tiles trade storage.
struct ColumnRef {
  const double* data;
  std::size_t stride;
};

ColumnRef column_ref(const DenseBlock& x, index_t j) {
  const index_t t = DenseBlock::tile_of(j);
  return {x.tile(t) + DenseBlock::lane_of(j),
          static_cast<std::size_t>(x.tile_width(t))};
}

// Operands of every tile that still holds a live column. Retired columns
// inside a live tile keep being stepped — wasted lanes, but lanes never
// mix, so nothing a reader sees changes; a tile leaves the product only
// when all its columns are done.
void build_ops(const DenseBlock& x, DenseBlock& y,
               std::span<const std::uint8_t> live,
               std::vector<SpmmOperand>& ops) {
  ops.clear();
  for (index_t t = 0; t < x.num_tiles(); ++t) {
    const index_t begin = x.tile_col_begin(t);
    const index_t count = x.tile_cols(t);
    index_t n_live = 0;
    for (index_t j = 0; j < count; ++j) {
      n_live += live[static_cast<std::size_t>(begin + j)] != 0 ? 1 : 0;
    }
    if (n_live == 0) continue;
    ops.push_back(SpmmOperand{x.tile(t), y.tile(t), x.tile_width(t), n_live});
  }
}

// The pooled-product gate of SolveWorkspace::pooled_spmv, for a borrowed
// pool: real workers, a product past the nnz floor, and no nested
// parallelism.
ThreadPool* pooled(ThreadPool* pool, std::int64_t nnz) {
  return (pool != nullptr && pool->num_threads() > 1 &&
          nnz >= SolveWorkspace::kMinPooledNnz &&
          !ThreadPool::in_parallel_region())
             ? pool
             : nullptr;
}

void fail(const RandBatchItem& item, const char* what) {
  if (item.error != nullptr && item.error->empty()) *item.error = what;
}

// One column of a batched group: the scenario's sweep, its own pass
// length, and the report under construction.
struct Column {
  std::size_t item = 0;
  std::int64_t pass = 0;
  GridSweep sweep;
  SolveReport rep;
};

// Stamp the GridSweep-derived per-point flags exactly as the solo solves
// do right after constructing the sweep.
void stamp_capped(Column& col) {
  for (std::size_t i = 0; i < col.sweep.size(); ++i) {
    col.rep.points[i].stats.capped = col.sweep.point_capped(i);
  }
  col.rep.total.capped = col.sweep.any_capped();
}

SolveReport empty_report(std::size_t m, double lambda) {
  SolveReport rep;
  rep.points.resize(m);
  for (TransientValue& p : rep.points) p.stats.lambda = lambda;
  rep.total.lambda = lambda;
  return rep;
}

void run_sr_group(const StandardRandomization& solver,
                  std::span<const RandBatchItem> items,
                  std::span<const std::size_t> members, ThreadPool* pool,
                  SolveWorkspace& ws) {
  const Stopwatch watch;
  const StandardRandomization::BatchView view = solver.batch_view();
  const double lambda = view.dtmc->lambda();

  std::vector<Column> cols;
  cols.reserve(members.size());
  std::vector<std::size_t> direct;  // members reported without a column
  for (const std::size_t mi : members) {
    const RandBatchItem& item = items[mi];
    try {
      const double eps =
          TransientSolver::validated_epsilon(*item.request, view.epsilon);
      SolveReport rep = empty_report(item.request->times.size(), lambda);
      if (view.r_max == 0.0) {
        // All rewards zero: both measures are identically zero.
        *item.report = std::move(rep);
        direct.push_back(mi);
        continue;
      }
      Column col{
          mi, 0,
          GridSweep(
              lambda, item.request->times, item.request->measure,
              [&](const PoissonDistribution& poisson) {
                return sr_truncation_point(poisson, item.request->measure,
                                           eps / view.r_max);
              },
              view.step_cap),
          std::move(rep)};
      col.pass = col.sweep.pass_steps();
      stamp_capped(col);
      cols.push_back(std::move(col));
    } catch (const std::exception& e) {
      fail(item, e.what());
    }
  }

  try {
    if (!cols.empty()) {
      // Longest pass first: the live column set shrinks from the back and
      // whole tiles retire as their last column finishes.
      std::stable_sort(cols.begin(), cols.end(),
                       [](const Column& a, const Column& b) {
                         return a.pass > b.pass;
                       });
      const index_t n_states = view.dtmc->num_states();
      const index_t n_cols = static_cast<index_t>(cols.size());
      DenseBlock& x = ws.block_x(n_states, n_cols);
      DenseBlock& y = ws.block_y(n_states, n_cols);
      for (index_t j = 0; j < n_cols; ++j) {
        x.fill_column(j, view.initial);
      }

      // Every column starts from the solver's initial vector, so the
      // block shares one live prefix (markov/dtmc.hpp); block_y arrives
      // zero-filled, as live-prefix stepping requires.
      const RandomizedDtmc& dtmc = *view.dtmc;
      const CsrMatrix& pt = dtmc.transition_transposed();
      index_t live_rows = leading_support(view.initial);
      std::vector<std::uint8_t> live(cols.size(), 1);
      std::vector<SpmmOperand> ops;
      std::size_t reading = cols.size();
      for (std::int64_t n = 0;; ++n) {
        while (reading > 0 && cols[reading - 1].pass < n) --reading;
        const std::span<const index_t> reward_idx =
            indices_below(view.reward_idx, live_rows);
        for (std::size_t j = 0; j < reading; ++j) {
          const ColumnRef c = column_ref(x, static_cast<index_t>(j));
          cols[j].sweep.accumulate(
              n, sparse_reward_dot_strided(reward_idx, view.rewards, c.data,
                                           c.stride));
        }
        std::size_t stepping = reading;
        while (stepping > 0 && cols[stepping - 1].pass <= n) {
          live[--stepping] = 0;
        }
        if (stepping == 0) break;
        build_ops(x, y, live, ops);
        live_rows = std::max(live_rows, dtmc.reach(live_rows));
        ThreadPool* const prod_pool =
            pooled(pool, dtmc.leading_nnz(live_rows));
        if (prod_pool != nullptr) {
          pt.mul_block(ops, live_rows, *prod_pool);
        } else {
          pt.mul_block(ops, live_rows);
        }
        x.swap(y);
      }
    }
    for (Column& col : cols) {
      for (std::size_t i = 0; i < col.sweep.size(); ++i) {
        TransientValue& p = col.rep.points[i];
        p.value = col.sweep.value(i);
        p.stats.dtmc_steps = col.sweep.n_max(i);
      }
      col.rep.total.dtmc_steps = col.sweep.pass_steps();
      col.rep.total.seconds = watch.seconds();
      *items[col.item].report = std::move(col.rep);
    }
    for (const std::size_t mi : direct) {
      items[mi].report->total.seconds = watch.seconds();
    }
  } catch (const std::exception& e) {
    for (const Column& col : cols) fail(items[col.item], e.what());
  }
}

void run_rsd_group(const RandomizationSteadyStateDetection& solver,
                   std::span<const RandBatchItem> items,
                   std::span<const std::size_t> members, ThreadPool* pool,
                   SolveWorkspace& ws) {
  const Stopwatch watch;
  const RandomizationSteadyStateDetection::BatchView view =
      solver.batch_view();
  const double lambda = view.dtmc->lambda();

  // RSD columns carry per-scenario detection state on top of the sweep:
  // the scenario's own span tolerance, a done flag, and the step it
  // actually exited at (truncation or detection, whichever came first).
  struct RsdColumn : Column {
    double tol = 0.0;
    bool done = false;
    std::int64_t exit_step = 0;
  };

  std::vector<RsdColumn> cols;
  cols.reserve(members.size());
  std::vector<std::size_t> direct;
  for (const std::size_t mi : members) {
    const RandBatchItem& item = items[mi];
    try {
      const double eps =
          TransientSolver::validated_epsilon(*item.request, view.epsilon);
      SolveReport rep = empty_report(item.request->times.size(), lambda);
      for (TransientValue& p : rep.points) p.stats.detection_step = -1;
      rep.total.detection_step = -1;
      if (view.r_max == 0.0) {
        *item.report = std::move(rep);
        direct.push_back(mi);
        continue;
      }
      RsdColumn col{
          Column{mi, 0,
                 GridSweep(
                     lambda, item.request->times, item.request->measure,
                     [&](const PoissonDistribution& poisson) {
                       return poisson.right_truncation_point(
                           eps / (2.0 * view.r_max));
                     },
                     view.step_cap),
                 std::move(rep)},
          view.detection_tol > 0.0 ? view.detection_tol : eps / 2.0, false,
          0};
      col.pass = col.sweep.pass_steps();
      stamp_capped(col);
      cols.push_back(std::move(col));
    } catch (const std::exception& e) {
      fail(item, e.what());
    }
  }

  try {
    if (!cols.empty()) {
      std::stable_sort(cols.begin(), cols.end(),
                       [](const RsdColumn& a, const RsdColumn& b) {
                         return a.pass > b.pass;
                       });
      const index_t n_states = view.dtmc->num_states();
      const index_t n_cols = static_cast<index_t>(cols.size());
      DenseBlock& x = ws.block_x(n_states, n_cols);
      DenseBlock& y = ws.block_y(n_states, n_cols);
      // Backward iteration per column: w_0 = r, w_{n+1} = P w_n.
      for (index_t j = 0; j < n_cols; ++j) {
        x.fill_column(j, view.rewards);
      }

      ThreadPool* const prod_pool = pooled(pool, view.p->nnz());
      std::vector<std::uint8_t> live(cols.size(), 1);
      std::vector<SpmmOperand> ops;
      for (std::int64_t n = 0;; ++n) {
        bool any_live = false;
        for (std::size_t j = 0; j < cols.size(); ++j) {
          RsdColumn& col = cols[j];
          if (col.done) continue;
          const ColumnRef c = column_ref(x, static_cast<index_t>(j));
          col.sweep.accumulate(
              n, dot_strided(view.initial, c.data, c.stride));
          if (n == col.pass) {
            col.done = true;
            col.exit_step = n;
            live[j] = 0;
            continue;
          }
          // span(w_n) brackets every future coefficient of THIS column's
          // scenario; detection folds it at exactly the solo step (the
          // column's iterates are bitwise the solo iterates).
          const auto [mn, mx] =
              minmax_strided(c.data, static_cast<std::size_t>(n_states),
                             c.stride);
          if (mx - mn <= col.tol) {
            col.sweep.fold_steady_state(n, 0.5 * (mx + mn),
                                        [&](std::size_t i) {
                                          col.rep.points[i]
                                              .stats.detection_step = n;
                                        });
            col.rep.total.detection_step = n;
            col.done = true;
            col.exit_step = n;
            live[j] = 0;
            continue;
          }
          any_live = true;
        }
        if (!any_live) break;
        build_ops(x, y, live, ops);
        if (prod_pool != nullptr) {
          view.p->mul_block(ops, n_states, *prod_pool);
        } else {
          view.p->mul_block(ops, n_states);
        }
        x.swap(y);
      }
    }
    for (RsdColumn& col : cols) {
      for (std::size_t i = 0; i < col.sweep.size(); ++i) {
        TransientValue& p = col.rep.points[i];
        p.value = col.sweep.value(i);
        p.stats.dtmc_steps = std::min(col.exit_step, col.sweep.n_max(i));
      }
      col.rep.total.dtmc_steps = col.exit_step;
      col.rep.total.seconds = watch.seconds();
      *items[col.item].report = std::move(col.rep);
    }
    for (const std::size_t mi : direct) {
      items[mi].report->total.seconds = watch.seconds();
    }
  } catch (const std::exception& e) {
    for (const RsdColumn& col : cols) fail(items[col.item], e.what());
  }
}

}  // namespace

bool randomization_batchable(const TransientSolver& solver) {
  return dynamic_cast<const StandardRandomization*>(&solver) != nullptr ||
         dynamic_cast<const RandomizationSteadyStateDetection*>(&solver) !=
             nullptr;
}

void solve_randomization_batch(std::span<const RandBatchItem> items,
                               ThreadPool* pool, SolveWorkspace* workspace) {
  SolveWorkspace local;
  SolveWorkspace& ws = workspace != nullptr ? *workspace : local;

  // Group by solver instance, preserving first-seen order.
  struct Group {
    const TransientSolver* solver;
    std::vector<std::size_t> members;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const Group& g) { return g.solver == items[i].solver; });
    if (it == groups.end()) {
      groups.push_back(Group{items[i].solver, {i}});
    } else {
      it->members.push_back(i);
    }
  }

  for (const Group& g : groups) {
    if (g.members.size() == 1) {
      // No columns to share — run the scenario's own amortized sweep,
      // lending the pool for row-partitioned products as the sweep
      // engine's small-batch path does.
      const RandBatchItem& item = items[g.members.front()];
      ThreadPool* const saved = ws.spmv_pool;
      ws.spmv_pool = pool != nullptr ? pool : saved;
      try {
        *item.report = item.solver->solve_grid(*item.request, ws);
      } catch (const std::exception& e) {
        fail(item, e.what());
      }
      ws.spmv_pool = saved;
      continue;
    }
    if (const auto* sr =
            dynamic_cast<const StandardRandomization*>(g.solver)) {
      run_sr_group(*sr, items, g.members, pool, ws);
    } else if (const auto* rsd =
                   dynamic_cast<const RandomizationSteadyStateDetection*>(
                       g.solver)) {
      run_rsd_group(*rsd, items, g.members, pool, ws);
    } else {
      for (const std::size_t mi : g.members) {
        fail(items[mi], "not a shared-pass randomization solver");
      }
    }
  }
}

}  // namespace rrl
