// Multi-RHS SpMM layer (sparse/block.hpp, CsrMatrix::mul_block) and the
// shared-pass SR/RSD/RR solves (TransientSolver::solve_shared: one
// iterate, many readers).
//
// The load-bearing contract everywhere: every output column of every SpMM
// variant — each ISA, CSR rows and SELL chunks, serial and pooled, wide
// and narrow tiles, full and fringe column counts — is BITWISE the scalar
// single-vector SpMV of that column, and every shared or batched solve is
// bitwise the per-scenario solve it replaces. Comparisons go through
// memcmp, not EXPECT_DOUBLE_EQ: -0.0 == 0.0 would hide exactly the sign
// flips the contract forbids.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "core/rr_solver.hpp"
#include "core/standard_randomization.hpp"
#include "core/steady_state_detection.hpp"
#include "core/sweep_engine.hpp"
#include "models/simple.hpp"
#include "sparse/block.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv_kernels.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

std::vector<const SpmvKernels*> available_variants() {
  std::vector<const SpmvKernels*> variants;
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (const SpmvKernels* k = kernels_for(isa)) variants.push_back(k);
  }
  return variants;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Per-column irregular data: column j gets a distinct salt so a kernel
// that mixes lanes cannot cancel out.
std::vector<double> column_vector(std::size_t n, std::size_t salt) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i + 5 * salt;
    x[i] = (static_cast<double>(k % 17) - 8.0) /
           (1.0 + static_cast<double>(k % 29));
  }
  return x;
}

// Deterministic irregular matrix (same shape family as the SpMV tests):
// varying row lengths, empty rows, one dense row.
CsrMatrix irregular(index_t n) {
  std::vector<Triplet> entries;
  for (index_t r = 0; r < n; ++r) {
    if (r % 7 == 3) continue;
    for (index_t k = 0; k < (r % 11) + 1; ++k) {
      const index_t c = (r * 31 + k * 17) % n;
      entries.push_back({r, c, 1.0 / (1.0 + r + 3.0 * k) - 0.05 * k});
    }
  }
  if (n > 5) {
    for (index_t c = 0; c < n; ++c) {
      entries.push_back({5, c, 0.25 - 0.001 * c});
    }
  }
  return CsrMatrix::from_triplets(n, n, entries);
}

// Operands covering every tile of the block pair.
std::vector<SpmmOperand> all_ops(const DenseBlock& x, DenseBlock& y) {
  std::vector<SpmmOperand> ops;
  for (index_t t = 0; t < x.num_tiles(); ++t) {
    ops.push_back(
        SpmmOperand{x.tile(t), y.tile(t), x.tile_width(t), x.tile_cols(t)});
  }
  return ops;
}

std::vector<double> extract_column(const DenseBlock& b, index_t col) {
  std::vector<double> v(static_cast<std::size_t>(b.rows()));
  for (index_t r = 0; r < b.rows(); ++r) {
    v[static_cast<std::size_t>(r)] = b.at(r, col);
  }
  return v;
}

// Scalar single-vector reference for one column.
std::vector<double> reference_column(const CsrMatrix& m,
                                     const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(m.rows()), 0.0);
  m.mul_vec_with(scalar_kernels(), x, y);
  return y;
}

// ---------------------------------------------------------------------------
// DenseBlock layout.

TEST(DenseBlock, TilePlanCoversEveryFringeWidth) {
  const struct {
    index_t cols;
    std::vector<index_t> widths;
    std::vector<index_t> lives;
  } cases[] = {
      {0, {}, {}},
      {1, {4}, {1}},
      {4, {4}, {4}},
      {5, {8}, {5}},
      {8, {8}, {8}},
      {9, {8, 4}, {8, 1}},
      {12, {8, 4}, {8, 4}},
      {13, {8, 8}, {8, 5}},
      {16, {8, 8}, {8, 8}},
      {17, {8, 8, 4}, {8, 8, 1}},
  };
  DenseBlock b;
  for (const auto& c : cases) {
    b.reshape(10, c.cols);
    ASSERT_EQ(b.num_tiles(), static_cast<index_t>(c.widths.size()))
        << "cols=" << c.cols;
    for (index_t t = 0; t < b.num_tiles(); ++t) {
      EXPECT_EQ(b.tile_width(t), c.widths[static_cast<std::size_t>(t)])
          << "cols=" << c.cols << " tile " << t;
      EXPECT_EQ(b.tile_cols(t), c.lives[static_cast<std::size_t>(t)]);
      EXPECT_EQ(b.tile_col_begin(t), t * kSpmmTileWide);
    }
  }
}

TEST(DenseBlock, ColumnAddressingRoundTripsAndPaddingStaysZero) {
  DenseBlock b;
  b.reshape(7, 9);  // wide tile + 1-live narrow fringe
  EXPECT_EQ(DenseBlock::tile_of(8), 1);
  EXPECT_EQ(DenseBlock::lane_of(8), 0);
  for (index_t col = 0; col < 9; ++col) {
    const auto v = column_vector(7, static_cast<std::size_t>(col));
    b.fill_column(col, v);
  }
  for (index_t col = 0; col < 9; ++col) {
    EXPECT_EQ(extract_column(b, col),
              column_vector(7, static_cast<std::size_t>(col)))
        << "col " << col;
  }
  // Padding lanes of the fringe tile (lanes 1..3 of the width-4 tile)
  // were never written and must still be the reshape() zeros.
  const double* fringe = b.tile(1);
  for (index_t r = 0; r < 7; ++r) {
    for (index_t lane = 1; lane < 4; ++lane) {
      EXPECT_EQ(fringe[r * 4 + lane], 0.0) << "row " << r;
    }
  }
}

TEST(DenseBlock, ReshapeZeroFillsAcrossReuse) {
  DenseBlock b;
  b.reshape(16, 12);
  for (index_t col = 0; col < 12; ++col) {
    b.fill_column(col, std::vector<double>(16, -3.5));
  }
  b.reshape(4, 3);  // shrink: must be zero, not stale -3.5
  for (index_t col = 0; col < 3; ++col) {
    EXPECT_EQ(extract_column(b, col), std::vector<double>(4, 0.0));
  }
  b.reshape(32, 9);  // grow again
  for (index_t col = 0; col < 9; ++col) {
    EXPECT_EQ(extract_column(b, col), std::vector<double>(32, 0.0));
  }
}

// ---------------------------------------------------------------------------
// Kernel-level bit-identity: every variant, every layout, every width.

TEST(SpmmKernels, EveryVariantMatchesPerColumnScalarSpmvOnCsr) {
  const struct {
    const char* what;
    CsrMatrix m;
  } cases[] = {
      {"empty matrix", CsrMatrix::from_triplets(0, 0, {})},
      {"single dense row",
       [] {
         std::vector<Triplet> e;
         for (index_t c = 0; c < 64; ++c) {
           e.push_back({0, c, 0.125 * (c - 30)});
         }
         return CsrMatrix::from_triplets(1, 64, e);
       }()},
      {"irregular 19", irregular(19)},
      {"irregular 533", irregular(533)},
  };
  for (const auto& c : cases) {
    for (const index_t n_cols : {1, 2, 4, 5, 7, 8, 9, 12}) {
      DenseBlock x;
      DenseBlock y;
      x.reshape(c.m.cols(), n_cols);
      y.reshape(c.m.rows(), n_cols);
      std::vector<std::vector<double>> want;
      for (index_t j = 0; j < n_cols; ++j) {
        const auto col = column_vector(static_cast<std::size_t>(c.m.cols()),
                                       static_cast<std::size_t>(j));
        x.fill_column(j, col);
        want.push_back(reference_column(c.m, col));
      }
      for (const SpmvKernels* k : available_variants()) {
        y.reshape(c.m.rows(), n_cols);  // reset outputs
        c.m.mul_block_with(*k, all_ops(x, y), c.m.rows());
        for (index_t j = 0; j < n_cols; ++j) {
          EXPECT_TRUE(bits_equal(extract_column(y, j),
                                 want[static_cast<std::size_t>(j)]))
              << c.what << " cols=" << n_cols << " col " << j << " via "
              << k->name;
        }
      }
    }
  }
}

TEST(SpmmKernels, ForcedSellBlockMatchesScalarSpmvBitwise) {
  for (const index_t n : {16, 67, 533}) {
    CsrMatrix blocked = irregular(n);
    blocked.specialize(/*force_blocked=*/true);
    ASSERT_NE(blocked.sell(), nullptr) << "n=" << n;
    for (const index_t n_cols : {1, 5, 8, 12}) {
      DenseBlock x;
      DenseBlock y;
      x.reshape(n, n_cols);
      std::vector<std::vector<double>> want;
      for (index_t j = 0; j < n_cols; ++j) {
        const auto col = column_vector(static_cast<std::size_t>(n),
                                       static_cast<std::size_t>(j));
        x.fill_column(j, col);
        want.push_back(reference_column(irregular(n), col));
      }
      for (const SpmvKernels* k : available_variants()) {
        y.reshape(n, n_cols);
        blocked.mul_block_with(*k, all_ops(x, y), n);
        for (index_t j = 0; j < n_cols; ++j) {
          EXPECT_TRUE(bits_equal(extract_column(y, j),
                                 want[static_cast<std::size_t>(j)]))
              << "n=" << n << " cols=" << n_cols << " col " << j << " via "
              << k->name;
        }
      }
    }
  }
}

TEST(SpmmKernels, PooledMulBlockMatchesSerialBitwise) {
  const index_t n = 533;
  CsrMatrix blocked = irregular(n);
  blocked.specialize(/*force_blocked=*/true);
  ASSERT_NE(blocked.sell(), nullptr);
  const index_t n_cols = 12;
  DenseBlock x;
  x.reshape(n, n_cols);
  for (index_t j = 0; j < n_cols; ++j) {
    x.fill_column(j, column_vector(static_cast<std::size_t>(n),
                                   static_cast<std::size_t>(j)));
  }
  DenseBlock serial;
  serial.reshape(n, n_cols);
  {
    auto ops = all_ops(x, serial);
    blocked.mul_block(ops, n);
  }
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    DenseBlock pooled;
    pooled.reshape(n, n_cols);
    auto ops = all_ops(x, pooled);
    blocked.mul_block(ops, n, pool);
    for (index_t j = 0; j < n_cols; ++j) {
      EXPECT_TRUE(
          bits_equal(extract_column(pooled, j), extract_column(serial, j)))
          << "threads=" << threads << " col " << j;
    }
  }
}

TEST(SpmmKernels, LeadingPrefixComputedSuffixUntouched) {
  const index_t n = 67;
  CsrMatrix blocked = irregular(n);
  blocked.specialize(/*force_blocked=*/true);
  ASSERT_NE(blocked.sell(), nullptr);
  const index_t n_cols = 5;
  DenseBlock x;
  x.reshape(n, n_cols);
  std::vector<std::vector<double>> want;
  for (index_t j = 0; j < n_cols; ++j) {
    const auto col = column_vector(static_cast<std::size_t>(n),
                                   static_cast<std::size_t>(j));
    x.fill_column(j, col);
    want.push_back(reference_column(irregular(n), col));
  }
  ThreadPool pool(4);
  for (const index_t leading : {0, 1, 8, 9, 63, 64, 67}) {
    for (const bool pooled : {false, true}) {
      DenseBlock y;
      y.reshape(n, n_cols);
      for (index_t j = 0; j < n_cols; ++j) {
        y.fill_column(j, std::vector<double>(static_cast<std::size_t>(n),
                                             123.25));
      }
      auto ops = all_ops(x, y);
      if (pooled) {
        blocked.mul_block(ops, leading, pool);
      } else {
        blocked.mul_block(ops, leading);
      }
      for (index_t j = 0; j < n_cols; ++j) {
        for (index_t r = 0; r < n; ++r) {
          const double want_v =
              r < leading
                  ? want[static_cast<std::size_t>(j)]
                        [static_cast<std::size_t>(r)]
                  : 123.25;
          const double got_v = y.at(r, j);
          EXPECT_EQ(std::memcmp(&got_v, &want_v, sizeof(double)), 0)
              << "leading=" << leading << " row=" << r << " col=" << j
              << (pooled ? " (pooled)" : "");
        }
      }
    }
  }
}

TEST(SpmmKernels, EveryCompiledVariantProvidesTheFullMmSet) {
  for (const SpmvKernels* k : available_variants()) {
    EXPECT_NE(k->csr_rows_mm4, nullptr) << k->name;
    EXPECT_NE(k->csr_rows_mm8, nullptr) << k->name;
    EXPECT_NE(k->sell_chunks_mm4, nullptr) << k->name;
    EXPECT_NE(k->sell_chunks_mm8, nullptr) << k->name;
  }
}

TEST(SpmmKernels, SpmmEnabledReadsEnvironmentPerCall) {
  unsetenv("RRL_SPMM");
  EXPECT_TRUE(spmm_enabled());
  setenv("RRL_SPMM", "off", 1);
  EXPECT_FALSE(spmm_enabled());
  setenv("RRL_SPMM", "0", 1);
  EXPECT_FALSE(spmm_enabled());
  setenv("RRL_SPMM", "on", 1);
  EXPECT_TRUE(spmm_enabled());
  unsetenv("RRL_SPMM");
  EXPECT_TRUE(spmm_enabled());
}

TEST(SpmmKernels, MetricsCountProductsAndColumns) {
  const CsrMatrix m = irregular(19);
  DenseBlock x;
  DenseBlock y;
  x.reshape(19, 9);
  y.reshape(19, 9);
  const auto before_products =
      metrics::counter("rrl_spmm_products_total").value();
  const auto before_columns =
      metrics::counter("rrl_spmm_columns_total").value();
  auto ops = all_ops(x, y);
  m.mul_block(ops, 19);
  EXPECT_EQ(metrics::counter("rrl_spmm_products_total").value(),
            before_products + 1);
  EXPECT_EQ(metrics::counter("rrl_spmm_columns_total").value(),
            before_columns + 9);
}

// ---------------------------------------------------------------------------
// Shared-pass SR/RSD solves: one iterate, many readers.

std::vector<SharedResult> shared(const TransientSolver& solver,
                                 const std::vector<SolveRequest>& requests,
                                 SolveWorkspace& workspace) {
  std::vector<const SolveRequest*> ptrs;
  for (const SolveRequest& r : requests) ptrs.push_back(&r);
  return solver.solve_shared(ptrs, workspace);
}

std::vector<SharedResult> shared(const TransientSolver& solver,
                                 const std::vector<SolveRequest>& requests) {
  SolveWorkspace workspace;
  return shared(solver, requests, workspace);
}

void expect_reports_equal(const SolveReport& got, const SolveReport& want,
                          const std::string& label) {
  ASSERT_EQ(got.points.size(), want.points.size()) << label;
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    const double g = got.points[i].value;
    const double w = want.points[i].value;
    EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
        << label << " point " << i << " got=" << g << " want=" << w;
    EXPECT_EQ(got.points[i].stats.dtmc_steps, want.points[i].stats.dtmc_steps)
        << label << " point " << i;
    EXPECT_EQ(got.points[i].stats.capped, want.points[i].stats.capped);
    EXPECT_EQ(got.points[i].stats.detection_step,
              want.points[i].stats.detection_step)
        << label << " point " << i;
    EXPECT_EQ(got.points[i].stats.lambda, want.points[i].stats.lambda);
  }
  EXPECT_EQ(got.total.dtmc_steps, want.total.dtmc_steps) << label;
  EXPECT_EQ(got.total.capped, want.total.capped) << label;
  EXPECT_EQ(got.total.detection_step, want.total.detection_step) << label;
  EXPECT_EQ(got.total.lambda, want.total.lambda) << label;
}

TEST(RandomizationBatch, SrBatchMatchesSoloBitwise) {
  const Ctmc chain = make_random_ctmc({.num_states = 25, .seed = 77});
  std::vector<double> rewards(25, 0.0);
  rewards[12] = 1.0;
  rewards[3] = 0.5;
  std::vector<double> alpha(25, 0.0);
  alpha[0] = 1.0;
  SrOptions options;
  options.epsilon = 1e-8;
  const StandardRandomization sr(chain, rewards, alpha, options);

  // Requests varying everything each reader must keep its own: epsilon
  // (truncation/pass length), measure (Poisson weights), and the grid.
  std::vector<SolveRequest> requests;
  requests.push_back(SolveRequest::trr({0.5, 5.0, 50.0}));
  requests.push_back(SolveRequest::trr({0.5, 5.0, 50.0}, 1e-4));
  requests.push_back(SolveRequest::mrr({0.5, 5.0, 50.0}));
  requests.push_back(SolveRequest::mrr({1.0, 10.0}, 1e-10));
  requests.push_back(SolveRequest::trr({100.0}, 1e-12));
  requests.push_back(SolveRequest::trr({0.25}, 1e-6));

  std::vector<SolveReport> solo;
  for (const SolveRequest& r : requests) solo.push_back(sr.solve_grid(r));

  ThreadPool pool(4);
  SolveWorkspace reused;
  for (const bool with_pool : {false, true}) {
    for (const bool with_reused : {false, true}) {
      SolveWorkspace fresh;
      SolveWorkspace& ws = with_reused ? reused : fresh;
      ws.lent_pool = with_pool ? &pool : nullptr;
      const std::vector<SharedResult> got = shared(sr, requests, ws);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(got[i].error, nullptr);
        expect_reports_equal(
            got[i].report, solo[i],
            "sr item " + std::to_string(i) +
                (with_pool ? " pool" : " serial") +
                (with_reused ? " ws" : ""));
      }
    }
  }
}

TEST(RandomizationBatch, RsdBatchMatchesSoloIncludingDetection) {
  const auto m = make_two_state(1e-3, 1.0);
  const RandomizationSteadyStateDetection rsd(m.chain, {0.0, 1.0},
                                              {1.0, 0.0});
  std::vector<SolveRequest> requests;
  // Large horizons so detection fires (per the solo RSD tests), at three
  // different epsilons — three different span tolerances, so the readers
  // fold at different steps.
  requests.push_back(SolveRequest::trr({1.0, 1e3, 1e5}));
  requests.push_back(SolveRequest::trr({1.0, 1e3, 1e5}, 1e-6));
  requests.push_back(SolveRequest::mrr({10.0, 1e4}, 1e-9));
  requests.push_back(SolveRequest::trr({0.1}));

  std::vector<SolveReport> solo;
  for (const SolveRequest& r : requests) solo.push_back(rsd.solve_grid(r));
  // Sanity: the workload actually exercises the detection fold.
  EXPECT_GT(solo[0].total.detection_step, 0);

  ThreadPool pool(2);
  for (const bool with_pool : {false, true}) {
    SolveWorkspace ws;
    ws.lent_pool = with_pool ? &pool : nullptr;
    const std::vector<SharedResult> got = shared(rsd, requests, ws);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(got[i].error, nullptr);
      expect_reports_equal(got[i].report, solo[i],
                           "rsd item " + std::to_string(i));
    }
  }
}

TEST(RandomizationBatch, SrAndRsdShareEveryPair) {
  const Ctmc chain = make_random_ctmc({.num_states = 25, .seed = 77});
  std::vector<double> rewards(25, 0.0);
  rewards[12] = 1.0;
  std::vector<double> alpha(25, 0.0);
  alpha[0] = 1.0;
  const StandardRandomization sr(chain, rewards, alpha);
  const RandomizationSteadyStateDetection rsd(chain, rewards, alpha);

  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 10.0}),
      SolveRequest::mrr({5.0}, 1e-6),
  };
  for (const TransientSolver* solver :
       {static_cast<const TransientSolver*>(&sr),
        static_cast<const TransientSolver*>(&rsd)}) {
    // Measure, eps and grid differ: the iterate does not.
    EXPECT_TRUE(solver->shares_pass(requests[0], requests[1]));
    const std::vector<SharedResult> got = shared(*solver, requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(got[i].error, nullptr);
      expect_reports_equal(got[i].report, solver->solve_grid(requests[i]),
                           std::string(solver->name()) + " " +
                               std::to_string(i));
    }
  }
}

TEST(RandomizationBatch, SingletonGroupRunsThePlainSolve) {
  const Ctmc chain = make_random_ctmc({.num_states = 25, .seed = 77});
  std::vector<double> rewards(25, 0.0);
  rewards[3] = 2.0;
  std::vector<double> alpha(25, 0.0);
  alpha[0] = 1.0;
  const StandardRandomization sr(chain, rewards, alpha);
  const std::vector<SolveRequest> requests = {SolveRequest::trr({3.0})};
  const std::vector<SharedResult> got = shared(sr, requests);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].error, nullptr);
  expect_reports_equal(got[0].report, sr.solve_grid(requests[0]),
                       "singleton");
}

TEST(RandomizationBatch, ZeroRewardsReportZeroValues) {
  const Ctmc chain = make_random_ctmc({.num_states = 10, .seed = 3});
  std::vector<double> alpha(10, 0.0);
  alpha[0] = 1.0;
  const StandardRandomization sr(chain, std::vector<double>(10, 0.0), alpha);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 10.0}), SolveRequest::mrr({5.0})};
  const std::vector<SharedResult> got = shared(sr, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[i].error, nullptr);
    for (const TransientValue& p : got[i].report.points) {
      EXPECT_EQ(p.value, 0.0);
      EXPECT_EQ(p.stats.lambda, sr.lambda());
    }
    EXPECT_EQ(got[i].report.total.lambda, sr.lambda());
  }
}

TEST(RandomizationBatch, BadItemIsIsolated) {
  const Ctmc chain = make_random_ctmc({.num_states = 25, .seed = 77});
  std::vector<double> rewards(25, 0.0);
  rewards[12] = 1.0;
  std::vector<double> alpha(25, 0.0);
  alpha[0] = 1.0;
  const StandardRandomization sr(chain, rewards, alpha);
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({1.0, 10.0}),
      SolveRequest::mrr({0.0}),  // MRR at t = 0: contract violation
      SolveRequest::trr({1.0, 10.0}),
  };
  const std::vector<SharedResult> got = shared(sr, requests);
  EXPECT_EQ(got[0].error, nullptr);
  ASSERT_NE(got[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(got[1].error), contract_error);
  EXPECT_EQ(got[2].error, nullptr);
  const SolveReport solo = sr.solve_grid(requests[0]);
  expect_reports_equal(got[0].report, solo, "survivor 0");
  expect_reports_equal(got[2].report, solo, "survivor 2");
}

TEST(RandomizationBatch, RunSweepRoutingIsBitIdenticalOnAndOff) {
  const Ctmc chain = make_random_ctmc({.num_states = 25, .seed = 77});
  std::vector<double> rewards(25, 0.0);
  rewards[12] = 1.0;
  rewards[3] = 0.5;
  std::vector<double> alpha(25, 0.0);
  alpha[0] = 1.0;
  const auto sr = std::make_shared<StandardRandomization>(chain, rewards,
                                                          alpha);
  const auto rsd = std::make_shared<RandomizationSteadyStateDetection>(
      chain, rewards, alpha);

  BatchRequest batch;
  for (int i = 0; i < 4; ++i) {
    SweepScenario scenario;
    scenario.solver =
        i % 2 == 0 ? std::static_pointer_cast<const TransientSolver>(sr)
                   : std::static_pointer_cast<const TransientSolver>(rsd);
    scenario.request.measure =
        i < 2 ? MeasureKind::kTrr : MeasureKind::kMrr;
    scenario.request.times = {1.0, 10.0, 100.0};
    scenario.request.epsilon = i < 2 ? 1e-8 : 1e-10;
    scenario.chain = &chain;
    batch.scenarios.push_back(std::move(scenario));
  }

  // Engagement: with sharing, each solver steps one iterate for its two
  // scenarios, so the sweep streams fewer matrix entries than without.
  auto& nnz = metrics::counter("rrl_spmv_nnz_total");
  ThreadPool one(1);
  batch.spmm = true;
  const auto shared_before = nnz.value();
  const SweepReport on = run_sweep(batch, one);
  const auto shared_nnz = nnz.value() - shared_before;
  EXPECT_EQ(on.failed(), 0u);
  batch.spmm = false;
  const auto solo_before = nnz.value();
  EXPECT_EQ(run_sweep(batch, one).failed(), 0u);
  const auto solo_nnz = nnz.value() - solo_before;
  EXPECT_LT(shared_nnz, solo_nnz) << "shared passes did not engage";

  for (const bool spmm : {true, false}) {
    batch.spmm = spmm;
    for (const int jobs : {1, 4}) {
      ThreadPool pool(jobs);
      const SweepReport run = run_sweep(batch, pool);
      EXPECT_EQ(run.failed(), 0u);
      for (std::size_t s = 0; s < on.results.size(); ++s) {
        expect_reports_equal(run.results[s].report, on.results[s].report,
                             "scenario " + std::to_string(s) +
                                 (spmm ? " shared" : " solo") +
                                 " jobs=" + std::to_string(jobs));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RR: one V-pass per compiled schema.

TEST(RandomizationBatch, RrSharesOnePassPerSchemaKeyBitwise) {
  // A 3-cycle with regenerative state 0 terminates its excursions exactly
  // (a(3) = 0), so the truncated series saturates at the same K for every
  // horizon: distinct t_max compile distinct schemas whose V-models are
  // bitwise EQUAL. Requests still share a pass only within one key.
  const Ctmc cycle = Ctmc::from_transitions(
      3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
  const std::vector<double> rewards = {1.0, 0.5, 0.25};
  const std::vector<double> alpha = {1.0, 0.0, 0.0};
  RrOptions options;
  options.epsilon = 1e-10;
  const auto rr = std::make_shared<RegenerativeRandomization>(
      cycle, rewards, alpha, /*regenerative_state=*/0, options);

  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({5.0}), SolveRequest::trr({9.0}),
      SolveRequest::mrr({1.0, 5.0})};
  std::vector<SolveReport> solo;
  for (const SolveRequest& r : requests) solo.push_back(rr->solve_grid(r));
  // Distinct horizons, identical truncated V-models.
  const auto& va = rr->compiled_for(5.0, 1e-10)->vmodel->model.chain;
  const auto& vb = rr->compiled_for(9.0, 1e-10)->vmodel->model.chain;
  ASSERT_EQ(va.num_states(), vb.num_states());
  ASSERT_EQ(va.num_transitions(), vb.num_transitions());
  ASSERT_EQ(0, std::memcmp(va.rates().values().data(),
                           vb.rates().values().data(),
                           va.rates().values().size_bytes()));

  // One key shares a pass; another horizon does not, equal V-model or not.
  EXPECT_TRUE(rr->shares_pass(requests[0], requests[2]));
  EXPECT_FALSE(rr->shares_pass(requests[0], requests[1]));

  const auto check = [&](const std::vector<SolveReport>& got,
                         const std::string& label) {
    ASSERT_EQ(got.size(), solo.size()) << label;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_TRUE(bits_equal(got[i].values(), solo[i].values()))
          << label << " " << i;
      EXPECT_EQ(got[i].total.vmodel_steps, solo[i].total.vmodel_steps);
      EXPECT_EQ(got[i].total.dtmc_steps, solo[i].total.dtmc_steps);
    }
  };
  std::vector<const SolveRequest*> ptrs;
  for (const SolveRequest& r : requests) ptrs.push_back(&r);
  SolveWorkspace workspace;
  std::vector<SolveReport> joint;
  for (SharedResult& result : rr->solve_shared(ptrs, workspace)) {
    EXPECT_EQ(result.error, nullptr);
    joint.push_back(std::move(result.report));
  }
  check(joint, "solve_shared");

  // Through the engine, with sharing on and under RRL_SPMM=off (every
  // scenario its own unit): the same bits.
  BatchRequest batch;
  for (const SolveRequest& r : requests) {
    SweepScenario scenario;
    scenario.solver = rr;
    scenario.request = r;
    scenario.chain = &cycle;
    batch.scenarios.push_back(std::move(scenario));
  }
  const auto swept = [&] {
    ThreadPool one(1);
    const SweepReport report = run_sweep(batch, one);
    EXPECT_EQ(report.failed(), 0u);
    std::vector<SolveReport> reports;
    for (const ScenarioResult& r : report.results) {
      reports.push_back(r.report);
    }
    return reports;
  };
  check(swept(), "run_sweep");
  setenv("RRL_SPMM", "off", 1);
  const std::vector<SolveReport> classic = swept();
  unsetenv("RRL_SPMM");
  check(classic, "RRL_SPMM=off");
}

}  // namespace
}  // namespace rrl
