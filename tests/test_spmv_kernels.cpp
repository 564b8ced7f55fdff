// Unit tests for the vectorized SpMV kernel layer (sparse/spmv_kernels.hpp,
// sparse/sell.hpp): every kernel variant compiled into this binary and
// usable on this host is run against the scalar reference and must match
// BITWISE — the determinism contract the solvers' reproducibility
// guarantees stand on. Comparisons go through memcmp, not EXPECT_EQ on
// doubles: -0.0 == 0.0 would hide a sign flip the contract forbids.
#include "sparse/spmv_kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/sell.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

// Every variant usable right now: compiled into the binary AND supported
// by the running CPU. Always contains at least the scalar reference.
std::vector<const SpmvKernels*> available_variants() {
  std::vector<const SpmvKernels*> variants;
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (const SpmvKernels* k = kernels_for(isa)) variants.push_back(k);
  }
  return variants;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  // The empty-vector guard matters: memcmp's pointer arguments may not be
  // null even for a zero count, and empty vectors may hand out nullptr.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> test_vector(std::size_t n) {
  std::vector<double> x(n);
  // Irregular magnitudes (including negatives and exact zeros) so a changed
  // accumulation order actually changes bits instead of hiding in symmetry.
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (static_cast<double>(i % 17) - 8.0) / (1.0 + static_cast<double>(i % 29));
  }
  return x;
}

// Deterministic irregular matrix: varying row lengths (including empty
// rows and one dense row) exercise every fringe of the blocked walk.
CsrMatrix irregular(index_t n) {
  std::vector<Triplet> entries;
  for (index_t r = 0; r < n; ++r) {
    if (r % 7 == 3) continue;  // empty rows
    for (index_t k = 0; k < (r % 11) + 1; ++k) {
      const index_t c = (r * 31 + k * 17) % n;
      entries.push_back({r, c, 1.0 / (1.0 + r + 3.0 * k) - 0.05 * k});
    }
  }
  if (n > 5) {
    for (index_t c = 0; c < n; ++c) entries.push_back({5, c, 0.25 - 0.001 * c});
  }
  return CsrMatrix::from_triplets(n, n, entries);
}

std::vector<double> reference_product(const CsrMatrix& m,
                                      const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(m.rows()), 0.0);
  m.mul_vec_with(scalar_kernels(), x, y);
  return y;
}

TEST(SpmvKernels, IsaNames) {
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx512), "avx512");
}

TEST(SpmvKernels, ScalarVariantIsAlwaysAvailable) {
  EXPECT_EQ(kernels_for(KernelIsa::kScalar), &scalar_kernels());
  EXPECT_NE(kernels_for(best_supported_isa()), nullptr);
  EXPECT_EQ(scalar_kernels().isa, KernelIsa::kScalar);
  ASSERT_NE(scalar_kernels().csr_rows, nullptr);
  ASSERT_NE(scalar_kernels().sell_chunks, nullptr);
}

// The bitwise tests only check the variants kernels_for() hands out, so a
// SIMD build that drops out of CMake would leave them passing on scalar
// alone. CMake announces each ISA build with a PUBLIC RRL_SIMD_<ISA>
// definition: a built variant must be registered wherever the CPU runs
// it, and an unbuilt one must never be offered.
TEST(SpmvKernels, CompiledVariantsAreRegistered) {
  const struct {
    KernelIsa isa;
    bool usable;  // built by CMake and supported by this CPU
  } variants[] = {
#if defined(RRL_SIMD_AVX2)
      {KernelIsa::kAvx2, __builtin_cpu_supports("avx2") != 0},
#else
      {KernelIsa::kAvx2, false},
#endif
#if defined(RRL_SIMD_AVX512)
      {KernelIsa::kAvx512, __builtin_cpu_supports("avx512f") != 0},
#else
      {KernelIsa::kAvx512, false},
#endif
  };
  for (const auto& v : variants) {
    const SpmvKernels* k = kernels_for(v.isa);
    if (!v.usable) {
      EXPECT_EQ(k, nullptr) << kernel_isa_name(v.isa);
      continue;
    }
    ASSERT_NE(k, nullptr) << kernel_isa_name(v.isa);
    EXPECT_EQ(k->isa, v.isa);
    EXPECT_STREQ(k->name, kernel_isa_name(v.isa));
    EXPECT_TRUE(k->csr_rows && k->sell_chunks && k->csr_rows_mm4 &&
                k->csr_rows_mm8 && k->sell_chunks_mm4 && k->sell_chunks_mm8)
        << kernel_isa_name(v.isa);
  }
}

TEST(SpmvKernels, EveryVariantMatchesScalarBitwiseOnCsr) {
  const struct {
    const char* what;
    CsrMatrix m;
  } cases[] = {
      {"empty matrix", CsrMatrix::from_triplets(0, 0, {})},
      {"single empty row", CsrMatrix::from_triplets(1, 1, {})},
      {"single dense row",
       [] {
         std::vector<Triplet> e;
         for (index_t c = 0; c < 64; ++c) e.push_back({0, c, 0.125 * (c - 30)});
         return CsrMatrix::from_triplets(1, 64, e);
       }()},
      {"duplicates summed (some to zero)",
       CsrMatrix::from_triplets(9, 9, {{0, 1, 1.5},
                                       {0, 1, 2.5},
                                       {1, 0, -1.0},
                                       {1, 0, 1.0},
                                       {8, 8, 3.0}})},
      {"irregular 19", irregular(19)},
      {"irregular 533", irregular(533)},
  };
  for (const auto& c : cases) {
    const std::vector<double> x =
        test_vector(static_cast<std::size_t>(c.m.cols()));
    const std::vector<double> want = reference_product(c.m, x);
    for (const SpmvKernels* k : available_variants()) {
      std::vector<double> got(static_cast<std::size_t>(c.m.rows()), -7.0);
      c.m.mul_vec_with(*k, x, got);
      EXPECT_TRUE(bits_equal(got, want)) << c.what << " via " << k->name;
    }
  }
}

TEST(SpmvKernels, ForcedSellMatchesCsrBitwiseAcrossVariants) {
  // Sizes straddling the chunk width: exact multiples, one-past, sub-chunk
  // tails — every split of blocked span vs CSR fringe.
  for (const index_t n : {8, 9, 16, 64, 67, 533}) {
    CsrMatrix blocked = irregular(n);
    blocked.specialize(/*force_blocked=*/true);
    ASSERT_NE(blocked.sell(), nullptr) << "n=" << n;
    EXPECT_EQ(blocked.sell()->covered_rows, n / kSellChunkRows * kSellChunkRows);

    const std::vector<double> x = test_vector(static_cast<std::size_t>(n));
    const std::vector<double> want = reference_product(irregular(n), x);
    for (const SpmvKernels* k : available_variants()) {
      std::vector<double> got(static_cast<std::size_t>(n), -7.0);
      blocked.mul_vec_with(*k, x, got);
      EXPECT_TRUE(bits_equal(got, want)) << "n=" << n << " via " << k->name;
    }
  }
}

TEST(SpmvKernels, SellLayoutShapeInvariants) {
  const CsrMatrix m = irregular(67);
  const auto layout =
      build_sell_layout(m.rows(), m.row_ptr(), m.col_idx(), m.values(),
                        /*force=*/true);
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->covered_rows, 64);
  EXPECT_EQ(layout->num_chunks, 8);
  ASSERT_EQ(layout->chunk_ptr.size(), 9u);
  EXPECT_EQ(layout->chunk_ptr.front(), 0);
  for (std::size_t c = 1; c < layout->chunk_ptr.size(); ++c) {
    EXPECT_LE(layout->chunk_ptr[c - 1], layout->chunk_ptr[c]);
  }
  const auto slots = static_cast<std::size_t>(layout->slots());
  EXPECT_EQ(layout->col_idx.size(), slots * kSellChunkRows);
  EXPECT_EQ(layout->values.size(), slots * kSellChunkRows);
}

TEST(SpmvKernels, SpecializeHeuristicRejectsSmallMatrices) {
  // Far below kMinSellNnz: the histogram pass must decline (the padding
  // and indirection would cost more than the blocked walk saves).
  CsrMatrix m = irregular(67);
  m.specialize();
  EXPECT_EQ(m.sell(), nullptr);

  // Fewer rows than one chunk: nothing to block even under force.
  CsrMatrix tiny = irregular(7);
  tiny.specialize(/*force_blocked=*/true);
  EXPECT_EQ(tiny.sell(), nullptr);
}

TEST(SpmvKernels, SpecializeAcceptsLargeEnoughMatrices) {
  // kMinSellNnz entries with moderate padding: the heuristic should adopt
  // the blocked layout without force. 1024 rows x ~8/row = ~8k entries.
  std::vector<Triplet> entries;
  const index_t n = 1024;
  for (index_t r = 0; r < n; ++r) {
    for (index_t k = 0; k < 8; ++k) {
      entries.push_back({r, (r * 13 + k * 37) % n, 1.0 + 0.01 * k});
    }
  }
  CsrMatrix m = CsrMatrix::from_triplets(n, n, entries);
  m.specialize();
  ASSERT_NE(m.sell(), nullptr);
  EXPECT_EQ(m.sell()->covered_rows, n);
}

TEST(SpmvKernels, MulVecLeadingPrefixBitwiseAndSuffixUntouched) {
  const index_t n = 67;
  CsrMatrix blocked = irregular(n);
  blocked.specialize(/*force_blocked=*/true);
  ASSERT_NE(blocked.sell(), nullptr);
  const std::vector<double> x = test_vector(static_cast<std::size_t>(n));
  const std::vector<double> full = reference_product(irregular(n), x);

  ThreadPool pool(4);
  for (const index_t leading : {0, 1, 7, 8, 9, 16, 63, 64, 67}) {
    for (const bool pooled : {false, true}) {
      std::vector<double> y(static_cast<std::size_t>(n), 123.25);
      if (pooled) {
        blocked.mul_vec_leading(x, y, leading, pool);
      } else {
        blocked.mul_vec_leading(x, y, leading);
      }
      for (index_t r = 0; r < n; ++r) {
        const double want =
            r < leading ? full[static_cast<std::size_t>(r)] : 123.25;
        const double got = y[static_cast<std::size_t>(r)];
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << "leading=" << leading << " row=" << r
            << (pooled ? " (pooled)" : "");
      }
    }
  }
}

TEST(SpmvKernels, PooledMulVecMatchesSerialBitwiseOnForcedSell) {
  const index_t n = 533;
  CsrMatrix blocked = irregular(n);
  blocked.specialize(/*force_blocked=*/true);
  ASSERT_NE(blocked.sell(), nullptr);
  const std::vector<double> x = test_vector(static_cast<std::size_t>(n));
  std::vector<double> serial(static_cast<std::size_t>(n), 0.0);
  blocked.mul_vec(x, serial);
  EXPECT_TRUE(bits_equal(serial, reference_product(irregular(n), x)));

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(static_cast<std::size_t>(n), -1.0);
    blocked.mul_vec(x, parallel, pool);
    EXPECT_TRUE(bits_equal(parallel, serial)) << "threads=" << threads;
  }
}

TEST(SpmvKernels, ResolveKernelsOverridePlumbing) {
  // The pure resolution hook behind the RRL_KERNEL environment override
  // (active_kernels() feeds it getenv("RRL_KERNEL") once per process).
  const KernelIsa best = best_supported_isa();
  EXPECT_EQ(resolve_kernels("scalar").isa, KernelIsa::kScalar);
  EXPECT_EQ(resolve_kernels(nullptr).isa, best);
  EXPECT_EQ(resolve_kernels("").isa, best);
  EXPECT_EQ(resolve_kernels("auto").isa, best);
  // Unknown names and a requested-but-unavailable variant fall back to the
  // best supported one (with a warning on stderr) instead of crashing a
  // run over a typo.
  EXPECT_EQ(resolve_kernels("bogus").isa, best);
  EXPECT_EQ(resolve_kernels(kernel_isa_name(best)).isa, best);
  if (kernels_for(KernelIsa::kAvx512) == nullptr) {
    EXPECT_EQ(resolve_kernels("avx512").isa, best);
  }
}

TEST(SpmvKernels, ActiveKernelsIsStableAndUsable) {
  const SpmvKernels& first = active_kernels();
  EXPECT_EQ(&first, &active_kernels());  // resolved once, then pinned
  EXPECT_NE(kernels_for(first.isa), nullptr);
  ASSERT_NE(first.csr_rows, nullptr);
  ASSERT_NE(first.sell_chunks, nullptr);
}

}  // namespace
}  // namespace rrl
