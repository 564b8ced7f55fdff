// Scalar reference kernels + the runtime dispatch table.
//
// This translation unit is compiled with -ffp-contract=off (CMakeLists)
// so the scalar reference can never be FMA-contracted into a
// differently-rounded form, whatever the global optimization flags are.
#include "sparse/spmv_kernels.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/metrics.hpp"

namespace rrl {
namespace detail {

// Defined by the -mavx2 and -mavx512f builds of spmv_kernels_simd.cpp.
// CMakeLists makes a build only where the compiler takes its flag, and
// announces it with RRL_SIMD_AVX2 / RRL_SIMD_AVX512.
const SpmvKernels* avx2_kernels() noexcept;
const SpmvKernels* avx512_kernels() noexcept;

}  // namespace detail

namespace {

void csr_rows_scalar(const std::int64_t* row_ptr, const index_t* col_idx,
                     const double* values, const double* x, double* y,
                     index_t r_begin, index_t r_end) {
  for (index_t r = r_begin; r < r_end; ++r) {
    double acc = 0.0;
    const std::int64_t lo = row_ptr[static_cast<std::size_t>(r)];
    const std::int64_t hi = row_ptr[static_cast<std::size_t>(r) + 1];
    for (std::int64_t k = lo; k < hi; ++k) {
      acc += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

void sell_chunks_scalar(const std::int64_t* chunk_ptr, const index_t* col_idx,
                        const double* values, const double* x, double* y,
                        index_t c_begin, index_t c_end) {
  for (index_t c = c_begin; c < c_end; ++c) {
    const std::int64_t base = chunk_ptr[static_cast<std::size_t>(c)];
    const std::int64_t width =
        chunk_ptr[static_cast<std::size_t>(c) + 1] - base;
    double acc[kSellChunkRows] = {};
    const index_t* cp = col_idx + base * kSellChunkRows;
    const double* vp = values + base * kSellChunkRows;
    for (std::int64_t k = 0; k < width; ++k) {
      for (index_t l = 0; l < kSellChunkRows; ++l) {
        acc[l] += vp[l] * x[static_cast<std::size_t>(cp[l])];
      }
      cp += kSellChunkRows;
      vp += kSellChunkRows;
    }
    double* out = y + static_cast<std::size_t>(c) * kSellChunkRows;
    for (index_t l = 0; l < kSellChunkRows; ++l) out[l] = acc[l];
  }
}

// Scalar SpMM tile kernels, one instantiation per tile width. Lane j of
// the tile is the j-th column's own sequential accumulator: per nonzero
// the matrix value is read once and multiplied into all W lanes from one
// contiguous W-element load of b — same products, same per-column
// addition order as csr_rows_scalar on that column alone.
template <index_t W>
void csr_rows_mm_scalar(const std::int64_t* row_ptr, const index_t* col_idx,
                        const double* values, const double* b, double* c,
                        index_t r_begin, index_t r_end) {
  for (index_t r = r_begin; r < r_end; ++r) {
    double acc[W] = {};
    const std::int64_t lo = row_ptr[static_cast<std::size_t>(r)];
    const std::int64_t hi = row_ptr[static_cast<std::size_t>(r) + 1];
    for (std::int64_t k = lo; k < hi; ++k) {
      const double v = values[static_cast<std::size_t>(k)];
      const double* bt =
          b + static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)]) *
                  static_cast<std::size_t>(W);
      for (index_t j = 0; j < W; ++j) acc[j] += v * bt[j];
    }
    double* ct = c + static_cast<std::size_t>(r) * static_cast<std::size_t>(W);
    for (index_t j = 0; j < W; ++j) ct[j] = acc[j];
  }
}

template <index_t W>
void sell_chunks_mm_scalar(const std::int64_t* chunk_ptr,
                           const index_t* col_idx, const double* values,
                           const double* b, double* c, index_t c_begin,
                           index_t c_end) {
  for (index_t ch = c_begin; ch < c_end; ++ch) {
    const std::int64_t base = chunk_ptr[static_cast<std::size_t>(ch)];
    const std::int64_t width =
        chunk_ptr[static_cast<std::size_t>(ch) + 1] - base;
    double acc[kSellChunkRows][W] = {};
    const index_t* cp = col_idx + base * kSellChunkRows;
    const double* vp = values + base * kSellChunkRows;
    for (std::int64_t k = 0; k < width; ++k) {
      for (index_t l = 0; l < kSellChunkRows; ++l) {
        const double v = vp[l];
        const double* bt = b + static_cast<std::size_t>(cp[l]) *
                                   static_cast<std::size_t>(W);
        for (index_t j = 0; j < W; ++j) acc[l][j] += v * bt[j];
      }
      cp += kSellChunkRows;
      vp += kSellChunkRows;
    }
    double* out = c + static_cast<std::size_t>(ch) * kSellChunkRows *
                          static_cast<std::size_t>(W);
    for (index_t l = 0; l < kSellChunkRows; ++l) {
      for (index_t j = 0; j < W; ++j) {
        out[static_cast<std::size_t>(l) * static_cast<std::size_t>(W) + j] =
            acc[l][j];
      }
    }
  }
}

constexpr SpmvKernels kScalarKernels{KernelIsa::kScalar,
                                     "scalar",
                                     &csr_rows_scalar,
                                     &sell_chunks_scalar,
                                     &csr_rows_mm_scalar<kSpmmTileNarrow>,
                                     &csr_rows_mm_scalar<kSpmmTileWide>,
                                     &sell_chunks_mm_scalar<kSpmmTileNarrow>,
                                     &sell_chunks_mm_scalar<kSpmmTileWide>};

bool cpu_supports(KernelIsa isa) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return isa == KernelIsa::kScalar;
#endif
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const SpmvKernels& scalar_kernels() noexcept { return kScalarKernels; }

const SpmvKernels* kernels_for(KernelIsa isa) noexcept {
  if (!cpu_supports(isa)) return nullptr;
  switch (isa) {
    case KernelIsa::kScalar:
      return &kScalarKernels;
#if defined(RRL_SIMD_AVX2)
    case KernelIsa::kAvx2:
      return detail::avx2_kernels();
#endif
#if defined(RRL_SIMD_AVX512)
    case KernelIsa::kAvx512:
      return detail::avx512_kernels();
#endif
    default:
      return nullptr;
  }
}

KernelIsa best_supported_isa() noexcept {
  if (kernels_for(KernelIsa::kAvx512) != nullptr) return KernelIsa::kAvx512;
  if (kernels_for(KernelIsa::kAvx2) != nullptr) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

const SpmvKernels& resolve_kernels(const char* override_name) {
  const SpmvKernels& best = *kernels_for(best_supported_isa());
  if (override_name == nullptr || override_name[0] == '\0' ||
      std::strcmp(override_name, "auto") == 0) {
    return best;
  }
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (std::strcmp(override_name, kernel_isa_name(isa)) != 0) continue;
    if (const SpmvKernels* k = kernels_for(isa)) return *k;
    std::fprintf(stderr,
                 "rrl: RRL_KERNEL=%s is not available on this host "
                 "(not compiled in or unsupported CPU); using %s\n",
                 override_name, best.name);
    return best;
  }
  std::fprintf(stderr,
               "rrl: unknown RRL_KERNEL=%s (expected scalar|avx2|avx512); "
               "using %s\n",
               override_name, best.name);
  return best;
}

const SpmvKernels& active_kernels() {
  static const SpmvKernels& active = []() -> const SpmvKernels& {
    const SpmvKernels& k = resolve_kernels(std::getenv("RRL_KERNEL"));
    // 0 = scalar, 1 = avx2, 2 = avx512 — same order as KernelIsa, so the
    // metrics view names the variant the whole process is running with.
    metrics::gauge("rrl_spmv_kernel_isa").set(static_cast<int>(k.isa));
    return k;
  }();
  return active;
}

bool spmm_enabled() noexcept {
  const char* v = std::getenv("RRL_SPMM");
  return v == nullptr ||
         (std::strcmp(v, "off") != 0 && std::strcmp(v, "0") != 0);
}

}  // namespace rrl
