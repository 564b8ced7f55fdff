// SIMD SpMV + SpMM kernels, written once with GCC/Clang vector extensions
// and compiled once per ISA flag (CMakeLists: -mavx2, -mavx512f, each with
// -ffp-contract=off). Only the lane count L differs between the builds: it
// is the ISA's native width, 4 doubles under AVX2 and 8 under AVX-512F, and
// no vector is wider than that. A SELL chunk is 8 / L vectors, and a W-wide
// SpMM tile W / min(W, L) vectors, which a SELL chunk walks in as many
// passes so that eight row accumulators stay in registers. Each build
// registers its table with the dispatch in spmv_kernels.cpp and is only
// called after CPUID reports its ISA.
//
// Determinism (spmv_kernels.hpp): every lane does the scalar kernel's
// multiplies and adds in the scalar order. CSR rows reduce their lane
// products sequentially; SELL and SpMM lanes are independent sequential
// accumulators; -ffp-contract=off keeps each mul and add separately
// rounded.
#include "sparse/spmv_kernels.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace rrl {
namespace {

// Two fixed typedefs: GCC drops a vector_size that depends on a template
// parameter without a word, so vec<N> picks between them instead.
typedef double v4d __attribute__((vector_size(4 * sizeof(double))));
typedef double v8d __attribute__((vector_size(8 * sizeof(double))));
template <index_t N>
using vec = std::conditional_t<N == 4, v4d, v8d>;

// The per-ISA part, chosen by the RRL_SIMD_<ISA> definition CMake gives
// each build (not by __AVX512F__, which -march=native sets in both): the
// native lane count and an all-lanes gather of x[idx[0..L)]. The masked
// gather forms take an explicit zero source; the plain ones seed it with
// an undefined register, which GCC flags under -Wmaybe-uninitialized.
#if defined(RRL_SIMD_AVX512)
constexpr index_t kLanes = 8;
constexpr KernelIsa kIsa = KernelIsa::kAvx512;
v8d gather(const double* x, const index_t* idx) {
  const __m256i i = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, i, x, 8);
}
#elif defined(RRL_SIMD_AVX2)
constexpr index_t kLanes = 4;
constexpr KernelIsa kIsa = KernelIsa::kAvx2;
v4d gather(const double* x, const index_t* idx) {
  const __m128i i = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, i, all, 8);
}
#else
#error "built once per ISA by CMakeLists, with RRL_SIMD_AVX2 or RRL_SIMD_AVX512"
#endif
using lanes = vec<kLanes>;

template <typename V>
V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Lane by lane: one unaligned vector store. A memcpy store is an integer
// move under -mavx2, and it made GCC duplicate the accumulator zeroing.
template <typename V>
void store(double* p, V v) {
  for (std::size_t j = 0; j < sizeof v / sizeof(double); ++j) p[j] = v[j];
}

// Every lane s, bit for bit (-0.0 too); compiles to one broadcast.
template <typename V>
V splat(double s) {
  return s - V{};
}

void csr_rows(const std::int64_t* row_ptr, const index_t* col_idx,
              const double* values, const double* x, double* y,
              index_t r_begin, index_t r_end) {
  for (index_t r = r_begin; r < r_end; ++r) {
    const std::int64_t hi = row_ptr[r + 1];
    double acc = 0.0;
    std::int64_t k = row_ptr[r];
    for (; k + kLanes <= hi; k += kLanes) {
      const lanes p = load<lanes>(values + k) * gather(x, col_idx + k);
      // Sequential reduction of the lane products: the scalar order.
      for (index_t j = 0; j < kLanes; ++j) acc += p[j];
    }
    for (; k < hi; ++k) acc += values[k] * x[col_idx[k]];
    y[r] = acc;
  }
}

void sell_chunks(const std::int64_t* chunk_ptr, const index_t* col_idx,
                 const double* values, const double* x, double* y,
                 index_t c_begin, index_t c_end) {
  constexpr index_t kVecs = kSellChunkRows / kLanes;
  for (index_t c = c_begin; c < c_end; ++c) {
    const std::int64_t base = chunk_ptr[c];
    const std::int64_t width = chunk_ptr[c + 1] - base;
    const index_t* cp = col_idx + base * kSellChunkRows;
    const double* vp = values + base * kSellChunkRows;
    // Each lane is one row's own accumulator: the vector add is the serial
    // step of eight independent rows.
    lanes acc[kVecs] = {};
    for (std::int64_t k = 0; k < width; ++k) {
      for (index_t h = 0; h < kVecs; ++h) {
        acc[h] += load<lanes>(vp + h * kLanes) * gather(x, cp + h * kLanes);
      }
      cp += kSellChunkRows;
      vp += kSellChunkRows;
    }
    double* out = y + static_cast<std::size_t>(c) * kSellChunkRows;
    for (index_t h = 0; h < kVecs; ++h) store(out + h * kLanes, acc[h]);
  }
}

// SpMM tile kernels. The tile layout (lane j of row r at tile[r*W + j])
// makes the right-hand side a contiguous load, so there is no gather: per
// nonzero one broadcast, then a mul and an add per tile vector.
template <index_t W>
void csr_rows_mm(const std::int64_t* row_ptr, const index_t* col_idx,
                 const double* values, const double* b, double* c,
                 index_t r_begin, index_t r_end) {
  constexpr index_t N = std::min(W, kLanes);
  using V = vec<N>;
  for (index_t r = r_begin; r < r_end; ++r) {
    V acc[W / N] = {};
    for (std::int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const V v = splat<V>(values[k]);
      const double* bt = b + static_cast<std::size_t>(col_idx[k]) * W;
      // Stepping bt, not indexing bt + h * N, keeps GCC's loads unindexed.
      for (index_t h = 0; h < W / N; ++h, bt += N) acc[h] += v * load<V>(bt);
    }
    double* ct = c + static_cast<std::size_t>(r) * W;
    for (index_t h = 0; h < W / N; ++h) store(ct + h * N, acc[h]);
  }
}

template <index_t W>
void sell_chunks_mm(const std::int64_t* chunk_ptr, const index_t* col_idx,
                    const double* values, const double* b, double* c,
                    index_t c_begin, index_t c_end) {
  constexpr index_t N = std::min(W, kLanes);
  using V = vec<N>;
  for (index_t ch = c_begin; ch < c_end; ++ch) {
    const std::int64_t base = chunk_ptr[ch];
    const std::int64_t width = chunk_ptr[ch + 1] - base;
    double* out = c + static_cast<std::size_t>(ch) * kSellChunkRows * W;
    // One pass per tile vector h (columns [h*N, h*N + N)).
    for (index_t h = 0; h < W / N; ++h) {
      const index_t* cp = col_idx + base * kSellChunkRows;
      const double* vp = values + base * kSellChunkRows;
      V acc[kSellChunkRows] = {};
      for (std::int64_t k = 0; k < width; ++k) {
        for (index_t l = 0; l < kSellChunkRows; ++l) {
          const double* bt = b + static_cast<std::size_t>(cp[l]) * W + h * N;
          acc[l] += splat<V>(vp[l]) * load<V>(bt);
        }
        cp += kSellChunkRows;
        vp += kSellChunkRows;
      }
      for (index_t l = 0; l < kSellChunkRows; ++l) {
        store(out + l * W + h * N, acc[l]);
      }
    }
  }
}

constexpr SpmvKernels kKernels{kIsa,
                               kIsa == KernelIsa::kAvx512 ? "avx512" : "avx2",
                               &csr_rows,
                               &sell_chunks,
                               &csr_rows_mm<kSpmmTileNarrow>,
                               &csr_rows_mm<kSpmmTileWide>,
                               &sell_chunks_mm<kSpmmTileNarrow>,
                               &sell_chunks_mm<kSpmmTileWide>};

}  // namespace

namespace detail {
#if defined(RRL_SIMD_AVX512)
const SpmvKernels* avx512_kernels() noexcept { return &kKernels; }
#else
const SpmvKernels* avx2_kernels() noexcept { return &kKernels; }
#endif
}  // namespace detail

}  // namespace rrl
