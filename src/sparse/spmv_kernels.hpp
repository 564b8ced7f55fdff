// Vectorized, format-specialized SpMV kernels with runtime dispatch.
//
// Every solver hot loop in this library bottoms out in CsrMatrix::mul_vec
// (SR/RSD stepping, the regenerative schema's excursion passes, RR's
// V-model passes, pooled row-partitioned products), so the row
// kernels live here as a function-pointer table selected ONCE per process:
//
//   scalar   portable reference, baseline x86-64 (always present;
//            spmv_kernels.cpp)
//   avx2     4-lane products, gathers via vgatherdpd (when built and the
//            CPU reports AVX2)
//   avx512   8-lane products (when built and the CPU reports AVX-512F)
//
// The two SIMD variants are one source, spmv_kernels_simd.cpp, written
// with vector-extension types and compiled once per ISA flag; each build's
// lane count is the ISA's native width. CMake builds a variant only where
// the compiler takes its flag, and an unbuilt variant is never offered.
//
// Selection is CPUID-based (best supported ISA wins) and overridable with
// RRL_KERNEL=scalar|avx2|avx512 for testing and byte-compare CI runs; an
// unavailable or unknown value falls back to the best supported variant
// with a warning on stderr.
//
// Determinism contract — every variant is BIT-IDENTICAL to the scalar
// reference on finite inputs, because the serial left-to-right
// accumulation order within each row is preserved everywhere:
//  * CSR row kernels compute the per-entry products in vector lanes, then
//    reduce the lane partials sequentially in registers (acc += p0;
//    acc += p1; ...) — same products, same addition order as scalar.
//  * SELL chunk kernels vectorize ACROSS rows (sparse/sell.hpp): each lane
//    is one row's own sequential accumulator, so within-row order never
//    changes; padding contributes 0.0 * x[0] = +-0.0, and adding a signed
//    zero to a finite accumulation that started at +0.0 cannot change its
//    bits ((+0) + (-0) = +0 under round-to-nearest).
//  * Every kernel build is compiled with -ffp-contract=off, so no FMA
//    contraction can merge a product and an addition into a single
//    differently-rounded operation. There is no --fast-math escape hatch:
//    a kernel that cannot reproduce the scalar bits does not ship.
//
// The contract assumes finite operands (no NaN/Inf in x or the matrix),
// which the solvers' distribution/reward preconditions already guarantee;
// 0.0 * Inf in a padding lane would be the one way to tell the layouts
// apart.
//
// Multi-RHS (SpMM) kernels live in the same table. A block of right-hand
// sides is stored as column TILES of fixed width W in {4, 8}: element
// (row r, lane j) of a tile lives at tile[r * W + j], so one nonzero
// costs a single broadcast of the matrix value plus one contiguous
// W-element load — the per-column gather of x disappears, which is where
// the arithmetic-intensity win over W separate SpMV passes comes from.
// Each lane j is an independent sequential accumulator walking the row's
// entries in stored order, so every output column is bitwise identical
// to the scalar single-vector SpMV of that column by construction; the
// same signed-zero argument covers SELL padding, and dead lanes of a
// partially filled tile never mix with live ones.
#pragma once

#include <cstdint>
#include <span>

#include "sparse/sell.hpp"

namespace rrl {

/// The instruction sets a kernel variant is implemented with.
enum class KernelIsa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Short name of an ISA ("scalar", "avx2", "avx512") — the RRL_KERNEL
/// vocabulary.
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa) noexcept;

/// CSR row-range kernel: y[r] = sum_k values[k] * x[col_idx[k]] for each
/// row r in [r_begin, r_end), entries accumulated in stored order.
using CsrRowsFn = void (*)(const std::int64_t* row_ptr,
                           const index_t* col_idx, const double* values,
                           const double* x, double* y, index_t r_begin,
                           index_t r_end);

/// SELL chunk-range kernel over a SellLayout's padded arrays: writes
/// y[8c .. 8c+8) for each chunk c in [c_begin, c_end), each lane
/// accumulated in stored (= CSR) order.
using SellChunksFn = void (*)(const std::int64_t* chunk_ptr,
                              const index_t* col_idx, const double* values,
                              const double* x, double* y, index_t c_begin,
                              index_t c_end);

/// SpMM column-tile widths. A block of N columns is covered by
/// floor(N / 8) wide tiles plus one padded fringe tile: a narrow one when
/// the remainder is 1..4 live columns, a wide one when it is 5..7.
inline constexpr index_t kSpmmTileNarrow = 4;
inline constexpr index_t kSpmmTileWide = 8;

/// CSR row-range SpMM kernel over one column tile of fixed width W (4 for
/// the *_mm4 pointer, 8 for *_mm8): for each row r in [r_begin, r_end)
/// and each lane j < W, c[r*W + j] = sum_k values[k] * b[col_idx[k]*W + j]
/// with the entries of row r accumulated in stored order per lane.
using CsrRowsMmFn = void (*)(const std::int64_t* row_ptr,
                             const index_t* col_idx, const double* values,
                             const double* b, double* c, index_t r_begin,
                             index_t r_end);

/// SELL chunk-range SpMM kernel, same tile layout: writes the 8 x W output
/// sub-block c[(8c)*W .. (8c+8)*W) for each chunk c in [c_begin, c_end),
/// each (row, lane) accumulated in stored (= CSR) order.
using SellChunksMmFn = void (*)(const std::int64_t* chunk_ptr,
                                const index_t* col_idx, const double* values,
                                const double* b, double* c, index_t c_begin,
                                index_t c_end);

/// One dispatchable kernel variant. Every compiled-in variant provides the
/// full set — single-vector and both SpMM tile widths for both formats —
/// so dispatch never needs a per-pointer fallback.
struct SpmvKernels {
  KernelIsa isa = KernelIsa::kScalar;
  const char* name = "scalar";
  CsrRowsFn csr_rows = nullptr;
  SellChunksFn sell_chunks = nullptr;
  CsrRowsMmFn csr_rows_mm4 = nullptr;
  CsrRowsMmFn csr_rows_mm8 = nullptr;
  SellChunksMmFn sell_chunks_mm4 = nullptr;
  SellChunksMmFn sell_chunks_mm8 = nullptr;
};

/// The scalar reference variant (always available).
[[nodiscard]] const SpmvKernels& scalar_kernels() noexcept;

/// The variant for `isa`, or nullptr when it is not compiled into this
/// binary or the running CPU does not support it.
[[nodiscard]] const SpmvKernels* kernels_for(KernelIsa isa) noexcept;

/// Best ISA usable on this host (compiled in AND reported by CPUID).
[[nodiscard]] KernelIsa best_supported_isa() noexcept;

/// Resolve an RRL_KERNEL-style override to a usable variant: nullptr or
/// "auto" picks best_supported_isa(); a known but unavailable or an
/// unknown name falls back to the best variant with a one-line warning on
/// stderr. Pure of process state — active_kernels() feeds it the
/// environment once; tests feed it strings directly.
[[nodiscard]] const SpmvKernels& resolve_kernels(const char* override_name);

/// The process-wide active variant: resolve_kernels(getenv("RRL_KERNEL")),
/// evaluated once on first use. Every CsrMatrix product dispatches through
/// this table.
[[nodiscard]] const SpmvKernels& active_kernels();

/// Whether shared stepping is enabled. RRL_SPMM=off (or =0) makes every
/// scenario of a sweep its own solve (no shared passes, core/
/// sweep_engine.hpp); used by CI byte-compare runs, read from the
/// environment on every call so one process can compare both paths. Both
/// paths are bit-identical — the toggle exists to prove it.
[[nodiscard]] bool spmm_enabled() noexcept;

}  // namespace rrl
