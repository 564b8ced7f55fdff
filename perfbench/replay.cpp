#include "replay.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "markov/dtmc.hpp"
#include "sparse/block.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv_kernels.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kBatches = 7;
constexpr double kBatchSeconds = 0.02;

/// Median seconds of one product() call over kBatches batches of about
/// kBatchSeconds each.
template <typename Product>
double seconds_per_call(Product&& product) {
  long reps = 1;
  for (;;) {
    const rrl::Stopwatch watch;
    for (long r = 0; r < reps; ++r) product();
    if (watch.seconds() >= kBatchSeconds || reps >= (1L << 24)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const rrl::Stopwatch watch;
    for (long r = 0; r < reps; ++r) product();
    per_call.push_back(watch.seconds() / static_cast<double>(reps));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

std::vector<double> seeded_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  SeededStream stream(seed);
  for (double& x : v) x = stream.uniform();
  return v;
}

void require_same_bits(const double* got, const double* want, std::size_t n,
                       const char* product) {
  if (std::memcmp(got, want, n * sizeof(double)) != 0) {
    throw std::runtime_error(std::string(product) +
                             " replay differs bitwise from the scalar kernels");
  }
}

ReplayRate rate(double matrix_bytes, double vector_bytes, double seconds) {
  return ReplayRate{(matrix_bytes + vector_bytes) / seconds / 1e9,
                    matrix_bytes, vector_bytes};
}

}  // namespace

Replays replay_kernels(const rrl::Ctmc& chain, int threads,
                       std::uint64_t seed) {
  rrl::CsrMatrix pt = rrl::RandomizedDtmc(chain).transition_transposed();
  pt.specialize();
  const auto rows = static_cast<std::size_t>(pt.rows());
  const auto cols = static_cast<std::size_t>(pt.cols());
  const double matrix_bytes = 8.0 * static_cast<double>(rows + 1) +
                              12.0 * static_cast<double>(pt.nnz());
  const double vector_bytes = 8.0 * static_cast<double>(rows + cols);

  const std::vector<double> x = seeded_vector(cols, seed);
  std::vector<double> want(rows), y(rows);
  pt.mul_vec_with(rrl::scalar_kernels(), x, want);

  Replays out;
  pt.mul_vec(x, y);
  require_same_bits(y.data(), want.data(), rows, "mul_vec");
  out.serial = rate(matrix_bytes, vector_bytes,
                    seconds_per_call([&] { pt.mul_vec(x, y); }));

  rrl::ThreadPool pool(threads);
  std::fill(y.begin(), y.end(), 0.0);
  pt.mul_vec(x, y, pool);
  require_same_bits(y.data(), want.data(), rows, "pooled mul_vec");
  out.pooled = rate(matrix_bytes, vector_bytes,
                    seconds_per_call([&] { pt.mul_vec(x, y, pool); }));

  const rrl::index_t width = rrl::kSpmmTileWide;
  rrl::DenseBlock b, c, c_want;
  b.reshape(pt.cols(), width);
  for (rrl::index_t j = 0; j < width; ++j) {
    b.fill_column(j, seeded_vector(cols, seed + 1 + static_cast<std::uint64_t>(j)));
  }
  c.reshape(pt.rows(), width);
  c_want.reshape(pt.rows(), width);
  const rrl::SpmmOperand tile{b.tile(0), c.tile(0), width, width};
  const rrl::SpmmOperand tile_want{b.tile(0), c_want.tile(0), width, width};
  pt.mul_block_with(rrl::scalar_kernels(), std::span(&tile_want, 1),
                    pt.rows());
  pt.mul_block(std::span(&tile, 1), pt.rows());
  require_same_bits(c.tile(0), c_want.tile(0),
                    rows * static_cast<std::size_t>(width), "mul_block");
  out.spmm8 = rate(matrix_bytes, width * vector_bytes, seconds_per_call([&] {
                     pt.mul_block(std::span(&tile, 1), pt.rows());
                   }));
  return out;
}

void print_replays(std::FILE* out, const Replays& replays) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const auto line = [&](const char* name, const ReplayRate& r) {
    std::fprintf(out,
                 "replay %-12s %8.3f GB/s computed: matrix %.2f MB + vectors "
                 "%.2f MB",
                 name, r.gbps, r.matrix_bytes / 1e6, r.vector_bytes / 1e6);
    if (llc > 0) {
      const bool fits = r.matrix_bytes + r.vector_bytes <= static_cast<double>(llc);
      std::fprintf(out, " vs LLC %.1f MB (%s)\n", static_cast<double>(llc) / 1e6,
                   fits ? "fits: a cache rate, not a DRAM one"
                        : "exceeds the LLC");
    } else {
      std::fprintf(out, " (the host reports no LLC size)\n");
    }
  };
  line("spmv_serial", replays.serial);
  line("spmv_pooled", replays.pooled);
  line("spmm8", replays.spmm8);
}

}  // namespace perfbench
