// Kernel replays: a workload's own randomized transition matrix run
// through the public CsrMatrix products, each product checked bitwise
// against the scalar kernels before it is timed. Bytes are computed from
// the CSR arrays plus the vectors of one product, not measured.
#pragma once

#include <cstdint>
#include <cstdio>

#include "markov/ctmc.hpp"

namespace perfbench {

struct ReplayRate {
  double gbps = 0.0;          ///< computed bytes / median product time
  double matrix_bytes = 0.0;  ///< CSR row pointers, column indices, values
  double vector_bytes = 0.0;  ///< the product's input and output vectors
};

struct Replays {
  ReplayRate serial;  ///< mul_vec on the calling thread
  ReplayRate pooled;  ///< mul_vec on a pool of `threads`
  ReplayRate spmm8;   ///< mul_block over one 8-wide column tile
};

/// Replays the randomized transition matrix of `chain` (with the blocked
/// layout the solvers' compile step derives). Throws when a product
/// differs bitwise from mul_vec_with / mul_block_with(scalar_kernels()).
[[nodiscard]] Replays replay_kernels(const rrl::Ctmc& chain, int threads,
                                     std::uint64_t seed);

/// Prints each replay's rate with its matrix and vector bytes next to the
/// last-level cache size the host reports.
void print_replays(std::FILE* out, const Replays& replays);

}  // namespace perfbench
