// Test helper: how far a process-wide counter (support/metrics.hpp) moved.
// Counters only grow and a test binary runs its tests one at a time, so a
// delta taken around a call is what that call counted.
#pragma once

#include <cstdint>

#include "support/metrics.hpp"

namespace rrl {

/// Growth of a process-wide counter since construction.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(&metrics::counter(name)), start_(counter_->value()) {}
  [[nodiscard]] std::uint64_t operator()() const {
    return counter_->value() - start_;
  }

 private:
  const metrics::Counter* counter_;
  std::uint64_t start_;
};

}  // namespace rrl
