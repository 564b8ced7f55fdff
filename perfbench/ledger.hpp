// The span ledger of one traced phase: every trace::Span the phase
// recorded — the benchmark's own spans around its calls and the spans the
// library emits — reduced to per-span self time, inclusive time and wall
// share.
//
// Self time is a span's duration minus the time its child spans on the
// same thread cover (thread-seconds, so parallel spans add up past the
// wall). Wall share splits each instant of the phase evenly over the
// threads that have a span open and credits each thread's innermost span,
// so the shares of all spans plus `unattributed_s` — the instants only the
// phase's own span covers — add up to the phase's wall time.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t arg_sum = 0;  ///< sum of the spans' numeric payloads
  double inclusive_s = 0.0;   ///< sum of durations
  double self_s = 0.0;        ///< sum of self times
  double wall_share_s = 0.0;
};

struct PhaseLedger {
  double wall_s = 0.0;          ///< duration of the phase's own span
  double unattributed_s = 0.0;  ///< wall share of the phase's own span
  std::map<std::string, SpanTotals> spans;  ///< every other span, by name

  /// Totals of the spans called `name` (zero when none ran).
  [[nodiscard]] SpanTotals get(const std::string& name) const;
};

/// Drains every buffered trace event and builds the ledger of the phase
/// whose span is called `phase_span`.
[[nodiscard]] PhaseLedger drain_phase_ledger(const char* phase_span);

/// Prints the phase's wall share by layer (the modules under src/) and by
/// span; the layer shares and unattributed_s add up to the wall time.
void print_phase_ledger(std::FILE* out, const char* phase,
                        const PhaseLedger& ledger);

}  // namespace perfbench
