// Mergeable study reports: the canonical row stream of a (possibly
// sharded) study run.
//
// Shard k of a study solves a deterministic slice of the expanded
// scenario list and emits its rows tagged with GLOBAL scenario indices;
// merging is then a pure order-restore: concatenate the shards' rows,
// sort by (scenario, point), verify exact coverage of 0..total-1, and
// write — byte-for-byte the file the unsharded run would have written,
// because every field of a row is deterministic (values are bit-identical
// across worker counts and batch compositions; wall-clock timings are
// deliberately excluded).
//
// CSV layout (header line, then one row per grid point, or one row per
// FAILED scenario with the error in the last field):
//
//   # rrl-study v1 scenarios=<total>
//   scenario,point,model,solver,measure,epsilon,t,value,dtmc_steps,error
//
// Fields containing commas/quotes/newlines are double-quote escaped
// (standard CSV); doubles are printed with %.17g so values round-trip
// exactly.
//
// Timings mode (--timings) appends two diagnostic columns, `seconds`
// (the scenario's solve wall-clock, repeated on each of its rows) and
// `cache_tier` (where the scenario's solver came from: mem | disk | cold |
// none), so stragglers and cold compiles are attributable per scenario.
// Both are non-deterministic or deployment-dependent, so timings reports
// are EXCLUDED from byte-compare mode: the byte-identity guarantees (shard
// merge == unsharded, serve == single-process, warm == cold) are stated
// for the canonical 10-column layout only. The reader accepts either
// layout and reports which one it saw.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rrl {

/// One report row: a (scenario, grid point) value, or a scenario failure
/// (point == 0, empty value fields, non-empty error).
struct ReportRow {
  std::uint64_t scenario = 0;  ///< GLOBAL scenario index in the expansion
  std::uint64_t point = 0;     ///< grid point index within the scenario
  std::string model;
  std::string solver;
  std::string measure;  ///< "trr" | "mrr"
  double epsilon = 0.0;
  double t = 0.0;
  double value = 0.0;
  std::int64_t dtmc_steps = 0;
  std::string error;  ///< non-empty iff the scenario failed
  /// Diagnostic fields, written only in timings mode (see header comment).
  double seconds = 0.0;  ///< scenario solve wall-clock
  std::string tier;      ///< solver provenance ("mem"|"disk"|"cold"|"none")

  [[nodiscard]] bool failed() const noexcept { return !error.empty(); }
};

/// Write the canonical report: metadata line, header, rows in the given
/// order (callers pass rows already in global order). `timings` appends
/// the diagnostic columns (never in byte-compared reports).
void write_report_csv(std::ostream& out, std::uint64_t total_scenarios,
                      const std::vector<ReportRow>& rows,
                      bool timings = false);

/// The report prologue (metadata line + column header) and a single row —
/// write_report_csv's own building blocks, exposed so the incremental
/// reducer (study_reduce.hpp) emits byte-for-byte the same stream while
/// flushing rows as units finish.
void write_report_header(std::ostream& out, std::uint64_t total_scenarios,
                         bool timings = false);
void write_report_row(std::ostream& out, const ReportRow& row,
                      bool timings = false);

/// Parse a report produced by write_report_csv (either column layout).
/// Returns the rows and sets `total_scenarios` from the metadata line;
/// `timings` (when non-null) reports whether the diagnostic columns were
/// present. Throws contract_error on malformed input.
[[nodiscard]] std::vector<ReportRow> read_report_csv(
    std::istream& in, std::uint64_t& total_scenarios,
    bool* timings = nullptr);

/// Row coverage of the scenarios [first, first + count): every row inside
/// the range, rows sorted by (scenario, point) without duplicates, and at
/// least one row for every scenario of the range (a failed scenario has
/// its error row). Throws contract_error, its message prefixed with
/// `where` ("merge", "reduce"), on the first violation.
void check_row_coverage(const std::vector<ReportRow>& rows,
                        std::uint64_t first, std::uint64_t count,
                        const char* where);

/// Merge shard reports: all inputs must agree on total_scenarios; rows are
/// sorted by (scenario, point) and must cover [0, total) exactly
/// (check_row_coverage).
/// Returns the merged rows (write_report_csv of these reproduces the
/// unsharded report byte-for-byte). Throws contract_error on overlap,
/// gaps, or metadata mismatch.
[[nodiscard]] std::vector<ReportRow> merge_report_rows(
    const std::vector<std::vector<ReportRow>>& shards,
    const std::vector<std::uint64_t>& shard_totals,
    std::uint64_t& total_scenarios);

}  // namespace rrl
