// Incremental study reduction — the last stage of the plan / dispatch /
// execute / reduce pipeline.
//
// Work units finish in arbitrary order (that is the point of dynamic
// dispatch), but the canonical report is ordered by global scenario index.
// Because the planner's units are CONTIGUOUS scenario ranges, order
// restoration does not require buffering the whole study: the reducer
// holds only the units that finished ahead of the in-order frontier and
// flushes every maximal contiguous prefix the moment it completes — rows
// stream into the output as results arrive, and the finished file is
// byte-for-byte what write_report_csv would have produced from the fully
// sorted row list (both go through the same header/row writers).
//
// Validation is merge_report_rows' own check (check_row_coverage), at
// unit granularity so it can run online: each added unit's rows must stay
// inside the unit's declared range, be sorted by (scenario, point)
// without duplicates, and cover every scenario of the range (a failed
// scenario contributes its error row); overlapping or duplicate units are
// rejected when added, and
// finish() rejects a study with ranges never delivered. A unit that was
// dispatched twice (worker death re-dispatch) must therefore be reported
// to the reducer only once — the dispatcher's job.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "study/study_report.hpp"

namespace rrl {

class StudyReducer {
 public:
  /// Writes the report prologue to `out` immediately; rows follow as
  /// units land. `timings` selects the extended column layout (excluded
  /// from byte-compare mode).
  StudyReducer(std::ostream& out, std::uint64_t total_scenarios,
               bool timings = false);

  /// Add one finished unit covering global scenarios
  /// [first_scenario, first_scenario + scenario_count) with its report
  /// rows in canonical order. Flushes every row that became contiguous
  /// with what is already written. Throws contract_error on overlap,
  /// out-of-range or unsorted rows, or a scenario of the range with no
  /// row.
  void add_unit(std::uint64_t first_scenario, std::uint64_t scenario_count,
                std::vector<ReportRow> rows);

  /// Declare the study complete: every scenario must have been flushed.
  /// Throws contract_error when ranges are missing (e.g. all workers died
  /// with units still queued).
  void finish();

  /// Scenarios flushed to the output so far (the in-order frontier).
  [[nodiscard]] std::uint64_t scenarios_flushed() const noexcept {
    return next_;
  }
  [[nodiscard]] std::uint64_t total_scenarios() const noexcept {
    return total_;
  }
  [[nodiscard]] std::size_t rows_written() const noexcept {
    return rows_written_;
  }
  /// FAILED scenarios seen so far (error rows) — the study's partial-
  /// failure signal, surfaced in the exit code by the CLI.
  [[nodiscard]] std::size_t failed_scenarios() const noexcept {
    return failed_;
  }

 private:
  void flush_ready();

  std::ostream& out_;
  std::uint64_t total_ = 0;
  bool timings_ = false;
  std::uint64_t next_ = 0;  ///< first scenario not yet written
  std::size_t rows_written_ = 0;
  std::size_t failed_ = 0;
  /// Units finished ahead of the frontier, keyed by first scenario.
  struct PendingUnit {
    std::uint64_t count = 0;
    std::vector<ReportRow> rows;
  };
  std::map<std::uint64_t, PendingUnit> pending_;
};

}  // namespace rrl
