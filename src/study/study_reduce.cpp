#include "study/study_reduce.hpp"

#include <ostream>
#include <string>
#include <utility>

#include "support/contracts.hpp"

namespace rrl {
namespace {

[[noreturn]] void reject(const std::string& what) {
  throw contract_error("reduce: " + what);
}

}  // namespace

StudyReducer::StudyReducer(std::ostream& out, std::uint64_t total_scenarios,
                           bool timings)
    : out_(out), total_(total_scenarios), timings_(timings) {
  write_report_header(out_, total_, timings_);
}

void StudyReducer::add_unit(std::uint64_t first_scenario,
                            std::uint64_t scenario_count,
                            std::vector<ReportRow> rows) {
  if (scenario_count == 0) reject("empty unit");
  if (first_scenario + scenario_count > total_) {
    reject("unit [" + std::to_string(first_scenario) + ", " +
           std::to_string(first_scenario + scenario_count) +
           ") outside the study (" + std::to_string(total_) +
           " scenarios)");
  }
  if (first_scenario < next_ || pending_.count(first_scenario) != 0) {
    reject("unit for scenario " + std::to_string(first_scenario) +
           " delivered twice — double dispatch?");
  }
  // Range overlap with other pending units: the unit before must end at or
  // before first_scenario; the unit after must start at or after the end.
  const auto after = pending_.lower_bound(first_scenario);
  if (after != pending_.end() &&
      after->first < first_scenario + scenario_count) {
    reject("unit for scenario " + std::to_string(first_scenario) +
           " overlaps the unit for scenario " +
           std::to_string(after->first));
  }
  if (after != pending_.begin()) {
    const auto before = std::prev(after);
    if (before->first + before->second.count > first_scenario) {
      reject("unit for scenario " + std::to_string(first_scenario) +
             " overlaps the unit for scenario " +
             std::to_string(before->first));
    }
  }

  check_row_coverage(rows, first_scenario, scenario_count, "reduce");
  for (const ReportRow& row : rows) {
    if (row.failed() && row.point == 0) ++failed_;
  }

  pending_.emplace(first_scenario,
                   PendingUnit{scenario_count, std::move(rows)});
  flush_ready();
}

void StudyReducer::flush_ready() {
  auto it = pending_.begin();
  while (it != pending_.end() && it->first == next_) {
    for (const ReportRow& row : it->second.rows) {
      write_report_row(out_, row, timings_);
      ++rows_written_;
    }
    next_ += it->second.count;
    it = pending_.erase(it);
  }
  out_.flush();
}

void StudyReducer::finish() {
  if (next_ != total_) {
    reject("no rows for scenario " + std::to_string(next_) +
           " — undelivered work units?");
  }
  RRL_EXPECTS(pending_.empty());
  out_.flush();
}

}  // namespace rrl
