#include "study/study_report.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/contracts.hpp"

namespace rrl {
namespace {

constexpr const char* kMetaPrefix = "# rrl-study v1 scenarios=";
constexpr const char* kHeader =
    "scenario,point,model,solver,measure,epsilon,t,value,dtmc_steps,error";
constexpr const char* kTimingsSuffix = ",seconds,cache_tier";

std::string csv_escape(const std::string& field) {
  // Newlines are flattened to spaces first: the reader is line-oriented
  // (multi-line quoted fields are not supported), and the only free-text
  // fields are labels and error messages where a space is faithful enough.
  std::string flat = field;
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  if (flat.find_first_of(",\"") == std::string::npos) return flat;
  std::string out = "\"";
  for (const char c : flat) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Split one CSV line into fields, honoring double-quote escaping.
std::vector<std::string> split_csv(const std::string& line, int line_no) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (quoted) {
    throw contract_error("report, line " + std::to_string(line_no) +
                         ": unterminated quoted field");
  }
  fields.push_back(std::move(field));
  return fields;
}

double parse_double(const std::string& field, int line_no) {
  if (field.empty()) return 0.0;
  std::istringstream ss(field);
  double v = 0.0;
  if (!(ss >> v) || !ss.eof()) {
    throw contract_error("report, line " + std::to_string(line_no) +
                         ": bad number '" + field + "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& field, int line_no) {
  std::istringstream ss(field);
  std::uint64_t v = 0;
  if (!(ss >> v) || !ss.eof()) {
    throw contract_error("report, line " + std::to_string(line_no) +
                         ": bad index '" + field + "'");
  }
  return v;
}

}  // namespace

void write_report_header(std::ostream& out, std::uint64_t total_scenarios,
                         bool timings) {
  out << kMetaPrefix << total_scenarios << "\n" << kHeader;
  if (timings) out << kTimingsSuffix;
  out << "\n";
}

void write_report_row(std::ostream& out, const ReportRow& r, bool timings) {
  out << r.scenario << ',' << r.point << ',' << csv_escape(r.model) << ','
      << csv_escape(r.solver) << ',' << r.measure << ','
      << fmt_double(r.epsilon) << ',';
  if (r.failed()) {
    out << ",,," << csv_escape(r.error);
  } else {
    out << fmt_double(r.t) << ',' << fmt_double(r.value) << ','
        << r.dtmc_steps << ',';
  }
  if (timings) {
    out << ',' << fmt_double(r.seconds) << ',' << csv_escape(r.tier);
  }
  out << "\n";
}

void write_report_csv(std::ostream& out, std::uint64_t total_scenarios,
                      const std::vector<ReportRow>& rows, bool timings) {
  write_report_header(out, total_scenarios, timings);
  for (const ReportRow& r : rows) write_report_row(out, r, timings);
}

std::vector<ReportRow> read_report_csv(std::istream& in,
                                       std::uint64_t& total_scenarios,
                                       bool* timings) {
  std::string line;
  int line_no = 0;

  if (!std::getline(in, line)) {
    throw contract_error("report: empty input");
  }
  ++line_no;
  if (line.rfind(kMetaPrefix, 0) != 0) {
    throw contract_error("report: missing '# rrl-study v1' metadata line");
  }
  total_scenarios = parse_u64(line.substr(std::string(kMetaPrefix).size()),
                              line_no);

  if (!std::getline(in, line) ||
      (line != kHeader && line != std::string(kHeader) + kTimingsSuffix)) {
    throw contract_error("report: missing or unexpected header line");
  }
  const bool has_timings = line != kHeader;
  if (timings != nullptr) *timings = has_timings;
  ++line_no;

  const std::size_t want_fields = has_timings ? 12u : 10u;
  std::vector<ReportRow> rows;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> f = split_csv(line, line_no);
    if (f.size() != want_fields) {
      throw contract_error("report, line " + std::to_string(line_no) +
                           ": expected " + std::to_string(want_fields) +
                           " fields, got " + std::to_string(f.size()));
    }
    ReportRow row;
    row.scenario = parse_u64(f[0], line_no);
    row.point = parse_u64(f[1], line_no);
    row.model = f[2];
    row.solver = f[3];
    row.measure = f[4];
    row.epsilon = parse_double(f[5], line_no);
    row.t = parse_double(f[6], line_no);
    row.value = parse_double(f[7], line_no);
    row.dtmc_steps =
        f[8].empty() ? 0
                     : static_cast<std::int64_t>(parse_u64(f[8], line_no));
    row.error = f[9];
    if (has_timings) {
      row.seconds = parse_double(f[10], line_no);
      row.tier = f[11];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void check_row_coverage(const std::vector<ReportRow>& rows,
                        std::uint64_t first, std::uint64_t count,
                        const char* where) {
  const auto reject = [&](const std::string& what) {
    throw contract_error(std::string(where) + ": " + what);
  };
  std::uint64_t expected = first;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReportRow& row = rows[i];
    if (row.scenario < first || row.scenario - first >= count) {
      reject("row for scenario " + std::to_string(row.scenario) +
             " outside [" + std::to_string(first) + ", " +
             std::to_string(first + count) + ")");
    }
    if (i > 0) {
      const ReportRow& prev = rows[i - 1];
      if (row.scenario < prev.scenario ||
          (row.scenario == prev.scenario && row.point <= prev.point)) {
        reject("rows for scenario " + std::to_string(row.scenario) +
               " out of order or duplicated");
      }
    }
    if (row.scenario > expected) {
      reject("no rows for scenario " + std::to_string(expected));
    }
    if (row.scenario == expected) ++expected;
  }
  if (expected != first + count) {
    reject("no rows for scenario " + std::to_string(expected));
  }
}

std::vector<ReportRow> merge_report_rows(
    const std::vector<std::vector<ReportRow>>& shards,
    const std::vector<std::uint64_t>& shard_totals,
    std::uint64_t& total_scenarios) {
  RRL_EXPECTS(!shards.empty());
  RRL_EXPECTS(shards.size() == shard_totals.size());
  total_scenarios = shard_totals.front();
  for (const std::uint64_t t : shard_totals) {
    if (t != total_scenarios) {
      throw contract_error(
          "merge: shard reports disagree on the study size (" +
          std::to_string(t) + " vs " + std::to_string(total_scenarios) +
          " scenarios) — were they produced by the same study?");
    }
  }

  std::vector<ReportRow> merged;
  for (const auto& shard : shards) {
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ReportRow& a, const ReportRow& b) {
                     return a.scenario != b.scenario ? a.scenario < b.scenario
                                                     : a.point < b.point;
                   });

  check_row_coverage(merged, 0, total_scenarios, "merge");
  return merged;
}

}  // namespace rrl
