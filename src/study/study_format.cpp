#include "study/study_format.hpp"

#include <cmath>
#include <fstream>
#include <string_view>

#include "io/field_scanner.hpp"
#include "support/contracts.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

[[noreturn]] void parse_fail(int line, const std::string& message) {
  throw contract_error("study file, line " + std::to_string(line) + ": " +
                       message);
}

// Resolve `path` against `base_dir` unless it is absolute.
std::string resolved(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') return path;
  return base_dir + "/" + path;
}

}  // namespace

StudySpec read_study(std::istream& in, const std::string& base_dir) {
  StudySpec spec;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    FieldScanner line(raw);
    std::string_view word;
    if (!line.next(word)) continue;  // blank / comment-only line
    const std::string keyword(word);

    // Single-operand keywords reject trailing tokens so that list-style
    // input ("grid a:b:c d:e:f") fails loudly instead of silently
    // shrinking the expansion; use one line per grid.
    const auto reject_extras = [&] {
      if (std::string_view extra; line.next(extra)) {
        parse_fail(line_no, "'" + keyword + "' takes exactly one operand "
                                "(got '" + std::string(extra) +
                                "' after it)");
      }
    };
    // The rest of the line as positive numbers.
    const auto read_positive = [&](const char* what) {
      std::vector<double> values;
      for (std::string_view field; line.next(field);) {
        double v = 0.0;
        if (!parse_number(field, v)) {
          parse_fail(line_no, std::string("malformed ") + what + " value");
        }
        if (!(v > 0.0)) parse_fail(line_no, std::string(what) +
                                                "s must be positive");
        values.push_back(v);
      }
      if (values.empty()) {
        parse_fail(line_no, std::string("'") + what +
                                "s' needs at least one value");
      }
      return values;
    };

    if (keyword == "model") {
      std::string_view path;
      if (!line.next(path)) parse_fail(line_no, "'model' needs a path");
      reject_extras();
      spec.model_labels.emplace_back(path);
      spec.models.push_back(resolved(base_dir, std::string(path)));
    } else if (keyword == "solvers") {
      std::vector<std::string> names;
      for (std::string_view name; line.next(name);) names.emplace_back(name);
      if (names.empty()) {
        parse_fail(line_no, "'solvers' needs 'all' or solver names");
      }
      if (names.size() == 1 && names.front() == "all") {
        spec.solvers.clear();  // resolved against the registry at run time
      } else {
        spec.solvers = std::move(names);
      }
    } else if (keyword == "measures") {
      std::vector<MeasureKind> measures;
      for (std::string_view token; line.next(token);) {
        if (token == "trr") {
          measures.push_back(MeasureKind::kTrr);
        } else if (token == "mrr") {
          measures.push_back(MeasureKind::kMrr);
        } else if (token == "both") {
          measures.push_back(MeasureKind::kTrr);
          measures.push_back(MeasureKind::kMrr);
        } else {
          parse_fail(line_no, "'measures' accepts trr, mrr or both (got '" +
                                  std::string(token) + "')");
        }
      }
      if (measures.empty()) {
        parse_fail(line_no, "'measures' needs trr, mrr or both");
      }
      spec.measures = std::move(measures);
    } else if (keyword == "epsilons" || keyword == "epsilon") {
      spec.epsilons = read_positive("epsilon");
    } else if (keyword == "grid") {
      std::string_view body;
      if (!line.next(body)) {
        parse_fail(line_no, "'grid' needs <lo>:<hi>:<count>");
      }
      const auto c1 = body.find(':');
      const auto c2 = c1 == body.npos ? c1 : body.find(':', c1 + 1);
      double lo = 0.0, hi = 0.0, count = 0.0;
      if (c2 == body.npos || !parse_number(body.substr(0, c1), lo) ||
          !parse_number(body.substr(c1 + 1, c2 - c1 - 1), hi) ||
          !parse_number(body.substr(c2 + 1), count) || lo <= 0.0 ||
          hi < lo || count < 1.0 || count > 100000.0 ||
          count != std::floor(count)) {
        parse_fail(line_no,
                   "'grid' expects lo:hi:count with 0 < lo <= hi and an "
                   "integer 1 <= count <= 100000");
      }
      reject_extras();
      spec.grids.push_back(
          log_time_grid(lo, hi, static_cast<int>(count)));
    } else if (keyword == "times") {
      spec.grids.push_back(read_positive("time"));
    } else if (keyword == "regenerative") {
      std::string_view token;
      if (!line.next(token)) {
        parse_fail(line_no, "'regenerative' needs auto or a state index");
      }
      if (token == "auto") {
        spec.regenerative = -1;
      } else if (index_t s = -1; parse_number(token, s) && s >= 0) {
        spec.regenerative = s;
      } else {
        parse_fail(line_no,
                   "'regenerative' needs auto or a non-negative index");
      }
      reject_extras();
    } else if (keyword == "jobs") {
      if (!line.next(spec.jobs) || spec.jobs < 1) {
        parse_fail(line_no, "'jobs' needs a positive count");
      }
      if (spec.jobs > kMaxJobs) {
        parse_fail(line_no,
                   "'jobs' may not exceed " + std::to_string(kMaxJobs));
      }
      reject_extras();
    } else {
      parse_fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }

  if (spec.models.empty()) {
    throw contract_error("study file: no 'model' line");
  }
  if (spec.grids.empty()) {
    throw contract_error("study file: no 'grid' or 'times' line");
  }
  return spec;
}

StudySpec read_study_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw contract_error("cannot open study file: " + path);
  const auto slash = path.rfind('/');
  const std::string base_dir =
      slash == std::string::npos ? std::string() : path.substr(0, slash);
  return read_study(in, base_dir);
}

}  // namespace rrl
