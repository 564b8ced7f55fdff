// Tiny command-line option parser used by the examples and benchmark
// harnesses (no external dependencies; supports --key=value and --key value
// as well as boolean flags).
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/contracts.hpp"

namespace rrl {

/// Parses `--key=value`, `--key value` and bare `--flag` arguments.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[arg] = argv[++i];
      } else {
        options_[arg] = "true";
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return options_.count(key) != 0;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }

  /// The value must be a finite number with nothing after it ("2x" is
  /// rejected, not read as 2; so are "inf", "nan" and "1e999"); a bad
  /// value throws contract_error naming the option.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value)) {
      reject(key, it->second, "a finite number");
    }
    return value;
  }

  /// The value must be a whole number in long's range ("4x", "2.5" and
  /// "abc" are rejected, not read as 4, 2 and 0).
  [[nodiscard]] long get_long(const std::string& key, long fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
      reject(key, it->second, "a whole number");
    }
    return value;
  }

  /// A count: a whole number from 0 to `max` (a larger or negative one
  /// is rejected, not narrowed to int).
  [[nodiscard]] int get_count(const std::string& key, int fallback,
                              int max) const {
    const long value = get_long(key, fallback);
    if (value < 0 || value > max) {
      reject(key, get_string(key, ""),
             ("a count from 0 to " + std::to_string(max)).c_str());
    }
    return static_cast<int>(value);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  [[noreturn]] static void reject(const std::string& key,
                                  const std::string& value, const char* what) {
    throw contract_error("--" + key + " needs " + what + ", got '" + value +
                         "'");
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Splits `spec` at `separator`, dropping empty tokens ("a,,b" -> a, b).
[[nodiscard]] inline std::vector<std::string> parse_string_list(
    const std::string& spec, char separator = ',') {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(separator, begin);
    if (end == std::string::npos) end = spec.size();
    if (end > begin) tokens.push_back(spec.substr(begin, end - begin));
    begin = end + 1;
  }
  return tokens;
}

/// Parses a separated list of doubles ("1,10,100" or "1:1e5:20"). Empty
/// tokens are skipped; a token that is not entirely a finite number
/// ("10;100", "20x", "inf", "nan") throws contract_error naming it, rather
/// than being truncated at the first bad character or dropped.
[[nodiscard]] inline std::vector<double> parse_double_list(
    const std::string& spec, char separator = ',') {
  std::vector<double> values;
  for (const std::string& token : parse_string_list(spec, separator)) {
    const char* str = token.c_str();
    char* parsed_end = nullptr;
    const double v = std::strtod(str, &parsed_end);
    if (parsed_end == str || *parsed_end != '\0' || !std::isfinite(v)) {
      throw contract_error("'" + token + "' is not a finite number");
    }
    values.push_back(v);
  }
  return values;
}

}  // namespace rrl
