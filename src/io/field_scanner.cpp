#include "io/field_scanner.hpp"

#include <algorithm>
#include <charconv>

namespace rrl {
namespace {

bool is_space(char c) noexcept {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

bool is_digit(char c) noexcept {
  return static_cast<unsigned char>(c - '0') <= 9;
}

// Whether a decimal that from_chars found out of range overflowed rather
// than underflowed. Its magnitude is past 1e308 or below 1e-323, so the
// power of ten of its leading digit settles it.
bool overflowed(const char* first, const char* last) noexcept {
  const char* const e =
      std::find_if(first, last, [](char c) { return c == 'e' || c == 'E'; });
  const char* const point = std::find(first, e, '.');
  const char* const lead =
      std::find_if(first, e, [](char c) { return c != '0' && c != '.'; });
  const long long order = lead < point ? point - lead : point + 1 - lead;
  long long exponent = 0;
  for (const char* p = e; p != last; ++p) {
    if (is_digit(*p)) {
      exponent = std::min(exponent * 10 + (*p - '0'), 1'000'000'000'000LL);
    }
  }
  return order + (e != last && e[1] == '-' ? -exponent : exponent) > 0;
}

}  // namespace

bool parse_number(std::string_view field, int& value) noexcept {
  const char* first = field.data();
  const char* const last = first + field.size();
  const bool sign = first != last && (*first == '+' || *first == '-');
  if (first + sign == last || !is_digit(first[sign])) return false;
  if (*first == '+') ++first;  // from_chars takes '-' but not '+'
  const auto [end, ec] = std::from_chars(first, last, value);
  return ec == std::errc() && end == last;
}

bool parse_number(std::string_view field, double& value) noexcept {
  const char* first = field.data();
  const char* const last = first + field.size();
  const bool negative = first != last && *first == '-';
  if (first != last && (negative || *first == '+')) ++first;
  // from_chars would also take "inf", "nan" and a second sign.
  if (first == last || !(is_digit(*first) || *first == '.')) return false;
  double magnitude = 0.0;
  const auto [end, ec] = std::from_chars(first, last, magnitude);
  if (end != last) return false;
  if (ec == std::errc::result_out_of_range) {
    if (overflowed(first, last)) return false;
    magnitude = 0.0;
  } else if (ec != std::errc()) {
    return false;
  }
  value = negative ? -magnitude : magnitude;
  return true;
}

bool FieldScanner::next(std::string_view& field) noexcept {
  const auto begin = std::find_if_not(rest_.begin(), rest_.end(), is_space);
  const auto end = std::find_if(begin, rest_.end(), is_space);
  field = std::string_view(begin, end);
  rest_ = std::string_view(end, rest_.end());
  return !field.empty();
}

}  // namespace rrl
