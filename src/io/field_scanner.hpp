// One field scanner for the line-oriented text formats: `.rrlm` model files
// (io/model_format.hpp) and `.study` files (study/study_format.hpp).
//
// A line is a run of fields separated by whitespace, where whitespace is
// what isspace() calls it in the C locale (space, \t, \n, \v, \f, \r), so
// tabs and CRLF line ends read like spaces; '#' starts a comment that runs
// to the end of the line. A number is one whole field, spelled as
// operator>> reads it: an optional '+' or '-', then decimal digits with an
// optional point and exponent. Doubles go through std::from_chars and so
// round correctly, like the strtod behind operator>>. inf, nan, a bare
// exponent ("1e") and overflow are malformed; underflow reads as a zero of
// the field's sign, as strtod rounds it. Unlike operator>>, a number never
// stops short of its field's end: "2.5abc", "0x1p3" and "1.5" where an
// integer is due are malformed, not read up to their first foreign
// character, and an integer that does not fit an int is malformed too.
#pragma once

#include <string_view>

namespace rrl {

/// `field`, whole, as a number (see above); false when it is malformed or
/// out of range.
[[nodiscard]] bool parse_number(std::string_view field, int& value) noexcept;
[[nodiscard]] bool parse_number(std::string_view field,
                                double& value) noexcept;

/// The fields of one line, left to right. The line must outlive it.
class FieldScanner {
 public:
  /// Scans `line` up to its first '#'.
  explicit FieldScanner(std::string_view line) noexcept
      : rest_(line.substr(0, line.find('#'))) {}

  /// The next field; false when the line has none left.
  bool next(std::string_view& field) noexcept;

  /// The next field as an int or a double; false when the line has none
  /// left or the field is malformed.
  template <typename Number>
  bool next(Number& value) noexcept {
    std::string_view field;
    return next(field) && parse_number(field, value);
  }

 private:
  std::string_view rest_;
};

}  // namespace rrl
