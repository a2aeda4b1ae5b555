#pragma once
// Strict parsing shared by every text input the host side reads: the
// fault-plan and workload-spec line formats (fault/plan.hpp,
// sched/workload.hpp) and the tools' command-line flags.
//
// One number rule everywhere: an unsigned decimal that is the whole token
// and fits the target type -- the form save() writes. "12abc", "0x10",
// "-5", "" and 4294967297 for a 32-bit field are errors, never a truncated
// or wrapped value.

#include <charconv>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace epi::util {

/// Malformed input. Line-format errors read "source:line: message"; flag
/// errors name the flag.
class ParseError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// "source:line: why".
[[nodiscard]] ParseError error_at(std::string_view source, unsigned line,
                                  const std::string& why);

/// Read `s` into `out` under the number rule above. `base` 16 reads bare
/// hex digits, for a caller that strips its own documented `0x`. A
/// floating-point T reads a finite, non-negative decimal such as 0.25.
/// Returns errc{} on success, invalid_argument for a malformed token, or
/// result_out_of_range when the value does not fit T; `out` is unchanged
/// on failure.
template <class T>
[[nodiscard]] std::errc parse_number(std::string_view s, T& out, int base = 10) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T v{};
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(s.data(), s.data() + s.size(), v);
    if (r.ec == std::errc{} && (!std::isfinite(v) || std::signbit(v))) {
      r.ec = std::errc::invalid_argument;
    }
  } else {
    r = std::from_chars(s.data(), s.data() + s.size(), v, base);  // no sign
  }
  if (r.ec == std::errc{} && r.ptr != s.data() + s.size()) r.ec = std::errc::invalid_argument;
  if (r.ec == std::errc{}) out = v;
  return r.ec;
}

/// "A<sep>B" with both halves under parse_number's rule: `row,col`
/// coordinates, `RxC` shapes, `id:bytes` pairs. False, with the outputs
/// unchanged, unless both halves parse.
template <class T>
[[nodiscard]] bool parse_pair(std::string_view s, char sep, T& a, T& b) {
  const auto at = s.find(sep);
  T x{}, y{};
  if (at == std::string_view::npos || parse_number(s.substr(0, at), x) != std::errc{} ||
      parse_number(s.substr(at + 1), y) != std::errc{}) {
    return false;
  }
  a = x;
  b = y;
  return true;
}

/// One line of a line-oriented text format: a directive word, then
/// whitespace-separated `key=value` fields. A directive with a positional
/// value (`seed 7`) reads it with value(). A token that starts with `#`
/// comments out the rest of the line. The Line views the text it was built
/// from, which must outlive it.
class Line {
 public:
  /// Tokenize line `number` of `source`; throws ParseError on a repeated key.
  Line(std::string_view source, unsigned number, std::string_view text);

  /// Blank or comment-only.
  [[nodiscard]] bool empty() const noexcept { return directive_.empty(); }
  [[nodiscard]] std::string_view directive() const noexcept { return directive_; }
  [[nodiscard]] unsigned number() const noexcept { return number_; }

  /// error_at(source, number(), why).
  [[nodiscard]] ParseError error(const std::string& why) const;

  /// The single positional value of a `directive VALUE` line; throws unless
  /// the line holds exactly that.
  [[nodiscard]] std::string_view value() const;

  /// Throws unless every token after the directive is a `key=value` field,
  /// each key listed in the space-separated `required` or `optional`, and
  /// every `required` key present.
  void fields(std::string_view required, std::string_view optional) const;

  [[nodiscard]] std::optional<std::string_view> find(std::string_view key) const;

  /// Index in `names` of field `key`'s value; nullopt when the field is
  /// absent, ParseError when the value is none of `names`.
  [[nodiscard]] std::optional<unsigned> choice(
      std::string_view key, std::initializer_list<std::string_view> names) const;

  /// Read field `key` with parse_number; false (`out` untouched) when the
  /// field is absent, ParseError when it is malformed.
  template <class T>
  bool number(std::string_view key, T& out) const {
    const auto v = find(key);
    const std::errc ec = v ? parse_number(*v, out) : std::errc{};
    if (ec == std::errc::result_out_of_range) throw field_error(key, "value out of range:");
    if (ec != std::errc{}) throw field_error(key, "has non-numeric value");
    return v.has_value();
  }

  /// Read field `key` with parse_pair; `form` names the expected shape
  /// ("row,col") in the error.
  template <class T>
  bool pair(std::string_view key, char sep, T& a, T& b, const char* form) const {
    const auto v = find(key);
    if (v && !parse_pair(*v, sep, a, b)) {
      throw field_error(key, std::string("needs ") + form + ", got");
    }
    return v.has_value();
  }

 private:
  friend void for_each_line(std::istream&, std::string_view,
                            const std::function<void(const Line&)>&);
  void tokenize(unsigned number, std::string_view text);
  /// "field 'KEY' WHAT 'VALUE'".
  [[nodiscard]] ParseError field_error(std::string_view key, const std::string& what) const;

  std::string_view source_;
  unsigned number_ = 0;
  std::string_view directive_;
  std::vector<std::string_view> words_;  // bare tokens after the directive
  std::vector<std::pair<std::string_view, std::string_view>> fields_;
};

/// Call `f` on every non-blank, non-comment line of `in`, numbered from 1.
void for_each_line(std::istream& in, std::string_view source,
                   const std::function<void(const Line&)>& f);

/// One command-line argument matched against `--flag=value` options. Each
/// matcher returns true when the argument is that flag and stores its
/// value; an empty or malformed value throws ParseError naming the flag.
class Flag {
 public:
  explicit Flag(std::string_view arg) noexcept : arg_(arg) {}

  bool text(std::string_view flag, std::string& out) const;
  /// Any parse_number type.
  template <class T>
  bool number(std::string_view flag, T& out) const {
    const auto v = value(flag);
    if (v && parse_number(*v, out) != std::errc{}) {
      if constexpr (std::is_floating_point_v<T>) fail(flag, "a non-negative decimal");
      else fail(flag, "an unsigned decimal up to " + std::to_string(std::numeric_limits<T>::max()));
    }
    return v.has_value();
  }
  /// A fraction in [0,1].
  bool fraction(std::string_view flag, double& out) const;
  /// An `RxC` shape with R, C >= 1.
  bool shape(std::string_view flag, unsigned& rows, unsigned& cols) const;

 private:
  [[nodiscard]] std::optional<std::string_view> value(std::string_view flag) const;
  /// Throws "FLAG needs WANT, got 'VALUE'".
  [[noreturn]] void fail(std::string_view flag, const std::string& want) const;

  std::string_view arg_;
};

}  // namespace epi::util
