#include "util/parse.hpp"

#include <algorithm>
#include <istream>

namespace epi::util {

namespace {

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Split off the next whitespace-separated token of `s`; empty at the end.
std::string_view next_token(std::string_view& s) {
  std::size_t begin = 0;
  while (begin < s.size() && is_space(s[begin])) ++begin;
  std::size_t end = begin;
  while (end < s.size() && !is_space(s[end])) ++end;
  const std::string_view token = s.substr(begin, end - begin);
  s.remove_prefix(end);
  return token;
}

/// Whether `key` is one of the space-separated `keys`.
bool listed(std::string_view keys, std::string_view key) {
  if (key.empty()) return false;
  for (auto at = keys.find(key); at != std::string_view::npos; at = keys.find(key, at + 1)) {
    const auto end = at + key.size();
    if ((at == 0 || keys[at - 1] == ' ') && (end == keys.size() || keys[end] == ' ')) return true;
  }
  return false;
}

std::string quoted(std::string_view s) { return "'" + std::string(s) + "'"; }

}  // namespace

Line::Line(std::string_view source, unsigned number, std::string_view text)
    : source_(source) {
  tokenize(number, text);
}

void Line::tokenize(unsigned number, std::string_view text) {
  number_ = number;
  directive_ = next_token(text);
  words_.clear();
  fields_.clear();
  if (directive_.starts_with('#')) directive_ = {};
  if (directive_.empty()) return;
  for (std::string_view t = next_token(text); !t.empty() && t[0] != '#'; t = next_token(text)) {
    const auto eq = t.find('=');
    if (eq == std::string_view::npos) {
      words_.push_back(t);
    } else if (find(t.substr(0, eq))) {
      throw error("duplicate field " + quoted(t.substr(0, eq)));
    } else {
      fields_.emplace_back(t.substr(0, eq), t.substr(eq + 1));
    }
  }
}

ParseError error_at(std::string_view source, unsigned line, const std::string& why) {
  return ParseError(std::string(source) + ":" + std::to_string(line) + ": " + why);
}

ParseError Line::error(const std::string& why) const {
  return error_at(source_, number_, why);
}

ParseError Line::field_error(std::string_view key, const std::string& what) const {
  return error("field " + quoted(key) + " " + what + " " + quoted(*find(key)));
}

std::string_view Line::value() const {
  if (words_.size() != 1 || !fields_.empty()) {
    throw error(quoted(directive_) + " takes exactly one value");
  }
  return words_[0];
}

void Line::fields(std::string_view required, std::string_view optional) const {
  if (!words_.empty()) throw error("field " + quoted(words_[0]) + " is not key=value");
  for (const auto& [key, value] : fields_) {
    if (!listed(required, key) && !listed(optional, key)) {
      throw error("unknown field " + quoted(key) + " for " + quoted(directive_));
    }
  }
  for (std::string_view k = next_token(required); !k.empty(); k = next_token(required)) {
    if (!find(k)) throw error(quoted(directive_) + " needs " + std::string(k) + "=");
  }
}

std::optional<std::string_view> Line::find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<unsigned> Line::choice(std::string_view key,
                                     std::initializer_list<std::string_view> names) const {
  const auto v = find(key);
  if (!v) return std::nullopt;
  std::string want;
  for (unsigned i = 0; i < names.size(); ++i) {
    if (names.begin()[i] == *v) return i;
    want += (i == 0 ? "" : i + 1 == names.size() ? " or " : ", ") + quoted(names.begin()[i]);
  }
  throw field_error(key, "must be " + want + ", got");
}

void for_each_line(std::istream& in, std::string_view source,
                   const std::function<void(const Line&)>& f) {
  Line line(source, 0, {});  // one Line reused: its vectors keep capacity
  std::string text;
  for (unsigned number = 1; std::getline(in, text); ++number) {
    line.tokenize(number, text);
    if (!line.empty()) f(line);
  }
}

std::optional<std::string_view> Flag::value(std::string_view flag) const {
  if (!arg_.starts_with(flag) || arg_.size() == flag.size() || arg_[flag.size()] != '=') {
    return std::nullopt;
  }
  if (arg_.size() == flag.size() + 1) fail(flag, "a value");
  return arg_.substr(flag.size() + 1);
}

bool Flag::text(std::string_view flag, std::string& out) const {
  const auto v = value(flag);
  if (v) out = std::string(*v);
  return v.has_value();
}

bool Flag::fraction(std::string_view flag, double& out) const {
  const auto v = value(flag);
  if (v && (parse_number(*v, out) != std::errc{} || out > 1.0)) {
    fail(flag, "a fraction in [0,1]");
  }
  return v.has_value();
}

bool Flag::shape(std::string_view flag, unsigned& rows, unsigned& cols) const {
  const auto v = value(flag);
  if (v && (!parse_pair(*v, 'x', rows, cols) || rows == 0 || cols == 0)) {
    fail(flag, "RxC with R,C >= 1 (e.g. 2x2)");
  }
  return v.has_value();
}

void Flag::fail(std::string_view flag, const std::string& want) const {
  throw ParseError(std::string(flag) + " needs " + want + ", got " +
                   quoted(arg_.substr(std::min(flag.size() + 1, arg_.size()))));
}

}  // namespace epi::util
