// Small string utilities shared by the trace reader/writer and report code.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace iop::util {

/// Split on any run of whitespace; no empty tokens.
std::vector<std::string> splitWhitespace(std::string_view text);

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Append `value` as std::to_chars renders it: for integers, and for a
/// double with (std::chars_format::fixed, precision), the same text as
/// printf's %d / %llu / %.*f in the C locale, without printf's per-call
/// format parsing.
template <typename T, typename... Format>
void appendChars(std::string& out, T value, Format... format) {
  // The longest field is a double in fixed notation: DBL_MAX has 309
  // integer digits, plus sign, point and the requested decimals.
  char buf[352];
  const auto res = std::to_chars(buf, buf + sizeof buf, value, format...);
  out.append(buf, res.ptr);
}

}  // namespace iop::util
