#pragma once

// Locale-independent floating-point parsing and formatting. std::strtod and
// plain ostream formatting honor the process locale: under e.g. de_DE a
// telemetry line "loss":0.5 would parse as 0 (comma decimal separator) and
// doubles would print as "0,5", silently corrupting every JSON artifact.
// All numeric text the repo reads or writes goes through these helpers, and
// every JSON string it writes goes through json_escape.

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <iomanip>
#include <locale>
#include <sstream>
#include <string>

namespace sgnn::util {

/// Parses a double from the character range [first, last) using the classic
/// ("C") locale regardless of the process locale. On success returns true
/// and sets `consumed` (when non-null) to the number of characters used; on
/// failure returns false and leaves `out` untouched.
inline bool parse_double(const char* first, const char* last, double& out,
                         std::size_t* consumed = nullptr) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  double value = 0;
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc{} || result.ptr == first) return false;
  out = value;
  if (consumed != nullptr) {
    *consumed = static_cast<std::size_t>(result.ptr - first);
  }
  return true;
#else
  // Fallback for standard libraries without FP from_chars: an istringstream
  // pinned to the classic locale.
  std::istringstream is(std::string(first, last));
  is.imbue(std::locale::classic());
  double value = 0;
  is >> value;
  if (is.fail()) return false;
  out = value;
  if (consumed != nullptr) {
    *consumed = is.eof() ? static_cast<std::size_t>(last - first)
                         : static_cast<std::size_t>(is.tellg());
  }
  return true;
#endif
}

/// Null-terminated-string convenience overload.
inline bool parse_double(const char* str, double& out,
                         std::size_t* consumed = nullptr) {
  return parse_double(str, str + std::char_traits<char>::length(str), out,
                      consumed);
}

inline bool parse_double(const std::string& str, double& out,
                         std::size_t* consumed = nullptr) {
  return parse_double(str.data(), str.data() + str.size(), out, consumed);
}

/// Formats a double with enough digits to round-trip (classic locale, so
/// the decimal separator is always '.').
inline std::string format_double(double value, int precision = 17) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::setprecision(precision) << value;
  return os.str();
}

/// `s` escaped for the inside of a JSON string: quote, backslash and every
/// control character (as \n, \t, \r or \u00XX).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace sgnn::util
