// Small string helpers used across the toolchain.

#ifndef ISDL_SUPPORT_STRINGS_H
#define ISDL_SUPPORT_STRINGS_H

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace isdl {

inline std::vector<std::string_view> splitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t p = text.find(sep, start);
    if (p == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, p - start));
    start = p + 1;
  }
  return parts;
}

template <typename Range>
std::string join(const Range& items, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    first = false;
    out += item;
  }
  return out;
}

namespace detail {

/// Appends `v` as `std::ostream << v` would print it: strings and
/// characters as they are, bool as 1/0, integers in decimal, floating point
/// in the stream's default form (printf's %g with 6 digits). Anything else
/// goes through its operator<<.
template <typename T>
void appendTo(std::string& out, const T& v) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(v);
  } else if constexpr (std::is_same_v<U, char> ||
                       std::is_same_v<U, signed char> ||
                       std::is_same_v<U, unsigned char>) {
    out += static_cast<char>(v);
  } else if constexpr (std::is_same_v<U, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_integral_v<U>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_same_v<U, float> || std::is_same_v<U, double>) {
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, double(v),
                                  std::chars_format::general, 6)
                        .ptr);
  } else {
    std::ostringstream os;
    os << v;
    out += std::move(os).str();
  }
}

}  // namespace detail

/// Appends each argument to `out` exactly as `std::ostream <<` prints it.
template <typename... Args>
void catTo(std::string& out, const Args&... args) {
  (detail::appendTo(out, args), ...);
}

/// printf-free formatting helper: cat(1, " + ", x) etc. Prints each argument
/// exactly as `std::ostream <<` does.
template <typename... Args>
std::string cat(const Args&... args) {
  std::string out;
  catTo(out, args...);
  return out;
}

}  // namespace isdl

#endif  // ISDL_SUPPORT_STRINGS_H
