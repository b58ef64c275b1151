// Small string helpers used across the toolchain.

#ifndef ISDL_SUPPORT_STRINGS_H
#define ISDL_SUPPORT_STRINGS_H

#include <sstream>
#include <string>
#include <string_view>
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

/// printf-free formatting helper: cat(1, " + ", x) etc.
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace isdl

#endif  // ISDL_SUPPORT_STRINGS_H
