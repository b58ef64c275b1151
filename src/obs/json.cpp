#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace isdl::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

JsonWriter::JsonWriter(std::ostream& out, bool pretty)
    : out_(out), pretty_(pretty) {}

void JsonWriter::indent() {
  if (!pretty_) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::beforeValue() {
  if (stack_.empty()) {
    wroteTop_ = true;
    return;
  }
  Level& top = stack_.back();
  if (top.expectValue) {
    // Value follows its key on the same line.
    top.expectValue = false;
    return;
  }
  if (!top.first) out_ << ',';
  top.first = false;
  indent();
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ << '{';
  stack_.push_back({true, true, false});
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) indent();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ << '[';
  stack_.push_back({false, true, false});
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) indent();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  Level& top = stack_.back();
  if (!top.first) out_ << ',';
  top.first = false;
  indent();
  out_ << '"' << jsonEscape(k) << (pretty_ ? "\": " : "\":");
  top.expectValue = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  out_ << '"' << jsonEscape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    out_ << "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ << (v ? "true" : "false");
  return *this;
}

}  // namespace isdl::obs
