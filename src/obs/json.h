// Minimal streaming JSON writer — the one serializer behind every XTRACE
// export (metrics JSON, Chrome trace-event JSON, BENCH_*.json). Emits
// syntactically valid JSON by construction: commas and colons are inserted
// from a nesting stack, strings are escaped per RFC 8259, and non-finite
// doubles degrade to null (JSON has no NaN/Inf).

#ifndef ISDL_OBS_JSON_H
#define ISDL_OBS_JSON_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace isdl::obs {

/// Escapes `s` for use inside a JSON string literal (no surrounding quotes).
std::string jsonEscape(std::string_view s);

class JsonWriter {
 public:
  /// `pretty` inserts newlines and two-space indentation; compact otherwise.
  explicit JsonWriter(std::ostream& out, bool pretty = true);

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Emits an object key; the next value/begin* call is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// key(k) + value(v) in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// True once every container opened has been closed.
  bool done() const { return stack_.empty() && wroteTop_; }

 private:
  struct Level {
    bool isObject = false;
    bool first = true;
    bool expectValue = false;  ///< a key was written, value pending
  };

  std::ostream& out_;
  bool pretty_;
  bool wroteTop_ = false;
  std::vector<Level> stack_;

  void beforeValue();
  void indent();
};

}  // namespace isdl::obs

#endif  // ISDL_OBS_JSON_H
