// JsonWriter: the one writer behind every JSON document fbdcsim emits —
// the metrics snapshot, the Chrome trace, the timeseries section, the FCT
// table, the bench report, and the tracepoint and flow JSONL streams.
//
// The writer appends to a caller-owned string. It opens and closes objects
// and arrays and places every comma itself, escapes every key and string,
// and formats numbers one way: integers in decimal, doubles at %.17g (which
// round-trips them exactly and never depends on locale here). raw() writes
// a value the caller rendered itself: the bench report's fixed-precision
// fields and documents another exporter already produced.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace fbdcsim::telemetry {

/// Minimal JSON string escaping (quotes, backslashes, control chars): the
/// escape JsonWriter applies to every key and string.
[[nodiscard]] std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_{&out} {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// An object key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view{s}); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  JsonWriter& null() { return raw("null"); }
  /// A value the caller already rendered as JSON, written verbatim.
  JsonWriter& raw(std::string_view json);

  /// key(name), then value(v).
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// Writes the comma a value or key needs after an earlier sibling.
  void separate();

  std::string* out_;
  bool comma_{false};
};

/// The canonical order of every multi-source export: by source id, stable
/// so dumps with equal ids keep their input order.
template <typename Dump>
void sort_by_source(std::vector<Dump>& dumps) {
  std::stable_sort(dumps.begin(), dumps.end(), [](const Dump& a, const Dump& b) {
    return a.source_id < b.source_id;
  });
}

}  // namespace fbdcsim::telemetry
