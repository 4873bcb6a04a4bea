#include "fbdcsim/telemetry/json.h"

#include <cstdio>

namespace fbdcsim::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::separate() {
  if (comma_) *out_ += ',';
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  *out_ += bracket;
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  *out_ += bracket;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  *out_ += ':';
  comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  *out_ += '"';
  *out_ += json_escape(s);
  *out_ += '"';
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return raw(buf);
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  *out_ += json;
  comma_ = true;
  return *this;
}

}  // namespace fbdcsim::telemetry
