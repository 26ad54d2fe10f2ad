// report.cpp -- JSON number and string formatting.
#include <charconv>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  // Shortest representation that round-trips: every measured digit.
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
