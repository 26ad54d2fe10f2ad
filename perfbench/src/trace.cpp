// trace.cpp -- in-memory spans, self time, and the span dump.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Recorder::open(const char* name, int cell, int arg, double work) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  s.arg = arg;
  s.work = work;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_.back().t0 = now_ns();
  return index;
}

void Recorder::close(int index) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("span closed out of order");
  spans_[static_cast<std::size_t>(index)].t1 = t;
  open_.pop_back();
}

int Recorder::add(const char* name, std::int64_t t0, std::int64_t t1,
                  int cell, int arg, double work) {
  Span s;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cell = cell;
  s.arg = arg;
  s.work = work;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  // Children of each span, then duration minus the union of the children's
  // intervals (clipped to the parent).
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (int c : children[i]) {
      const Span& s = spans[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(s.t0, p.t0), b = std::min(s.t1, p.t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, end = p.t0;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    self[i] = static_cast<double>(p.t1 - p.t0 - covered) * 1e-9;
  }
  return self;
}

void Recorder::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span dump " + path);
  const std::vector<double> self = perfbench::self_seconds(spans_);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  std::map<std::string, std::pair<double, long>> totals;
  os << "{\"schema\":\"perfbench.spans.v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ",";
    os << "\n{\"id\":" << i << ",\"name\":" << json_string(s.name)
       << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
       << ",\"arg\":" << s.arg << ",\"start_ns\":" << (s.t0 - base)
       << ",\"end_ns\":" << (s.t1 - base)
       << ",\"self_s\":" << json_number(self[i])
       << ",\"work\":" << json_number(s.work) << "}";
    auto& t = totals[s.name];
    t.first += self[i];
    t.second += 1;
  }
  os << "\n],\"self_seconds_by_name\":{";
  bool first = true;
  for (const auto& [name, t] : totals) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json_string(name) << ":{\"self_s\":" << json_number(t.first)
       << ",\"spans\":" << t.second << "}";
  }
  os << "\n}}\n";
  if (!os) throw std::runtime_error("failed writing span dump " + path);
}

}  // namespace perfbench
