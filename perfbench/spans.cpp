#include "spans.hpp"

#include <cstdio>

namespace perfbench {

std::uint16_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint16_t>(names_.size() - 1);
}

void SpanRecorder::end() {
  const Open o = open_.back();
  open_.pop_back();
  const std::int64_t end_ns = now_ns();
  const std::int64_t dur = end_ns - o.start_ns;
  Totals& t = totals_[o.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - o.child_ns;
  const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (spans_.size() < capacity_ || parent == 0) {
    spans_.push_back(Span{o.start_ns, end_ns, o.id, parent, o.unit, o.name});
  }
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"spans_recorded\": "
               "%llu, \"spans_written\": %zu}, \"traceEvents\": [\n",
               static_cast<unsigned long long>(recorded()), spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %u, \"parent\": %u, \"unit\": %u}}",
                 i ? ",\n" : "", names_[s.name].c_str(), s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, s.id, s.parent, s.unit);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
