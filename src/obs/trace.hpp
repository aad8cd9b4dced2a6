// Lightweight pipeline tracer: one structured span per stage execution
// (per suspicious packet for classify, per flushed flow for reassemble,
// per screened unit for triage, per extracted unit for extract, per
// analyzed frame for disasm/lift/match, per sandbox run for emulate, and
// one "cache-hit" span per replayed unit), exportable as Chrome
// trace-event JSON (loadable in chrome://tracing and ui.perfetto.dev) or
// JSONL (one span object per line, for ad-hoc jq/scripted analysis).
//
// Recording is off by default — a NIDS saturating a link must not pay
// for a feature used during capacity planning and incident forensics.
// When enabled, spans land in per-thread buffers (registered once per
// thread under the collector mutex, then appended under the buffer's own
// uncontended mutex), so worker threads never serialize against each
// other on the hot path.
//
// Span timestamps are microseconds since the tracer epoch (first use or
// last reset()). Stages of one analysis unit are laid out sequentially
// from the unit's start using their *measured* durations — exact costs,
// synthesized placement — because the lift/match work of a unit
// interleaves at instruction-trace granularity and recording every
// interleaving would cost more than the stages themselves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace senids::obs {

struct Span {
  const char* name = "";  // stage name; must be a string literal / static
  std::uint64_t unit_id = 0;   // analysis-unit correlation id (0 = none)
  std::uint64_t ts_us = 0;     // start, µs since tracer epoch
  std::uint64_t dur_us = 0;
  std::uint64_t bytes = 0;     // stage payload size (0 = not applicable)
  std::uint32_t tid = 0;       // filled in by record()
};

class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] static bool enabled() noexcept;
  static void set_enabled(bool enabled) noexcept;

  /// Microseconds since the tracer epoch (monotonic).
  [[nodiscard]] std::uint64_t now_us() const noexcept;

  /// Fresh correlation id for one analysis unit.
  [[nodiscard]] std::uint64_t next_unit_id() noexcept;

  /// Append one span (no-op while disabled).
  void record(Span span);

  /// Every span recorded so far, in per-thread recording order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event format: {"traceEvents": [...]} with complete
  /// ("ph":"X") events.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// One JSON object per line.
  [[nodiscard]] std::string jsonl() const;

  /// Drop all spans and restart the epoch. Not thread-safe against
  /// concurrent record(); quiesce the pipeline first (tests, CLI between
  /// runs).
  void reset();

 private:
  Tracer();
  struct Impl;
  Impl* impl_;
};

}  // namespace senids::obs
