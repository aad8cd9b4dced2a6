// In-memory span recorder for the traced run. Each span has a name, a
// start and an end, the span it ran inside (its parent) and the analysis
// unit it belongs to. Per-name totals — call count, summed duration and
// self time (duration minus the time its child spans cover) — are kept
// online for every span, so the per-layer figures never depend on how
// many spans are stored; the first `capacity` spans, and every root span,
// are also kept whole for the Chrome trace-event file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(std::size_t capacity)
      : epoch_(Clock::now()), capacity_(capacity) {
    spans_.reserve(capacity);
  }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    explicit Scope(SpanRecorder& rec) : rec_(rec) {}
    ~Scope() { rec_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
  };

  /// Id for a span name; call once per name, outside hot loops.
  std::uint16_t intern(std::string_view name);

  /// Open a span as a child of the innermost open span.
  [[nodiscard]] Scope span(std::uint16_t name, std::uint32_t unit = 0) {
    open_.push_back(Open{next_id_++, name, unit, now_ns(), 0});
    return Scope(*this);
  }

  [[nodiscard]] const Totals& totals(std::uint16_t name) const { return totals_[name]; }
  [[nodiscard]] double seconds(std::uint16_t name) const {
    return static_cast<double>(totals_[name].total_ns) * 1e-9;
  }
  [[nodiscard]] std::uint64_t count(std::uint16_t name) const {
    return totals_[name].count;
  }
  /// Mean duration per call in `scale` units per second (1e6 = us).
  [[nodiscard]] double mean(std::uint16_t name, double scale) const {
    const Totals& t = totals_[name];
    if (t.count == 0) return 0.0;
    return static_cast<double>(t.total_ns) * 1e-9 * scale / static_cast<double>(t.count);
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return next_id_ - 1; }
  [[nodiscard]] std::size_t stored() const noexcept { return spans_.size(); }

  /// Write the stored spans as Chrome trace-event JSON (ph "X" events,
  /// microsecond timestamps; span, parent and unit ids in args).
  bool write_chrome_trace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Open {
    std::uint32_t id;
    std::uint16_t name;
    std::uint32_t unit;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t unit;
    std::uint16_t name;
  };

  std::int64_t now_ns() const {
    using std::chrono::nanoseconds;
    return std::chrono::duration_cast<nanoseconds>(Clock::now() - epoch_).count();
  }
  void end();

  Clock::time_point epoch_;
  std::size_t capacity_;
  std::uint32_t next_id_ = 1;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
