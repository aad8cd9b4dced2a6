#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "util/sync.hpp"
#include "util/text.hpp"

namespace senids::obs {

namespace {

using util::append_format;

std::atomic<bool> g_trace_enabled{false};

void append_span_json(std::string& out, const Span& s) {
  append_format(out,
                "{\"name\": \"%s\", \"cat\": \"stage\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %u, \"ts\": %llu, \"dur\": %llu, "
                "\"args\": {\"unit\": %llu, \"bytes\": %llu}}",
                s.name, s.tid, static_cast<unsigned long long>(s.ts_us),
                static_cast<unsigned long long>(s.dur_us),
                static_cast<unsigned long long>(s.unit_id),
                static_cast<unsigned long long>(s.bytes));
}

}  // namespace

struct Tracer::Impl {
  using Clock = std::chrono::steady_clock;

  struct Buffer {
    // Uncontended: one owner thread appends, collectors read. Nested
    // inside Impl::mu by collectors — "Tracer" before "Tracer.buffer"
    // is the one two-level chain in the pipeline's lock hierarchy.
    util::Mutex mu{"Tracer.buffer"};
    std::vector<Span> spans GUARDED_BY(mu);
  };

  mutable util::Mutex mu{"Tracer"};  // guards buffer registration
  std::vector<std::unique_ptr<Buffer>> buffers GUARDED_BY(mu);
  // Annotation-pass finding: epoch used to be a plain time_point read by
  // now_us() on the span hot path while reset() rewrote it under mu — a
  // torn read on a two-word value. Atomic clock ticks keep the hot path
  // lock-free and the reset race well-defined.
  std::atomic<Clock::rep> epoch_ticks{Clock::now().time_since_epoch().count()};
  std::atomic<std::uint64_t> next_unit{1};
  std::atomic<std::uint32_t> next_tid{1};

  Buffer& local_buffer(std::uint32_t* tid_out) {
    // One buffer per (thread, tracer) pair; buffers outlive their thread
    // so spans from joined pool workers survive until export.
    thread_local Buffer* buffer = nullptr;
    thread_local std::uint32_t tid = 0;
    if (!buffer) {
      auto owned = std::make_unique<Buffer>();
      buffer = owned.get();
      tid = next_tid.fetch_add(1, std::memory_order_relaxed);
      util::MutexLock lock(mu);
      buffers.push_back(std::move(owned));
    }
    *tid_out = tid;
    return *buffer;
  }
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

bool Tracer::enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void Tracer::set_enabled(bool enabled) noexcept {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_us() const noexcept {
  const auto since_epoch =
      Impl::Clock::now().time_since_epoch() -
      Impl::Clock::duration(impl_->epoch_ticks.load(std::memory_order_relaxed));
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(since_epoch).count());
}

std::uint64_t Tracer::next_unit_id() noexcept {
  return impl_->next_unit.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(Span span) {
  if (!enabled()) return;
  std::uint32_t tid = 0;
  Impl::Buffer& buffer = impl_->local_buffer(&tid);
  span.tid = tid;
  util::MutexLock lock(buffer.mu);
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  util::MutexLock lock(impl_->mu);
  for (const auto& buffer : impl_->buffers) {
    util::MutexLock buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::string Tracer::chrome_trace_json() const {
  std::string out = "{\"traceEvents\": [\n";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    out += "  ";
    append_span_json(out, all[i]);
    out += i + 1 < all.size() ? ",\n" : "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::string Tracer::jsonl() const {
  std::string out;
  for (const Span& s : spans()) {
    append_span_json(out, s);
    out.push_back('\n');
  }
  return out;
}

void Tracer::reset() {
  util::MutexLock lock(impl_->mu);
  for (auto& buffer : impl_->buffers) {
    util::MutexLock buffer_lock(buffer->mu);
    buffer->spans.clear();
  }
  impl_->epoch_ticks.store(Impl::Clock::now().time_since_epoch().count(),
                           std::memory_order_relaxed);
  impl_->next_unit.store(1, std::memory_order_relaxed);
}

}  // namespace senids::obs
