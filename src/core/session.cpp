#include "core/session.hpp"

#include <atomic>

#include "util/log.hpp"

namespace senids::core {

namespace {

/// Each session claims the next "session" attribution slot; sessions are
/// long-lived (one per capture worker), so indices stay small.
std::atomic<std::size_t> next_session_slot{0};

}  // namespace

LiveSession::LiveSession(NidsEngine& engine, AlertSink sink)
    : engine_(engine),
      shard_(0, engine.options(), engine.classifier(), /*own_state=*/false),
      ctx_(engine.make_analysis_context()),
      alert_sink_(std::move(sink)),
      unit_sink_([this](util::Bytes payload, const Alert& meta, std::uint64_t unit_id) {
        for (const Alert& alert :
             engine_.analyze_payload(ctx_, payload, meta, &shard_.stats(), unit_id)) {
          ++alerts_emitted_;
          if (alert_sink_) alert_sink_(alert);
        }
        worker_slot_.add_units();
      }),
      worker_slot_(obs::WorkerTable::instance().slot("session", next_session_slot++)) {
  shard_.begin_capture();
  worker_slot_.begin_run();
}

LiveSession::~LiveSession() { worker_slot_.end_run(); }

template <typename Body>
void LiveSession::attributed(Body&& body) {
  const obs::WorkerTable& table = obs::WorkerTable::instance();
  const std::uint64_t start_ns = table.now_ns();
  // The gap since the previous call returned is the caller thread
  // waiting for traffic (idle); the call itself is busy.
  if (last_call_end_ns_ != 0) {
    worker_slot_.add_idle(static_cast<double>(start_ns - last_call_end_ns_) * 1e-9);
  }
  worker_slot_.heartbeat();
  body();
  last_call_end_ns_ = table.now_ns();
  const double wall = static_cast<double>(last_call_end_ns_ - start_ns) * 1e-9;
  worker_slot_.add_busy(wall);
  // The 1-shard engine's stage-(a) definition: producer wall (every
  // feed() and finish() so far) minus the inline analysis it triggered.
  producer_seconds_ += wall;
  NidsStats& stats = shard_.stats();
  stats.classify_seconds = producer_seconds_ - stats.analysis_seconds;
  shard_.sync_counters();
}

void LiveSession::feed(util::ByteView frame, std::uint32_t ts_sec, std::uint32_t ts_usec) {
  attributed([&] { shard_.process_frame(frame, ts_sec, ts_usec, unit_sink_); });
  maybe_log_metrics(ts_sec);
}

void LiveSession::finish() {
  attributed([&] { shard_.finish_capture(unit_sink_); });
}

void LiveSession::maybe_log_metrics(std::uint32_t ts_sec) {
  const std::uint32_t interval = engine_.options().metrics_log_interval_sec;
  if (interval == 0 || ts_sec == 0) return;
  if (next_metrics_log_ts_ == 0) next_metrics_log_ts_ = ts_sec + interval;
  if (ts_sec < next_metrics_log_ts_) return;
  next_metrics_log_ts_ = ts_sec + interval;
  const NidsStats& stats = shard_.stats();
  util::log_info() << "session metrics: packets=" << stats.packets
                   << " suspicious=" << stats.suspicious_packets
                   << " units=" << stats.units_analyzed
                   << " frames=" << stats.frames_extracted
                   << " alerts=" << alerts_emitted_ << " flows=" << shard_.live_flows()
                   << " truncated=" << stats.streams_truncated
                   << " cache_hits=" << stats.cache_hits
                   << " cache_misses=" << stats.cache_misses
                   << " classify_s=" << stats.classify_seconds
                   << " analysis_s=" << stats.analysis_seconds;
}

}  // namespace senids::core
