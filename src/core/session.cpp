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
      shard_(0, engine.options(), engine.classifier(), /*labelled_series=*/false),
      analysis_(engine, shard_),
      alert_sink_(std::move(sink)),
      worker_slot_(obs::WorkerTable::instance().slot("session", next_session_slot++)) {
  shard_.begin_capture();
  attribution_mark_ = worker_slot_.begin_run();
}

LiveSession::~LiveSession() {
  worker_slot_.idle_since(attribution_mark_);
  worker_slot_.end_run(attribution_mark_);
}

template <typename Body>
void LiveSession::attributed(Body&& body) {
  // The gap since the previous call returned is the caller thread
  // waiting for traffic (idle); the call itself is busy.
  worker_slot_.idle_since(attribution_mark_);
  worker_slot_.heartbeat();
  const std::size_t units_before = shard_.stats().units_analyzed;
  body();
  std::vector<Alert>& alerts = analysis_.alerts();
  for (const Alert& alert : alerts) {
    ++alerts_emitted_;
    if (alert_sink_) alert_sink_(alert);
  }
  alerts.clear();
  worker_slot_.add_units(shard_.stats().units_analyzed - units_before);
  shard_.charge_producer_wall(worker_slot_.busy_since(attribution_mark_));
}

void LiveSession::feed(util::ByteView frame, std::uint32_t ts_sec, std::uint32_t ts_usec) {
  attributed([&] { shard_.process_frame(frame, ts_sec, ts_usec, analysis_.sink()); });
  maybe_log_metrics(ts_sec);
}

void LiveSession::finish() {
  attributed([&] { shard_.finish_capture(analysis_.sink()); });
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
