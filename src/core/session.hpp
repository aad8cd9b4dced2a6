// Streaming analysis session: the deployment-shaped interface. Feed
// frames as they arrive; alerts come back from the call that completes
// their unit. A session is the 1-shard engine fed frame by frame: one
// PipelineShard with its own classifier state, whose units an
// InlineAnalysis analyzes on the feeding thread, so stage (a) and its
// bounded flow table are exactly what process_capture runs, and a
// session can run on live traffic indefinitely with bounded memory.
//
// Taint is per session: a source tainted in one session is not tainted
// in another, even over the same engine. The engine's classifier is
// only read (its honeypot and dark-space configuration).
//
// Threading model (DESIGN.md "Concurrency safety"): a LiveSession is
// lock-free by being thread-confined — all state is owned by the one
// thread calling feed()/finish(), so there is nothing for GUARDED_BY to
// guard. One session per thread over a shared engine is safe: sessions
// share only the engine's read-only configuration and templates, the
// internally synchronized verdict cache and the process-wide metrics.
// Sharing one session across threads is a data race by contract.
#pragma once

#include <functional>

#include "core/shard.hpp"
#include "obs/workers.hpp"

namespace senids::core {

class LiveSession {
 public:
  /// Called for every alert before the feed()/finish() call that
  /// completed its analysis unit returns.
  using AlertSink = std::function<void(const Alert&)>;

  /// The engine must outlive the session. Flow eviction follows the
  /// engine's flow_idle_timeout_sec / max_flows / max_stream_bytes; the
  /// tracing and metrics switches are read once, here.
  LiveSession(NidsEngine& engine, AlertSink sink);
  ~LiveSession();
  // The analysis sink holds the shard.
  LiveSession(const LiveSession&) = delete;
  LiveSession& operator=(const LiveSession&) = delete;

  /// Feed one captured Ethernet frame.
  void feed(util::ByteView frame, std::uint32_t ts_sec = 0, std::uint32_t ts_usec = 0);

  /// Flush flows that never closed (end of capture / shutdown).
  void finish();

  /// What the 1-shard process_capture would report for the frames fed so
  /// far (classify_seconds: wall inside feed()/finish() minus analysis).
  [[nodiscard]] const NidsStats& stats() const noexcept { return shard_.stats(); }

  /// Alerts delivered to the sink so far.
  [[nodiscard]] std::size_t alerts_emitted() const noexcept { return alerts_emitted_; }

 private:
  /// Run one feed()/finish() body with worker attribution (busy inside,
  /// idle since the previous call), deliver its alerts and refresh the
  /// derived stats.
  template <typename Body>
  void attributed(Body&& body);
  /// Periodic one-line metrics snapshot through util::Log, driven by
  /// capture time (NidsOptions::metrics_log_interval_sec; 0 = off).
  void maybe_log_metrics(std::uint32_t ts_sec);

  const NidsEngine& engine_;
  PipelineShard shard_;
  /// One analysis context for the session's lifetime: a session is one
  /// logical worker, so it pays no per-unit extractor/analyzer allocation.
  InlineAnalysis analysis_;
  AlertSink alert_sink_;
  obs::WorkerSlot& worker_slot_;  // ("session", N)
  std::uint64_t attribution_mark_ = 0;
  std::size_t alerts_emitted_ = 0;
  std::uint32_t next_metrics_log_ts_ = 0;
};

}  // namespace senids::core
