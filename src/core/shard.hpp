// One stage-(a) pipeline: classification, defragmentation and TCP
// reassembly over the frames of the sources routed to it. It owns its
// classifier state (taint set and dark-space counters), Defragmenter and
// bounded flow table. The engine decomposes stage (a) into N
// source-affine shards; every LiveSession is one shard. Source affinity
// is the load-bearing design point: per-source dark-space probe counting
// and 5-tuple flow keys (which include the source) both stay correct
// inside a single shard, so the packet hot path needs no cross-shard
// synchronization. Shards share only read-only classifier configuration,
// the process-wide metric registry, and the internally synchronized
// verdict cache downstream.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "net/defrag.hpp"
#include "net/flow.hpp"
#include "net/reassembly.hpp"
#include "obs/pipeline.hpp"

namespace senids::core {

/// Shard a source address over `shards` buckets (multiplicative hash;
/// well mixed even for adjacent addresses). All frames from one source
/// land in one shard — the invariant everything above relies on.
[[nodiscard]] inline std::size_t shard_index_for(net::Ipv4Addr src,
                                                 std::size_t shards) noexcept {
  return static_cast<std::size_t>((src.value * 0x9e3779b97f4a7c15ULL) >> 32) % shards;
}

class PipelineShard {
 public:
  /// Receives each analysis unit the shard forms (suspicious payload or
  /// flushed stream): the engine's worker handoff queue, or an
  /// InlineAnalysis (threads <= 1, and every LiveSession).
  using UnitSink =
      std::function<void(util::Bytes payload, const Alert& meta, std::uint64_t unit_id)>;

  /// `options` and `classifier` must outlive the shard. `labelled_series`
  /// binds this shard's shard="<index>" metric series and a per-shard
  /// flow gauge (the multi-shard engine); without it the shard feeds only
  /// the process-wide families.
  PipelineShard(std::size_t index, const NidsOptions& options,
                const classify::TrafficClassifier& classifier, bool labelled_series);

  /// Reset per-capture state (flow table, defragmenter, stats) and read
  /// the tracing/metrics switches for the capture. Taint and dark-space
  /// counts persist across captures.
  void begin_capture();
  /// Classify one captured Ethernet frame and dispatch any unit it
  /// completes.
  void process_frame(util::ByteView frame, std::uint32_t ts_sec, std::uint32_t ts_usec,
                     const UnitSink& sink);
  /// Flush flows that never closed.
  void finish_capture(const UnitSink& sink);
  /// Charge `seconds` of producer wall, measured by the caller around
  /// whole batches of process_frame/finish_capture calls, and refresh the
  /// derived stats. The one definition of stage-(a) time:
  /// classify_seconds = producer wall since begin_capture minus the
  /// analysis run inline on it. Also sets the counters read off the
  /// defragmenter and classifier state (defrag drops, dark-space
  /// evictions since begin_capture).
  void charge_producer_wall(double seconds);

  /// Per-capture stats for this shard; the engine folds them with
  /// merge_stats.
  [[nodiscard]] NidsStats& stats() noexcept { return stats_; }
  [[nodiscard]] const NidsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t live_flows() const noexcept { return flows_.size(); }
  [[nodiscard]] bool is_tainted(net::Ipv4Addr src) const;
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  struct FlowState {
    net::TcpReassembler reassembler;
    Alert meta;
    double reassemble_seconds = 0.0;  // accrued per feed, emitted at flush
    explicit FlowState(std::size_t cap) : reassembler(cap, cap) {}
  };

  std::optional<net::ParsedPacket> classify_one(util::ByteView frame,
                                                std::uint32_t ts_sec, std::uint32_t ts_usec);
  void dispatch(net::ParsedPacket& pkt, const UnitSink& sink);
  [[nodiscard]] bool stream_full(const FlowState& state) const;
  void flush_flow(FlowState& state, const UnitSink& sink);

  std::size_t index_;
  const NidsOptions& options_;
  const classify::TrafficClassifier& classifier_;
  classify::ClassifierState state_;

  net::FlowTableMetrics flow_metrics_{};
  obs::ShardMetrics shard_{};  // null handles without labelled_series
  net::BoundedFlowTable<FlowState> flows_;
  net::Defragmenter defrag_;
  NidsStats stats_;
  double producer_seconds_ = 0.0;
  std::size_t dark_evictions_base_ = 0;
  bool tracing_ = false;
  bool clocked_ = false;
};

/// The unit sink for threads <= 1, shared by the engine's shards and
/// LiveSession: stages (b)-(e) run inline on the thread that formed the
/// unit, with a private AnalysisContext, and count into the shard's
/// stats(). Alerts collect in alerts() until the owner takes them.
class InlineAnalysis {
 public:
  /// `engine` and `shard` must outlive this object.
  InlineAnalysis(const NidsEngine& engine, PipelineShard& shard);
  // sink() holds `this`.
  InlineAnalysis(const InlineAnalysis&) = delete;
  InlineAnalysis& operator=(const InlineAnalysis&) = delete;

  [[nodiscard]] const PipelineShard::UnitSink& sink() const noexcept { return sink_; }
  [[nodiscard]] std::vector<Alert>& alerts() noexcept { return alerts_; }

 private:
  AnalysisContext ctx_;
  std::vector<Alert> alerts_;
  PipelineShard::UnitSink sink_;
};

}  // namespace senids::core
