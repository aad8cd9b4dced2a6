// One source-affine stage-(a) pipeline shard. The engine decomposes
// classification / defragmentation / TCP reassembly into N shards, each
// owning the classifier scan-counting state, Defragmenter, and bounded
// flow table for the sources routed to it. Source affinity is the
// load-bearing design point: per-source dark-space probe counting and
// 5-tuple flow keys (which include the source) both stay correct inside
// a single shard, so the packet hot path needs no cross-shard
// synchronization — shards share only read-only classifier
// configuration, the process-wide metric registry, and the internally
// synchronized verdict cache downstream.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

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
  /// flushed stream). The engine points this at the worker handoff queue
  /// or, with threads <= 1, at an inline NidsEngine::analyze_payload call
  /// that counts into this shard's stats(); LiveSession always inline.
  using UnitSink =
      std::function<void(util::Bytes payload, const Alert& meta, std::uint64_t unit_id)>;

  /// `options` and `classifier` must outlive the shard. With `own_state`
  /// the shard classifies against a private ClassifierState (the
  /// multi-shard engine); without it, verdicts go through the
  /// classifier's embedded state so single-shard runs keep the classic
  /// `classifier().is_tainted()` surface observable.
  PipelineShard(std::size_t index, const NidsOptions& options,
                classify::TrafficClassifier& classifier, bool own_state);

  /// Reset per-capture state (flow table, defragmenter, stats) and read
  /// the tracing/metrics switches for the capture. Taint and dark-space
  /// counts persist across captures, mirroring the classifier.
  void begin_capture();
  /// Classify one captured Ethernet frame and dispatch any unit it
  /// completes.
  void process_frame(util::ByteView frame, std::uint32_t ts_sec, std::uint32_t ts_usec,
                     const UnitSink& sink);
  /// Flush flows that never closed and finalize per-capture counters.
  void finish_capture(const UnitSink& sink);
  /// Set the counters read off the defragmenter and classifier (defrag
  /// drops, dark-space evictions since begin_capture). Idempotent, so a
  /// live caller may refresh them after every frame.
  void sync_counters();

  /// Per-capture stats for this shard; the engine folds them with
  /// merge_stats. The shard's producer also writes classify_seconds here.
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

  classify::Verdict observe(const net::ParsedPacket& pkt);
  [[nodiscard]] classify::Verdict check(const net::ParsedPacket& pkt) const;
  [[nodiscard]] std::size_t dark_evictions() const;

  std::optional<net::ParsedPacket> classify_one(util::ByteView frame,
                                                std::uint32_t ts_sec, std::uint32_t ts_usec);
  void dispatch(net::ParsedPacket& pkt, const UnitSink& sink);
  [[nodiscard]] bool stream_full(const FlowState& state) const;
  void flush_flow(FlowState& state, const UnitSink& sink);

  std::size_t index_;
  const NidsOptions& options_;
  classify::TrafficClassifier& classifier_;
  std::optional<classify::ClassifierState> state_;  // engaged iff own_state

  net::FlowTableMetrics flow_metrics_{};  // per-shard binding (own_state only)
  obs::ShardMetrics shard_{};             // null handles when single-shard
  net::BoundedFlowTable<FlowState> flows_;
  net::Defragmenter defrag_;
  NidsStats stats_;
  std::size_t dark_evictions_base_ = 0;
  bool tracing_ = false;
  bool clocked_ = false;
};

}  // namespace senids::core
