#include "core/shard.hpp"

#include <chrono>
#include <iterator>
#include <utility>

#include "core/pipeline_obs.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace senids::core {

namespace {

using SteadyClock = std::chrono::steady_clock;
using util::seconds_since;

/// Producer-side spans are placed ending now: the stage just finished.
std::uint64_t span_start_ending_now(double seconds) {
  const std::uint64_t now = obs::Tracer::instance().now_us();
  const std::uint64_t dur = span_us(seconds);
  return now >= dur ? now - dur : 0;
}

}  // namespace

PipelineShard::PipelineShard(std::size_t index, const NidsOptions& options,
                             const classify::TrafficClassifier& classifier,
                             bool labelled_series)
    : index_(index),
      options_(options),
      classifier_(classifier),
      state_(classifier.make_state()),
      flow_metrics_(flow_table_metrics()),
      defrag_(options.defrag_max_buffered_bytes) {
  if (labelled_series) {
    // The flow gauge is per shard; the created/evicted counters stay
    // process-wide families.
    shard_ = obs::shard_metrics(index_);
    flow_metrics_.flows = shard_.flows;
  }
}

bool PipelineShard::is_tainted(net::Ipv4Addr src) const {
  return state_.tainted.contains(src.value);
}

void PipelineShard::begin_capture() {
  flows_ = net::BoundedFlowTable<FlowState>{};
  flows_.set_metrics(&flow_metrics_);
  defrag_ = net::Defragmenter(options_.defrag_max_buffered_bytes);
  defrag_.set_metrics(&defrag_metrics());
  obs::pipeline_metrics().flow_table_max_flows->set(
      static_cast<std::int64_t>(options_.max_flows));
  stats_ = NidsStats{};
  producer_seconds_ = 0.0;
  dark_evictions_base_ = state_.dark_counts.evictions();
  tracing_ = obs::Tracer::enabled();
  clocked_ = obs::metrics_enabled() || tracing_;
}

bool PipelineShard::stream_full(const FlowState& state) const {
  return state.reassembler.truncated() ||
         state.reassembler.stream().size() >= options_.max_stream_bytes;
}

void PipelineShard::flush_flow(FlowState& state, const UnitSink& sink) {
  if (stream_full(state)) {
    ++stats_.streams_truncated;
    obs::pipeline_metrics().streams_truncated->add();
  }
  double reassemble_seconds = state.reassemble_seconds;
  state.reassemble_seconds = 0.0;
  const SteadyClock::time_point t0 =
      clocked_ ? SteadyClock::now() : SteadyClock::time_point{};
  util::Bytes stream = state.reassembler.take_stream();
  if (clocked_) reassemble_seconds += seconds_since(t0);
  if (stream.empty()) return;
  const std::uint64_t unit_id = tracing_ ? obs::Tracer::instance().next_unit_id() : 0;
  record_stage(stats_, obs::Stage::kReassemble, reassemble_seconds, tracing_,
               tracing_ ? span_start_ending_now(reassemble_seconds) : 0, unit_id,
               stream.size());
  if (shard_.units) shard_.units->add();
  sink(std::move(stream), state.meta, unit_id);
}

void PipelineShard::dispatch(net::ParsedPacket& pkt, const UnitSink& sink) {
  Alert meta;
  meta.ts_sec = pkt.ts_sec;
  meta.src = pkt.ip.src;
  meta.dst = pkt.ip.dst;
  meta.src_port = pkt.src_port();
  meta.dst_port = pkt.dst_port();

  if (pkt.transport == net::Transport::kTcp && options_.reassemble_tcp) {
    auto flush_sink = [this, &sink](const net::FlowKey&, FlowState& state) {
      flush_flow(state, sink);
    };
    if (options_.flow_idle_timeout_sec) {
      stats_.flows_evicted_idle +=
          flows_.evict_idle(pkt.ts_sec, options_.flow_idle_timeout_sec, flush_sink);
    }
    const net::FlowKey key = net::FlowKey::of(pkt);
    auto [state, created] = flows_.touch(key, pkt.ts_sec, options_.max_stream_bytes);
    if (created) {
      // The flow's alert metadata is pinned to its *first* suspicious
      // segment (timestamp of first contact, not of the last segment).
      state->meta = meta;
      if (options_.max_flows && flows_.size() > options_.max_flows &&
          flows_.evict_oldest(flush_sink)) {
        ++stats_.flows_evicted_overflow;
      }
    }
    const SteadyClock::time_point t0 =
        clocked_ ? SteadyClock::now() : SteadyClock::time_point{};
    state->reassembler.feed(pkt.tcp.seq, pkt.tcp.flags, pkt.payload);
    if (clocked_) state->reassemble_seconds += seconds_since(t0);
    if (state->reassembler.closed() || stream_full(*state)) {
      flush_flow(*state, sink);
      flows_.erase(key);
    }
  } else if (!pkt.payload.empty()) {
    if (shard_.units) shard_.units->add();
    sink(std::move(pkt.payload), meta,
         tracing_ ? obs::Tracer::instance().next_unit_id() : 0);
  }
}

std::optional<net::ParsedPacket> PipelineShard::classify_one(util::ByteView frame,
                                                             std::uint32_t ts_sec,
                                                             std::uint32_t ts_usec) {
  auto pkt = net::parse_frame(frame, ts_sec, ts_usec);
  if (!pkt) {
    ++stats_.non_ip;
    return std::nullopt;
  }
  const classify::Verdict verdict = classifier_.observe_in(state_, *pkt);

  if (pkt->transport == net::Transport::kFragment) {
    // Reassemble regardless of verdict: a tainted source's datagram may
    // complete with fragments that arrived before the taint.
    auto datagram = defrag_.feed(pkt->ip, pkt->payload);
    if (!datagram) return std::nullopt;
    auto whole = net::parse_reassembled(datagram->header, datagram->payload, pkt->ts_sec,
                                        pkt->ts_usec);
    if (!whole) return std::nullopt;
    if (classifier_.check_in(state_, *whole) != classify::Verdict::kAnalyze) {
      return std::nullopt;
    }
    return whole;
  }

  if (verdict != classify::Verdict::kAnalyze) return std::nullopt;
  return pkt;
}

void PipelineShard::process_frame(util::ByteView frame, std::uint32_t ts_sec,
                                  std::uint32_t ts_usec, const UnitSink& sink) {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  ++stats_.packets;
  pm.packets->add();
  if (shard_.packets) shard_.packets->add();
  const SteadyClock::time_point pkt_start =
      clocked_ ? SteadyClock::now() : SteadyClock::time_point{};
  auto suspicious = classify_one(frame, ts_sec, ts_usec);
  // Per-packet classify latency; spans only for suspicious packets (a
  // span per ignored packet would swamp the trace with noise).
  const double classify_seconds = clocked_ ? seconds_since(pkt_start) : 0.0;
  const bool with_span = tracing_ && suspicious.has_value();
  record_stage(stats_, obs::Stage::kClassify, classify_seconds, with_span,
               with_span ? span_start_ending_now(classify_seconds) : 0, 0, frame.size());
  if (suspicious) {
    ++stats_.suspicious_packets;
    pm.suspicious_packets->add();
    dispatch(*suspicious, sink);
  }
}

void PipelineShard::finish_capture(const UnitSink& sink) {
  // Flush flows that never closed (truncated captures), oldest first.
  flows_.drain(
      [this, &sink](const net::FlowKey&, FlowState& state) { flush_flow(state, sink); });
}

void PipelineShard::charge_producer_wall(double seconds) {
  producer_seconds_ += seconds;
  stats_.classify_seconds = producer_seconds_ - stats_.analysis_seconds;
  // The defragmenter is fresh each capture, so its drop count is this
  // capture's; dark-space evictions persist, so delta from begin_capture.
  stats_.defrag_dropped = defrag_.dropped();
  stats_.dark_sources_evicted = state_.dark_counts.evictions() - dark_evictions_base_;
}

InlineAnalysis::InlineAnalysis(const NidsEngine& engine, PipelineShard& shard)
    : ctx_(engine.make_analysis_context()),
      sink_([this, engine = &engine, stats = &shard.stats()](
                util::Bytes payload, const Alert& meta, std::uint64_t unit_id) {
        std::vector<Alert> found = engine->analyze_payload(ctx_, payload, meta, stats, unit_id);
        alerts_.insert(alerts_.end(), std::make_move_iterator(found.begin()),
                       std::make_move_iterator(found.end()));
      }) {}

}  // namespace senids::core
