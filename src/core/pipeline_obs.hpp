// Internal glue between the core pipeline containers and the
// process-wide observability handles. BoundedQueue and BoundedFlowTable
// deliberately take nullable metric-handle structs (util/ and net/ know
// nothing about which registry families exist); these helpers bind them
// to the families in obs::pipeline_metrics() exactly once, and every
// engine / live session shares the same bound structs. record_stage is
// the one way a stage execution becomes a StageStat, a histogram sample
// and a span; publish_unit the one way an analysis unit's NidsStats
// record becomes registry counters.
#pragma once

#include "cache/verdict_cache.hpp"
#include "core/engine.hpp"
#include "net/defrag.hpp"
#include "net/flow.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"
#include "util/queue.hpp"

namespace senids::core {

inline const util::QueueMetrics& queue_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const util::QueueMetrics m{pm.queue_depth,        pm.queue_depth_peak,
                                    pm.queue_bytes,        pm.queue_pushed,
                                    pm.queue_backpressure_waits,
                                    pm.queue_backpressure_wait_seconds};
  return m;
}

inline const net::FlowTableMetrics& flow_table_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const net::FlowTableMetrics m{pm.flow_table_flows, pm.flows_created,
                                       pm.flows_evicted_idle, pm.flows_evicted_overflow};
  return m;
}

inline const net::DefragMetrics& defrag_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const net::DefragMetrics m{pm.defrag_dropped};
  return m;
}

inline const cache::CacheMetrics& cache_metrics() {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  static const cache::CacheMetrics m{pm.cache_hits,      pm.cache_misses,
                                     pm.cache_insertions, pm.cache_evictions,
                                     pm.cache_entries,    pm.cache_bytes};
  return m;
}

/// A span's duration in whole microseconds.
inline std::uint64_t span_us(double seconds) noexcept {
  return static_cast<std::uint64_t>(seconds * 1e6);
}

/// Record one execution of `stage`: fold it into `stats.stages`, observe
/// it in senids_stage_seconds and, when `with_span`, emit a span for
/// `unit_id` starting at `start_us`. Returns the span's duration, so a
/// caller that lays a unit's spans out back to back can advance its
/// cursor.
inline std::uint64_t record_stage(NidsStats& stats, obs::Stage stage, double seconds,
                                  bool with_span, std::uint64_t start_us,
                                  std::uint64_t unit_id, std::uint64_t bytes) {
  StageStat& stat = stats.stages[static_cast<std::size_t>(stage)];
  ++stat.count;
  stat.seconds += seconds;
  if (seconds > stat.max_seconds) stat.max_seconds = seconds;
  obs::pipeline_metrics().stage_seconds[static_cast<std::size_t>(stage)]->observe(seconds);
  const std::uint64_t dur = span_us(seconds);
  if (with_span) {
    obs::Tracer::instance().record(
        {obs::stage_name(stage).data(), unit_id, start_us, dur, bytes, 0});
  }
  return dur;
}

/// Publish one analysis unit's record to the registry counters: the one
/// mapping from NidsStats fields to senids_*_total. Cache hits and misses
/// are not here; the verdict cache counts those itself (CacheMetrics).
inline void publish_unit(const NidsStats& unit, std::size_t alerts) {
  obs::PipelineMetrics& pm = obs::pipeline_metrics();
  // Most fields are zero for any one unit; skipping them keeps the
  // per-unit cost to the few atomic adds that change a value.
  auto add = [](obs::Counter* counter, std::size_t n) {
    if (n) counter->add(n);
  };
  add(pm.units, unit.units_analyzed);
  add(pm.frames, unit.frames_extracted);
  add(pm.bytes_analyzed, unit.bytes_analyzed);
  add(pm.alerts, alerts);
  const semantic::AnalyzerStats& an = unit.analyzer;
  add(pm.analyzer_frames, an.frames);
  add(pm.analyzer_runs, an.candidate_runs);
  add(pm.analyzer_traces, an.traces);
  add(pm.analyzer_insns_lifted, an.instructions_lifted);
  add(pm.analyzer_matches_tried, an.template_matches_tried);
  add(pm.analyzer_entry_budget_exhausted, an.entry_budget_exhausted);
  add(pm.analyzer_insn_budget_exhausted, an.insn_budget_exhausted);
  add(pm.triage_screened, unit.triage_screened);
  add(pm.triage_escalated, unit.triage_escalated);
  add(pm.triage_rejected, unit.triage_rejected);
  add(pm.triage_rejected_bytes, unit.triage_rejected_bytes);
  add(pm.cache_bypass, unit.cache_bypass);
  add(pm.cache_bytes_saved, unit.cache_bytes_saved);
}

}  // namespace senids::core
