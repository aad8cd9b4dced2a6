// Observability subsystem tests: sharded counters under concurrency,
// histogram quantile bounds, Prometheus exposition well-formedness,
// tracer output formats, engine-level agreement between tracer span
// counts and NidsStats on the demo capture, and the registry mirroring
// the report counter for counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/senids.hpp"
#include "gen/codered.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"

namespace senids::obs {
namespace {

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsCounter, RuntimeKillSwitchDropsMutations) {
  Counter c;
  set_metrics_enabled(false);
  c.add(5);
  set_metrics_enabled(true);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(ObsGauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
}

TEST(ObsHistogram, CountSumAndQuantileWithinBucketBounds) {
  Histogram h;
  // 900 fast observations and 100 slow ones: p50 must land in the bucket
  // holding 100µs, p95/p99 in the bucket holding 10ms. Bounds are
  // geometric 1µs·2^k, so 100µs falls in (64µs, 128µs] and 10ms in
  // (8.192ms, 16.384ms]; the interpolated estimate may not leave its
  // bucket.
  for (int i = 0; i < 900; ++i) h.observe(100e-6);
  for (int i = 0; i < 100; ++i) h.observe(10e-3);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.sum_seconds, 900 * 100e-6 + 100 * 10e-3, 1e-3);
  EXPECT_GE(snap.quantile(0.50), 64e-6);
  EXPECT_LE(snap.quantile(0.50), 128e-6);
  EXPECT_GE(snap.quantile(0.95), 8.192e-3);
  EXPECT_LE(snap.quantile(0.95), 16.384e-3);
  EXPECT_GE(snap.quantile(0.99), 8.192e-3);
  EXPECT_LE(snap.quantile(0.99), 16.384e-3);
}

TEST(ObsHistogram, ConcurrentObservationsCountExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1e-4);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, FindOrCreateSharesHandles) {
  auto& r = Registry::instance();
  Counter& a = r.counter("senids_test_shared_total", "shared-handle test");
  Counter& b = r.counter("senids_test_shared_total");
  EXPECT_EQ(&a, &b);
  Counter& labelled = r.counter("senids_test_shared_total", "", "k", "v1");
  EXPECT_NE(&a, &labelled);
}

TEST(ObsRegistry, PrometheusExpositionIsWellFormed) {
  // Force full pipeline registration so the exposition covers every
  // stage even with zero samples (a scrape missing a stage reads as a
  // broken deployment).
  (void)pipeline_metrics();
  const std::string text = Registry::instance().prometheus_text();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string needle = "senids_stage_seconds_bucket{stage=\"" +
                               std::string(stage_name(static_cast<Stage>(i))) + "\",le=\"";
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  EXPECT_NE(text.find("# TYPE senids_stage_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("senids_stage_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("senids_stage_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE senids_packets_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE senids_queue_depth gauge"), std::string::npos);

  // Every non-comment line must be "<name>[{labels}] <value>" with a
  // numeric value consuming the whole last token.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    const std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
    }
  }
}

TEST(ObsRegistry, LabelValuesAndHelpAreEscaped) {
  auto& r = Registry::instance();
  // Label values carrying the three characters the exposition format
  // escapes (backslash, double quote, newline) and a HELP string with a
  // literal newline: both must round-trip as single well-formed lines.
  Counter& c = r.counter("senids_test_escape_total", "first\nsecond\\tail", "path",
                         "C:\\dir\n\"quoted\"");
  c.add();
  const std::string text = Registry::instance().prometheus_text();
  EXPECT_NE(text.find("# HELP senids_test_escape_total first\\nsecond\\\\tail"),
            std::string::npos);
  EXPECT_NE(
      text.find("senids_test_escape_total{path=\"C:\\\\dir\\n\\\"quoted\\\"\"} 1"),
      std::string::npos);
  // The escaped series must still be a single physical line: no raw
  // newline may survive inside a sample.
  const std::size_t series = text.find("senids_test_escape_total{");
  ASSERT_NE(series, std::string::npos);
  const std::string line =
      text.substr(series, text.find('\n', series) - series);
  EXPECT_NE(line.find("} 1"), std::string::npos) << line;
}

TEST(ObsRegistry, HistogramBucketsAreCumulative) {
  auto& r = Registry::instance();
  Histogram& h = r.histogram("senids_test_cumulative_seconds", "bucket lint");
  h.observe(1e-6);    // lowest finite bucket
  h.observe(1e-3);
  h.observe(100.0);   // above the top finite bound -> +Inf only
  const std::string text = Registry::instance().prometheus_text();
  // Walk this family's _bucket lines in exposition order; counts must be
  // monotonically non-decreasing and +Inf must equal _count.
  std::uint64_t prev = 0;
  std::uint64_t inf = 0;
  std::size_t pos = 0;
  int buckets = 0;
  while ((pos = text.find("senids_test_cumulative_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::uint64_t count = std::strtoull(text.c_str() + space + 1, nullptr, 10);
    EXPECT_GE(count, prev) << "buckets must be cumulative";
    prev = count;
    inf = count;
    ++buckets;
    pos = space;
  }
  EXPECT_GT(buckets, 1);
  EXPECT_EQ(inf, 3u) << "+Inf bucket carries every observation";
  EXPECT_NE(text.find("senids_test_cumulative_seconds_count 3"), std::string::npos);
}

TEST(ObsRegistry, JsonExportCarriesQuantiles) {
  auto& r = Registry::instance();
  Histogram& h = r.histogram("senids_test_json_seconds", "json export test");
  h.observe(1e-3);
  const std::string json = Registry::instance().json();
  EXPECT_NE(json.find("\"name\": \"senids_test_json_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

/// Counts '{' minus '}' (resp. '[' ']') outside string literals.
void expect_balanced_json(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsTracer, ChromeTraceAndJsonlWellFormed) {
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(true);
  tracer.reset();
  tracer.record({"extract", 1, 10, 5, 100, 0});
  tracer.record({"disasm", 1, 15, 7, 100, 0});
  Tracer::set_enabled(false);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const std::string chrome = tracer.chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"extract\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"disasm\""), std::string::npos);
  expect_balanced_json(chrome);

  const std::string jsonl = tracer.jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    expect_balanced_json(line);
  }
  EXPECT_EQ(lines, 2u);
  tracer.reset();
}

TEST(ObsTracer, DisabledRecordIsDropped) {
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(false);
  tracer.reset();
  tracer.record({"extract", 1, 0, 1, 0, 0});
  EXPECT_TRUE(tracer.spans().empty());
}

// ------------------------------------------------- engine-level agreement

TEST(ObsEngine, SpanCountsMatchEngineStatsOnDemoTrace) {
  auto capture = pcap::read_file(SENIDS_SOURCE_DIR "/demo_trace.pcap");
  ASSERT_TRUE(capture.has_value());

  Registry::instance().reset_values();
  Tracer& tracer = Tracer::instance();
  Tracer::set_enabled(true);
  tracer.reset();

  core::NidsOptions options;
  core::NidsEngine nids(options);
  nids.classifier().honeypots().add_decoy(net::Ipv4Addr::from_octets(10, 0, 0, 7));
  nids.classifier().dark_space().add_unused_prefix(
      classify::Prefix{net::Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  core::Report report = nids.process_capture(*capture);
  Tracer::set_enabled(false);

  std::map<std::string, std::size_t> spans_by_stage;
  for (const Span& s : tracer.spans()) ++spans_by_stage[s.name];

  ASSERT_GT(report.stats.units_analyzed, 0u);
  ASSERT_GT(report.stats.analyzer.frames, 0u);
  // One span per stage per analysis unit / frame, matching NidsStats.
  EXPECT_EQ(spans_by_stage["classify"], report.stats.suspicious_packets);
  EXPECT_EQ(spans_by_stage["extract"], report.stats.units_analyzed);
  EXPECT_EQ(spans_by_stage["disasm"], report.stats.analyzer.frames);
  EXPECT_EQ(spans_by_stage["lift"], report.stats.analyzer.frames);
  EXPECT_EQ(spans_by_stage["match"], report.stats.analyzer.frames);
  EXPECT_EQ(spans_by_stage["reassemble"],
            report.stats.stages[static_cast<std::size_t>(Stage::kReassemble)].count);

  // The per-capture stage table agrees with the span counts, and the
  // process-wide registry histograms saw the same executions (registry
  // was reset above, so counts are this capture's alone).
  const auto stage_count = [&report](Stage s) {
    return report.stats.stages[static_cast<std::size_t>(s)].count;
  };
  EXPECT_EQ(stage_count(Stage::kClassify), report.stats.packets);
  EXPECT_EQ(stage_count(Stage::kExtract), report.stats.units_analyzed);
  EXPECT_EQ(stage_count(Stage::kDisasm), report.stats.analyzer.frames);
  PipelineMetrics& pm = pipeline_metrics();
  EXPECT_EQ(pm.stage_seconds[static_cast<std::size_t>(Stage::kExtract)]->count(),
            report.stats.units_analyzed);
  EXPECT_EQ(pm.stage_seconds[static_cast<std::size_t>(Stage::kClassify)]->count(),
            report.stats.packets);

  // Correlation ids: every extract span carries a unit id, and disasm
  // spans reuse ids the extract spans introduced.
  std::vector<std::uint64_t> unit_ids;
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == "extract") {
      EXPECT_NE(s.unit_id, 0u);
      unit_ids.push_back(s.unit_id);
    }
  }
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == "disasm") {
      EXPECT_NE(std::find(unit_ids.begin(), unit_ids.end(), s.unit_id), unit_ids.end());
    }
  }
  tracer.reset();
}

TEST(ObsEngine, StreamingAndSerialReportSameStageCounts) {
  // The per-stage execution counts are schedule-independent: a 4-worker
  // run must count exactly what the serial run counts.
  auto capture = pcap::read_file(SENIDS_SOURCE_DIR "/demo_trace.pcap");
  ASSERT_TRUE(capture.has_value());
  auto run = [&capture](std::size_t threads) {
    core::NidsOptions options;
    options.threads = threads;
    core::NidsEngine nids(options);
    nids.classifier().honeypots().add_decoy(net::Ipv4Addr::from_octets(10, 0, 0, 7));
    return nids.process_capture(*capture);
  };
  const core::Report serial = run(1);
  const core::Report parallel = run(4);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_EQ(serial.stats.stages[i].count, parallel.stats.stages[i].count)
        << stage_name(static_cast<Stage>(i));
  }
  // Summed per-unit wall exists on both paths once units were analyzed.
  ASSERT_GT(serial.stats.units_analyzed, 0u);
  EXPECT_GT(serial.stats.analysis_seconds, 0.0);
  EXPECT_GT(parallel.stats.analysis_seconds, 0.0);
}

/// Code Red duplicates (cache hits), ADMmutate one-offs (misses), benign
/// payloads (triage rejects), and one padded Code Red request larger than
/// any other unit (the cache bypass).
pcap::Capture mirror_corpus() {
  gen::TraceBuilder tb(301);
  const auto shellcode = gen::make_shell_spawn_corpus();
  const util::Bytes request = gen::make_code_red_ii_request();
  const net::Endpoint server{net::Ipv4Addr::from_octets(10, 0, 0, 80), 80};
  const net::Ipv4Addr client = net::Ipv4Addr::from_octets(10, 0, 1, 9);
  auto attacker = [](std::size_t i) {
    return net::Endpoint{net::Ipv4Addr::from_octets(192, 0, 2, static_cast<std::uint8_t>(i + 1)),
                         static_cast<std::uint16_t>(40000 + i)};
  };
  for (std::size_t i = 0; i < 5; ++i) {
    tb.add_tcp_flow(attacker(i), server, request);
    const auto adm = gen::admmutate_encode(shellcode[i % shellcode.size()].code, tb.prng());
    tb.add_tcp_flow(attacker(i + 10), server, adm.bytes);
    tb.add_benign(net::Endpoint{client, static_cast<std::uint16_t>(50000 + i)}, server.ip,
                  gen::make_benign_payload(tb.prng()));
    tb.add_benign(net::Endpoint{client, static_cast<std::uint16_t>(51000 + i)}, server.ip,
                  gen::make_benign_payload(tb.prng()));
  }
  util::Bytes padded = request;
  padded.insert(padded.end(), 16 << 10, 0x90);
  tb.add_tcp_flow(attacker(20), server, padded);
  return tb.take();
}

TEST(ObsEngine, RegistryMirrorsReport) {
  // Every registry counter that mirrors a NidsStats field reads exactly
  // the report's figure, on every schedule: inline and worker-pool
  // analysis, one and three shards, and a LiveSession. The registry is
  // reset before each run, so its values are that run's alone.
  const pcap::Capture capture = mirror_corpus();
  FlightRecorder& recorder = FlightRecorder::instance();
  PipelineMetrics& pm = pipeline_metrics();

  core::NidsOptions options;
  options.classifier.analyze_everything = true;
  options.triage.mode = triage::TriageMode::kOn;
  options.verdict_cache_bytes = 1 << 20;
  options.cache_max_unit_bytes = 12 << 10;

  auto check = [&](const core::NidsStats& stats, std::size_t alerts) {
    EXPECT_GT(stats.cache_bypass, 0u);
    EXPECT_GT(stats.triage_rejected, 0u);
    EXPECT_GT(alerts, 0u);
    EXPECT_EQ(pm.packets->value(), stats.packets);
    EXPECT_EQ(pm.suspicious_packets->value(), stats.suspicious_packets);
    EXPECT_EQ(pm.units->value(), stats.units_analyzed);
    EXPECT_EQ(pm.frames->value(), stats.frames_extracted);
    EXPECT_EQ(pm.bytes_analyzed->value(), stats.bytes_analyzed);
    EXPECT_EQ(pm.alerts->value(), alerts);
    EXPECT_EQ(pm.triage_screened->value(), stats.triage_screened);
    EXPECT_EQ(pm.triage_escalated->value(), stats.triage_escalated);
    EXPECT_EQ(pm.triage_rejected->value(), stats.triage_rejected);
    EXPECT_EQ(pm.triage_rejected_bytes->value(), stats.triage_rejected_bytes);
    EXPECT_EQ(pm.cache_hits->value(), stats.cache_hits);
    EXPECT_EQ(pm.cache_misses->value(), stats.cache_misses);
    EXPECT_EQ(pm.cache_bypass->value(), stats.cache_bypass);
    EXPECT_EQ(pm.cache_bytes_saved->value(), stats.cache_bytes_saved);
    const semantic::AnalyzerStats& an = stats.analyzer;
    EXPECT_GT(an.frames, 0u);
    EXPECT_EQ(pm.analyzer_frames->value(), an.frames);
    EXPECT_EQ(pm.analyzer_runs->value(), an.candidate_runs);
    EXPECT_EQ(pm.analyzer_traces->value(), an.traces);
    EXPECT_EQ(pm.analyzer_insns_lifted->value(), an.instructions_lifted);
    EXPECT_EQ(pm.analyzer_matches_tried->value(), an.template_matches_tried);
    EXPECT_EQ(pm.analyzer_entry_budget_exhausted->value(), an.entry_budget_exhausted);
    EXPECT_EQ(pm.analyzer_insn_budget_exhausted->value(), an.insn_budget_exhausted);
    for (std::size_t i = 0; i < kStageCount; ++i) {
      EXPECT_EQ(pm.stage_seconds[i]->count(), stats.stages[i].count)
          << stage_name(static_cast<Stage>(i));
    }
    EXPECT_EQ(pm.unit_seconds->count(), stats.units_analyzed);
    EXPECT_EQ(recorder.recent().size(), stats.units_analyzed);
    // Extraction runs on every unit that is neither rejected nor replayed.
    const auto stage_count = [&stats](Stage s) {
      return stats.stages[static_cast<std::size_t>(s)].count;
    };
    EXPECT_EQ(stage_count(Stage::kExtract),
              stats.units_analyzed - stats.triage_rejected - stats.cache_hits);
    EXPECT_EQ(stage_count(Stage::kTriage), stats.triage_screened);
  };
  auto fresh_run = [&] {
    Registry::instance().reset_values();
    recorder.configure({.slots = 4096});
  };
  auto make_engine = [&](core::NidsOptions o) {
    core::NidsEngine nids(o);
    nids.classifier().honeypots().add_decoy(net::Ipv4Addr::from_octets(10, 0, 0, 80));
    return nids;
  };

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " shards=" << shards);
      core::NidsOptions o = options;
      o.threads = threads;
      o.shards = shards;
      core::NidsEngine nids = make_engine(o);
      fresh_run();
      const core::Report report = nids.process_capture(capture);
      check(report.stats, report.alerts.size());
      // Concurrent runs may analyze two duplicates at once (two misses);
      // the serial run must replay them.
      if (threads == 1 && shards == 1) {
        EXPECT_GT(report.stats.cache_hits, 0u);
      }
    }
  }
  {
    SCOPED_TRACE("LiveSession");
    core::NidsEngine nids = make_engine(options);
    fresh_run();
    core::LiveSession session(nids, nullptr);
    for (const pcap::Record& rec : capture.records) {
      session.feed(rec.data, rec.ts_sec, rec.ts_usec);
    }
    session.finish();
    check(session.stats(), session.alerts_emitted());
    EXPECT_GT(session.stats().cache_hits, 0u);
  }
  recorder.configure({.slots = 0});
}

}  // namespace
}  // namespace senids::obs
