// Streaming session: alerts arrive incrementally, open flows flush at
// finish(), and the session's attribution slot and metrics log report
// what stats() does. Alert/counter equality with the 1-shard batch engine
// is pinned per corpus in tests/shard_differential_test.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/senids.hpp"
#include "core/session.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/traffic.hpp"
#include "obs/workers.hpp"
#include "util/log.hpp"

namespace senids::core {
namespace {

using net::Endpoint;
using net::Ipv4Addr;

const Ipv4Addr kHoneypot = Ipv4Addr::from_octets(10, 0, 0, 7);
const Endpoint kAttacker{Ipv4Addr::from_octets(192, 0, 2, 66), 31337};

pcap::Capture attack_capture(std::uint64_t seed, Endpoint attacker = kAttacker) {
  gen::TraceBuilder tb(seed);
  auto corpus = gen::make_shell_spawn_corpus();
  tb.add_tcp_flow(attacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(corpus[0].code, tb.prng()));
  auto poly = gen::admmutate_encode(corpus[1].code, tb.prng());
  tb.add_tcp_flow(attacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(poly.bytes, tb.prng()));
  for (int i = 0; i < 10; ++i) {
    const Endpoint client{Ipv4Addr::from_octets(198, 51, 100, 9), 40000};
    tb.add_benign(client, Ipv4Addr::from_octets(10, 0, 0, 20),
                  gen::make_benign_payload(tb.prng()));
  }
  return tb.take();
}

TEST(LiveSession, AlertsArriveIncrementally) {
  auto capture = attack_capture(91);
  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);

  std::vector<Alert> alerts;
  LiveSession session(engine, [&alerts](const Alert& a) { alerts.push_back(a); });
  std::size_t alerts_mid_stream = 0;
  for (std::size_t i = 0; i < capture.records.size(); ++i) {
    session.feed(capture.records[i].data, capture.records[i].ts_sec,
                 capture.records[i].ts_usec);
    if (i == capture.records.size() / 2) alerts_mid_stream = alerts.size();
  }
  session.finish();
  EXPECT_FALSE(alerts.empty());
  // The first flow closes early in the capture: some alert must have
  // arrived before the stream ended.
  EXPECT_GT(alerts_mid_stream, 0u);
}

/// One exploit flow whose FIN is dropped: it only surfaces at finish().
pcap::Capture open_flow_capture() {
  gen::TraceBuilder tb(93);
  auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[2].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, exploit);
  auto capture = tb.take();
  capture.records.pop_back();  // drop the FIN
  return capture;
}

TEST(LiveSession, FinishFlushesOpenFlows) {
  const pcap::Capture capture = open_flow_capture();

  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  std::vector<Alert> alerts;
  LiveSession session(engine, [&](const Alert& a) { alerts.push_back(a); });
  for (const auto& rec : capture.records) session.feed(rec.data);
  EXPECT_TRUE(alerts.empty());
  session.finish();
  EXPECT_FALSE(alerts.empty());
}

TEST(LiveSession, HandlesFragmentsInline) {
  gen::TraceBuilder tb(94);
  auto exploit = gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[1].code, tb.prng());
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80}, exploit);

  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  std::vector<Alert> alerts;
  LiveSession session(engine, [&](const Alert& a) { alerts.push_back(a); });
  for (const auto& rec : tb.capture().records) {
    for (const auto& frag : net::fragment_frame(rec.data, 64)) {
      session.feed(frag);
    }
  }
  session.finish();
  bool shell = false;
  for (const auto& a : alerts) {
    if (a.threat == semantic::ThreatClass::kShellSpawn) shell = true;
  }
  EXPECT_TRUE(shell);
}

TEST(LiveSession, NullSinkIsSafe) {
  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  LiveSession session(engine, nullptr);
  gen::TraceBuilder tb(95);
  tb.add_tcp_flow(kAttacker, Endpoint{kHoneypot, 80},
                  gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[0].code, tb.prng()));
  for (const auto& rec : tb.capture().records) session.feed(rec.data);
  session.finish();
  EXPECT_GT(session.stats().units_analyzed, 0u);
}

TEST(LiveSession, AttributionCountsUnitsAnalyzedAtFinish) {
  // The open flow's unit is analyzed inside finish(), not feed(): the
  // "session" attribution slot must count it all the same.
  obs::WorkerTable::instance().reset();
  const pcap::Capture capture = open_flow_capture();
  NidsOptions options;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  LiveSession session(engine, nullptr);
  for (const auto& rec : capture.records) session.feed(rec.data);
  session.finish();
  ASSERT_GT(session.stats().units_analyzed, 0u);
  // After reset() only this session's slot has counted anything.
  std::uint64_t session_units = 0;
  for (const auto& slot : obs::WorkerTable::instance().snapshot()) {
    if (slot.kind == "session") session_units += slot.units;
  }
  EXPECT_EQ(session_units, session.stats().units_analyzed);
}

/// Every alert a session over `engine` raises on `capture`, rendered.
std::vector<std::string> session_alerts(NidsEngine& engine, const pcap::Capture& capture) {
  std::vector<std::string> alerts;
  LiveSession session(engine, [&alerts](const Alert& a) { alerts.push_back(a.str()); });
  for (const auto& rec : capture.records) session.feed(rec.data, rec.ts_sec, rec.ts_usec);
  session.finish();
  return alerts;
}

NidsOptions shared_engine_options() {
  NidsOptions options;
  options.verdict_cache_bytes = 1 << 20;  // shared by both sessions
  return options;
}

TEST(LiveSession, TwoSessionsOnOneEngineConcurrently) {
  // One session per thread over one engine: each session classifies
  // against its own taint state, so each sees exactly what it would see
  // alone (and, under ThreadSanitizer, the two share no unsynchronized
  // state).
  const pcap::Capture captures[] = {
      attack_capture(97, Endpoint{Ipv4Addr::from_octets(192, 0, 2, 66), 31337}),
      attack_capture(98, Endpoint{Ipv4Addr::from_octets(192, 0, 2, 99), 31338}),
  };
  std::vector<std::string> solo[2];
  for (int i = 0; i < 2; ++i) {
    NidsEngine engine(shared_engine_options());
    engine.classifier().honeypots().add_decoy(kHoneypot);
    solo[i] = session_alerts(engine, captures[i]);
    ASSERT_FALSE(solo[i].empty());
  }

  NidsEngine shared(shared_engine_options());
  shared.classifier().honeypots().add_decoy(kHoneypot);
  std::vector<std::string> concurrent[2];
  {
    std::thread first([&] { concurrent[0] = session_alerts(shared, captures[0]); });
    std::thread second([&] { concurrent[1] = session_alerts(shared, captures[1]); });
    first.join();
    second.join();
  }
  EXPECT_EQ(concurrent[0], solo[0]);
  EXPECT_EQ(concurrent[1], solo[1]);
}

TEST(LiveSession, TwoSessionsOnOneEngineDoNotShareTaint) {
  // Session A sees the attacker touch the honeypot; session B, later on
  // the same engine, sees only the attacker's traffic to a production
  // server. Taint is per session, so B classifies none of it.
  NidsEngine engine(NidsOptions{});
  engine.classifier().honeypots().add_decoy(kHoneypot);
  LiveSession a(engine, nullptr);
  for (const auto& rec : attack_capture(99).records) a.feed(rec.data);
  a.finish();
  ASSERT_GT(a.stats().suspicious_packets, 0u);
  ASSERT_GT(a.alerts_emitted(), 0u);

  gen::TraceBuilder tb(100);
  tb.add_tcp_flow(kAttacker, Endpoint{Ipv4Addr::from_octets(10, 0, 0, 20), 80},
                  gen::wrap_in_overflow(gen::make_shell_spawn_corpus()[0].code, tb.prng()));
  LiveSession b(engine, nullptr);
  for (const auto& rec : tb.capture().records) b.feed(rec.data);
  b.finish();
  EXPECT_GT(b.stats().packets, 0u);
  EXPECT_EQ(b.stats().suspicious_packets, 0u);
  EXPECT_EQ(b.alerts_emitted(), 0u);
  // Neither session wrote to the engine's own (process_capture) taint.
  EXPECT_FALSE(engine.is_tainted(kAttacker.ip));
}

/// Captures "session metrics:" log lines at info level for its scope.
struct MetricsLogCapture {
  MetricsLogCapture() : prev_level(util::Log::level()) {
    util::Log::set_level(util::LogLevel::kInfo);
    util::Log::set_sink([this](util::LogLevel, const std::string& message) {
      if (message.rfind("session metrics:", 0) == 0) lines.push_back(message);
    });
  }
  ~MetricsLogCapture() {
    util::Log::set_sink(nullptr);
    util::Log::set_level(prev_level);
  }
  util::LogLevel prev_level;
  std::vector<std::string> lines;
};

/// Value of `key=` in a "session metrics:" log line.
std::size_t metric_field(const std::string& line, std::string_view key) {
  const std::size_t at = line.find(" " + std::string(key) + "=");
  EXPECT_NE(at, std::string::npos) << key << " missing from: " << line;
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

TEST(LiveSession, MetricsLogOneLinePerInterval) {
  constexpr std::uint32_t kInterval = 5;
  constexpr std::uint32_t kFirstTs = 1000;
  const pcap::Capture capture = attack_capture(96);
  ASSERT_GT(capture.records.size(), 4 * kInterval);

  MetricsLogCapture log;
  const std::vector<std::string>& lines = log.lines;

  NidsOptions options;
  options.metrics_log_interval_sec = kInterval;
  NidsEngine engine(options);
  engine.classifier().honeypots().add_decoy(kHoneypot);
  LiveSession session(engine, nullptr);
  // One frame per capture second: a line is due at every kInterval-th
  // second after the first frame.
  std::uint32_t ts = kFirstTs;
  for (const auto& rec : capture.records) {
    const std::size_t before = lines.size();
    session.feed(rec.data, ts, 0);
    const bool due = ts > kFirstTs && (ts - kFirstTs) % kInterval == 0;
    ASSERT_EQ(lines.size(), before + (due ? 1 : 0)) << "ts=" << ts;
    if (due) {
      EXPECT_EQ(metric_field(lines.back(), "packets"), session.stats().packets);
      EXPECT_EQ(metric_field(lines.back(), "units"), session.stats().units_analyzed);
    }
    ++ts;
  }
  session.finish();

  const std::uint32_t elapsed = ts - 1 - kFirstTs;
  EXPECT_EQ(lines.size(), elapsed / kInterval);
  EXPECT_GT(metric_field(lines.back(), "units"), 0u);
}

}  // namespace
}  // namespace senids::core
