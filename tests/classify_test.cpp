#include <gtest/gtest.h>

#include "classify/classifier.hpp"
#include "net/forge.hpp"

namespace senids::classify {
namespace {

using net::Endpoint;
using net::Ipv4Addr;

net::ParsedPacket packet(Ipv4Addr src, Ipv4Addr dst, std::uint16_t dport = 80) {
  auto frame = net::forge_tcp(Endpoint{src, 40000}, Endpoint{dst, dport}, 1,
                              util::as_bytes("x"));
  return *net::parse_frame(frame);
}

const Ipv4Addr kAttacker = Ipv4Addr::from_octets(192, 0, 2, 66);
const Ipv4Addr kClient = Ipv4Addr::from_octets(198, 51, 100, 10);
const Ipv4Addr kServer = Ipv4Addr::from_octets(10, 0, 0, 20);
const Ipv4Addr kHoneypot = Ipv4Addr::from_octets(10, 0, 0, 7);

TEST(Prefix, ContainsMath) {
  Prefix p{Ipv4Addr::from_octets(10, 0, 64, 0), 18};
  EXPECT_TRUE(p.contains(Ipv4Addr::from_octets(10, 0, 64, 1)));
  EXPECT_TRUE(p.contains(Ipv4Addr::from_octets(10, 0, 127, 255)));
  EXPECT_FALSE(p.contains(Ipv4Addr::from_octets(10, 0, 128, 0)));
  EXPECT_FALSE(p.contains(Ipv4Addr::from_octets(10, 1, 64, 0)));
}

TEST(Prefix, HostRouteAndDefault) {
  Prefix host{kHoneypot, 32};
  EXPECT_TRUE(host.contains(kHoneypot));
  EXPECT_FALSE(host.contains(kServer));
  Prefix all{Ipv4Addr{0}, 0};
  EXPECT_TRUE(all.contains(kAttacker));
}

TEST(Honeypot, TouchingDecoyTaintsSource) {
  TrafficClassifier c;
  c.honeypots().add_decoy(kHoneypot);
  ClassifierState st = c.make_state();
  // First packet to the honeypot is itself analyzed (source now tainted).
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, kHoneypot)), Verdict::kAnalyze);
  // Subsequent traffic from the same host anywhere is analyzed.
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, kServer)), Verdict::kAnalyze);
  // Unrelated hosts stay clean.
  EXPECT_EQ(c.observe_in(st, packet(kClient, kServer)), Verdict::kIgnore);
  EXPECT_TRUE(st.tainted.contains(kAttacker.value));
  EXPECT_FALSE(st.tainted.contains(kClient.value));
}

TEST(Honeypot, DisabledSchemeIgnoresDecoys) {
  ClassifierOptions opts;
  opts.use_honeypot = false;
  TrafficClassifier c(opts);
  c.honeypots().add_decoy(kHoneypot);
  ClassifierState st = c.make_state();
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, kHoneypot)), Verdict::kIgnore);
}

TEST(DarkSpace, ThresholdCrossingTaints) {
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  TrafficClassifier c(opts);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  ClassifierState st = c.make_state();

  // Two probes: below threshold, still ignored.
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1))),
            Verdict::kIgnore);
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 2))),
            Verdict::kIgnore);
  EXPECT_FALSE(st.tainted.contains(kAttacker.value));
  // Third probe reaches t=3: tainted from here on.
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 3))),
            Verdict::kAnalyze);
  EXPECT_TRUE(st.tainted.contains(kAttacker.value));
  // And now even traffic to production hosts is analyzed.
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, kServer)), Verdict::kAnalyze);
}

TEST(DarkSpace, CountsPerSource) {
  ClassifierOptions opts;
  opts.dark_space_threshold = 5;
  TrafficClassifier c(opts);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  ClassifierState st = c.make_state();
  for (int i = 0; i < 4; ++i) {
    c.observe_in(st, packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1)));
    c.observe_in(st, packet(kClient, kServer));
  }
  EXPECT_EQ(st.dark_counts.count(kAttacker.value), 4u);
  EXPECT_EQ(st.dark_counts.count(kClient.value), 0u);
  EXPECT_FALSE(st.tainted.contains(kAttacker.value));
}

TEST(DarkSpace, TrafficToUsedSpaceNeverCounts) {
  TrafficClassifier c;
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  ClassifierState st = c.make_state();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.observe_in(st, packet(kAttacker, kServer)), Verdict::kIgnore);
  }
  EXPECT_EQ(st.dark_counts.count(kAttacker.value), 0u);
}

TEST(DarkSpace, CounterTableCapEvictsLeastRecentlyProbed) {
  DarkSpaceCounters counters(/*max_sources=*/2);
  EXPECT_EQ(counters.increment(1), 1u);
  EXPECT_EQ(counters.increment(2), 1u);
  EXPECT_EQ(counters.increment(1), 2u);  // refreshes 1: now 2 is coldest
  EXPECT_EQ(counters.evictions(), 0u);
  // A third source exceeds the cap; the coldest (2) is evicted.
  EXPECT_EQ(counters.increment(3), 1u);
  EXPECT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.evictions(), 1u);
  EXPECT_EQ(counters.count(2), 0u);
  EXPECT_EQ(counters.count(1), 2u);
  // The evicted source starts over from zero if it probes again.
  EXPECT_EQ(counters.increment(2), 1u);
  EXPECT_EQ(counters.evictions(), 2u);
}

TEST(DarkSpace, UnboundedTableNeverEvicts) {
  DarkSpaceCounters counters(/*max_sources=*/0);
  for (std::uint32_t src = 0; src < 1000; ++src) counters.increment(src);
  EXPECT_EQ(counters.size(), 1000u);
  EXPECT_EQ(counters.evictions(), 0u);
}

TEST(DarkSpace, SourceCapDelaysTaintUnderSpoofedFlood) {
  // An attacker cycling more spoofed sources than the cap keeps evicting
  // its own counters: no source accumulates enough probes to taint, but
  // the table stays bounded — the documented trade.
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  opts.dark_space_max_sources = 4;
  TrafficClassifier c(opts);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  ClassifierState st = c.make_state();
  for (int round = 0; round < 2; ++round) {
    for (std::uint8_t s = 1; s <= 16; ++s) {
      c.observe_in(st, packet(Ipv4Addr::from_octets(203, 0, 113, s),
                              Ipv4Addr::from_octets(10, 0, 200, 1)));
    }
  }
  EXPECT_EQ(st.tainted.size(), 0u);
  EXPECT_GT(st.dark_counts.evictions(), 0u);
  EXPECT_LE(st.dark_counts.size(), 4u);
}

/// One classifier configured with both schemes (threshold 3).
TrafficClassifier both_schemes() {
  ClassifierOptions opts;
  opts.dark_space_threshold = 3;
  TrafficClassifier c(opts);
  c.honeypots().add_decoy(kHoneypot);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  return c;
}

TEST(Classifier, ObserveAndCheckVerdictSequence) {
  // observe_in and check_in over one mixed stream: every verdict of each,
  // packet by packet. check_in reads the taint observe_in just updated.
  const TrafficClassifier c = both_schemes();
  ClassifierState state = c.make_state();
  struct Step {
    Ipv4Addr src, dst;
    Verdict expected;
  };
  const Step stream[] = {
      {kAttacker, Ipv4Addr::from_octets(10, 0, 200, 1), Verdict::kIgnore},
      {kClient, kServer, Verdict::kIgnore},
      {kAttacker, Ipv4Addr::from_octets(10, 0, 200, 2), Verdict::kIgnore},
      {kAttacker, Ipv4Addr::from_octets(10, 0, 200, 3), Verdict::kAnalyze},  // n == t
      {kAttacker, kServer, Verdict::kAnalyze},
      {kClient, kHoneypot, Verdict::kAnalyze},
      {kClient, kServer, Verdict::kAnalyze},
  };
  for (const Step& step : stream) {
    const net::ParsedPacket pkt = packet(step.src, step.dst);
    EXPECT_EQ(c.observe_in(state, pkt), step.expected);
    EXPECT_EQ(c.check_in(state, pkt), step.expected);
  }
  EXPECT_TRUE(state.tainted.contains(kAttacker.value));
  EXPECT_TRUE(state.tainted.contains(kClient.value));
}

TEST(Classifier, StatesDoNotShareTaint) {
  // Two pipelines over one classifier: taint and probe counts in one
  // state never leak into the other.
  const TrafficClassifier c = both_schemes();
  ClassifierState a = c.make_state();
  ClassifierState b = c.make_state();
  EXPECT_EQ(c.observe_in(a, packet(kAttacker, kHoneypot)), Verdict::kAnalyze);
  c.observe_in(a, packet(kClient, Ipv4Addr::from_octets(10, 0, 200, 1)));
  EXPECT_EQ(c.check_in(b, packet(kAttacker, kServer)), Verdict::kIgnore);
  EXPECT_EQ(c.observe_in(b, packet(kAttacker, kServer)), Verdict::kIgnore);
  EXPECT_TRUE(b.tainted.empty());
  EXPECT_EQ(b.dark_counts.count(kClient.value), 0u);
  EXPECT_EQ(a.dark_counts.count(kClient.value), 1u);
}

TEST(Classifier, MakeStateInheritsCounterCap) {
  ClassifierOptions opts;
  opts.dark_space_max_sources = 2;
  TrafficClassifier c(opts);
  ClassifierState state = c.make_state();
  for (std::uint32_t src = 0; src < 8; ++src) state.dark_counts.increment(src);
  EXPECT_LE(state.dark_counts.size(), 2u);
  EXPECT_EQ(state.dark_counts.evictions(), 6u);
}

TEST(Classifier, AnalyzeEverythingMode) {
  ClassifierOptions opts;
  opts.analyze_everything = true;
  TrafficClassifier c(opts);
  ClassifierState st = c.make_state();
  EXPECT_EQ(c.observe_in(st, packet(kClient, kServer)), Verdict::kAnalyze);
  EXPECT_EQ(c.check_in(st, packet(kClient, kServer)), Verdict::kAnalyze);
  // Without taint bookkeeping: everything is analyzed, nothing tainted.
  EXPECT_EQ(st.tainted.size(), 0u);
}

TEST(Classifier, BothSchemesCompose) {
  ClassifierOptions opts;
  opts.dark_space_threshold = 2;
  TrafficClassifier c(opts);
  c.honeypots().add_decoy(kHoneypot);
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  ClassifierState st = c.make_state();

  const Ipv4Addr scanner = Ipv4Addr::from_octets(203, 0, 113, 5);
  c.observe_in(st, packet(scanner, Ipv4Addr::from_octets(10, 0, 200, 9)));
  c.observe_in(st, packet(scanner, Ipv4Addr::from_octets(10, 0, 200, 10)));
  c.observe_in(st, packet(kAttacker, kHoneypot));
  EXPECT_TRUE(st.tainted.contains(scanner.value));
  EXPECT_TRUE(st.tainted.contains(kAttacker.value));
  EXPECT_EQ(st.tainted.size(), 2u);
}

TEST(Classifier, HoneypotHitAlsoCountsAsDarkIfConfigured) {
  // A honeypot address can simultaneously live inside an unused prefix;
  // both schemes then see the probe.
  ClassifierOptions opts;
  opts.dark_space_threshold = 1;
  TrafficClassifier c(opts);
  c.honeypots().add_decoy(Ipv4Addr::from_octets(10, 0, 200, 7));
  c.dark_space().add_unused_prefix(Prefix{Ipv4Addr::from_octets(10, 0, 200, 0), 24});
  ClassifierState st = c.make_state();
  EXPECT_EQ(c.observe_in(st, packet(kAttacker, Ipv4Addr::from_octets(10, 0, 200, 7))),
            Verdict::kAnalyze);
  EXPECT_EQ(st.dark_counts.count(kAttacker.value), 1u);
}

}  // namespace
}  // namespace senids::classify
