#include <gtest/gtest.h>

#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"

namespace senids::semantic {
namespace {

bool detected(const std::vector<Detection>& ds, ThreatClass threat) {
  for (const auto& d : ds) {
    if (d.threat == threat) return true;
  }
  return false;
}

TEST(Analyzer, DetectsEveryShellSpawnVariant) {
  SemanticAnalyzer analyzer(make_standard_library());
  for (const auto& sample : gen::make_shell_spawn_corpus()) {
    auto ds = analyzer.analyze(sample.code);
    EXPECT_TRUE(detected(ds, ThreatClass::kShellSpawn)) << sample.name;
    if (sample.binds_port) {
      EXPECT_TRUE(detected(ds, ThreatClass::kPortBindShell)) << sample.name;
    } else {
      EXPECT_FALSE(detected(ds, ThreatClass::kPortBindShell)) << sample.name;
    }
  }
}

TEST(Analyzer, DetectsIisAspOverflowDecoder) {
  SemanticAnalyzer analyzer(make_standard_library());
  auto ds = analyzer.analyze(gen::make_iis_asp_overflow_payload());
  EXPECT_TRUE(detected(ds, ThreatClass::kDecryptionLoop));
}

TEST(Analyzer, DetectsNetskyLikeSample) {
  util::Prng prng(1234);
  auto sample = gen::make_netsky_like_sample(prng);
  SemanticAnalyzer analyzer(make_standard_library());
  auto ds = analyzer.analyze(sample);
  EXPECT_TRUE(detected(ds, ThreatClass::kDecryptionLoop));
}

TEST(Analyzer, XorOnlyLibraryMissesAltScheme) {
  // The Table 2 mechanism: the xor template alone cannot see the
  // or/and/not decoder.
  util::Prng prng(7);
  gen::PolyOptions opts;
  opts.xor_scheme_prob = 0.0;  // force the alternate scheme
  auto poly = gen::admmutate_encode(util::to_bytes("PAYLOADPAYLOAD"), prng, opts);
  ASSERT_EQ(poly.scheme, gen::DecoderScheme::kAltOrAndNot);

  SemanticAnalyzer xor_only(make_xor_only_library());
  EXPECT_FALSE(detected(xor_only.analyze(poly.bytes), ThreatClass::kDecryptionLoop));

  SemanticAnalyzer full(make_standard_library());
  EXPECT_TRUE(detected(full.analyze(poly.bytes), ThreatClass::kDecryptionLoop));
}

TEST(Analyzer, SweepOverAdmmutateSeeds) {
  // Property sweep: every generated instance, regardless of seed and
  // scheme, is caught by the full library.
  SemanticAnalyzer analyzer(make_decoder_library());
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::admmutate_encode(payload, prng);
    EXPECT_TRUE(detected(analyzer.analyze(poly.bytes), ThreatClass::kDecryptionLoop))
        << "seed " << seed << " scheme " << static_cast<int>(poly.scheme);
  }
}

TEST(Analyzer, SweepOverCletSeeds) {
  SemanticAnalyzer analyzer(make_xor_only_library());
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::clet_encode(payload, prng);
    EXPECT_TRUE(detected(analyzer.analyze(poly.bytes), ThreatClass::kDecryptionLoop))
        << "seed " << seed;
  }
}

TEST(Analyzer, CleanOnBenignText) {
  SemanticAnalyzer analyzer(make_standard_library());
  std::string html = "<html><body>";
  for (int i = 0; i < 200; ++i) html += "completely ordinary web page text ";
  html += "</body></html>";
  EXPECT_TRUE(analyzer.analyze(util::as_bytes(html)).empty());
}

TEST(Analyzer, CleanOnRandomBytes) {
  SemanticAnalyzer analyzer(make_standard_library());
  util::Prng prng(555);
  for (int trial = 0; trial < 10; ++trial) {
    auto noise = prng.bytes(4096);
    EXPECT_TRUE(analyzer.analyze(noise).empty()) << "trial " << trial;
  }
}

TEST(Analyzer, EmptyFrameYieldsNothing) {
  SemanticAnalyzer analyzer(make_standard_library());
  util::Bytes empty;
  EXPECT_TRUE(analyzer.analyze(empty).empty());
}

TEST(Analyzer, StatsAreAccumulated) {
  SemanticAnalyzer analyzer(make_standard_library());
  AnalyzerStats stats;
  analyzer.analyze(gen::make_iis_asp_overflow_payload(), &stats);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_GE(stats.candidate_runs, 1u);
  EXPECT_GE(stats.traces, 1u);
  EXPECT_GE(stats.instructions_lifted, 10u);
  EXPECT_GE(stats.template_matches_tried, 1u);
}

TEST(Analyzer, OneDetectionPerTemplatePerFrame) {
  // Two decoders in one frame still produce a single xor-template hit.
  auto one = gen::make_iis_asp_overflow_payload(0x41);
  auto two = gen::make_iis_asp_overflow_payload(0x42);
  util::Bytes both = one;
  both.insert(both.end(), 64, 0x90);
  both.insert(both.end(), two.begin(), two.end());
  SemanticAnalyzer analyzer(make_xor_only_library());
  auto ds = analyzer.analyze(both);
  EXPECT_EQ(ds.size(), 1u);
}

TEST(Analyzer, DetectionCarriesBindings) {
  SemanticAnalyzer analyzer(make_xor_only_library());
  auto ds = analyzer.analyze(gen::make_iis_asp_overflow_payload(0x5d));
  ASSERT_EQ(ds.size(), 1u);
  ASSERT_TRUE(ds[0].bindings.contains("K"));
  std::uint32_t k;
  ASSERT_TRUE(ir::is_const(ds[0].bindings["K"], &k));
  EXPECT_EQ(k, 0x5du);
}

/// Every binding of `d`, rendered; reads each bound node.
std::string render_bindings(const Detection& d) {
  std::string out;
  for (const auto& [name, value] : d.bindings) {
    out += name + "=" + ir::to_string(value) + ";";
  }
  return out;
}

TEST(Analyzer, DetectionBindingsOutliveLaterLiftsInTheSameScratch) {
  // Bindings point into the arena of the lift that matched. The
  // detection holds that arena, so the worker's later lifts through the
  // same scratch start a fresh arena instead of recycling this one.
  SemanticAnalyzer analyzer(make_xor_only_library());
  AnalyzerScratch scratch;
  auto ds = analyzer.analyze(gen::make_iis_asp_overflow_payload(0x5d), nullptr, scratch);
  ASSERT_EQ(ds.size(), 1u);
  ASSERT_NE(ds[0].arena, nullptr);
  const std::string before = render_bindings(ds[0]);
  // A by-value copy of the lifted trace shares the same guarantee.
  const ir::LiftResult copy = scratch.lifted;
  std::string copy_before;
  for (const ir::Event& ev : copy.events) copy_before += ir::to_string(ev.value);

  util::Prng prng(17);
  for (int i = 0; i < 8; ++i) {
    util::Bytes noise(1400);
    for (auto& b : noise) b = static_cast<std::uint8_t>(prng.next());
    analyzer.analyze(noise, nullptr, scratch);
  }
  auto again =
      analyzer.analyze(gen::make_iis_asp_overflow_payload(0x11), nullptr, scratch);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_NE(again[0].arena, ds[0].arena);

  EXPECT_EQ(render_bindings(ds[0]), before);
  std::uint32_t k = 0;
  ASSERT_TRUE(ir::is_const(ds[0].bindings.at("K"), &k));
  EXPECT_EQ(k, 0x5du);
  std::string copy_after;
  for (const ir::Event& ev : copy.events) copy_after += ir::to_string(ev.value);
  EXPECT_EQ(copy_after, copy_before);
}

TEST(Analyzer, RespectsMaxEntriesOption) {
  SemanticAnalyzer::Options opts;
  opts.max_entries = 1;
  SemanticAnalyzer analyzer(make_standard_library(), opts);
  // Still functional (the first entry is the interesting one here).
  auto ds = analyzer.analyze(gen::make_iis_asp_overflow_payload());
  EXPECT_FALSE(ds.empty());
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Analyzer, FnstenvGetPcInstancesDetected) {
  gen::PolyOptions opts;
  opts.fnstenv_getpc_prob = 1.0;
  SemanticAnalyzer analyzer(make_decoder_library());
  auto payload = gen::make_shell_spawn_corpus()[1].code;
  for (std::uint64_t seed = 400; seed < 412; ++seed) {
    util::Prng prng(seed);
    auto poly = gen::admmutate_encode(payload, prng, opts);
    bool hit = false;
    for (const auto& d : analyzer.analyze(poly.bytes)) {
      if (d.threat == ThreatClass::kDecryptionLoop) hit = true;
    }
    EXPECT_TRUE(hit) << "seed " << seed;
  }
}

}  // namespace
}  // namespace senids::semantic
