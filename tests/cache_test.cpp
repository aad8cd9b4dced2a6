// Unit tests for the verdict-cache building blocks: the SHA-256
// primitive (FIPS 180-4 vectors), the configuration fingerprint, and the
// sharded byte-budgeted LRU itself.
#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "cache/fingerprint.hpp"
#include "cache/sha256.hpp"
#include "cache/verdict_cache.hpp"
#include "core/engine.hpp"
#include "semantic/library.hpp"
#include "util/bytes.hpp"
#include "util/cpu.hpp"
#include "util/prng.hpp"

namespace senids {
namespace {

std::string hex(const cache::Digest& d) {
  return util::to_hex(util::ByteView{d.data(), d.size()});
}

// ------------------------------------------------------------------ SHA-256

// Every digest check runs on both compression kernels. The scalar half
// always runs; the SHA-NI half skips on a host without the extension.
#define SKIP_WITHOUT_SHA_NI() \
  if (!util::cpu_has_sha()) GTEST_SKIP() << "host CPU has no SHA extensions"

void expect_fips180_vectors(bool allow_simd) {
  auto digest = [allow_simd](const char* msg) {
    return hex(cache::Sha256::hash(util::as_bytes(msg), allow_simd));
  };
  EXPECT_EQ(digest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 56 bytes: the padding needs a second block.
  EXPECT_EQ(digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // 112 bytes: one full block through update(), the rest through finish().
  EXPECT_EQ(digest("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                   "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

void expect_million_as(bool allow_simd) {
  cache::Sha256 ctx(allow_simd);
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(util::as_bytes(chunk));
  EXPECT_EQ(hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, Fips180KnownVectors) { expect_fips180_vectors(/*allow_simd=*/false); }

TEST(Sha256, Fips180KnownVectorsShaNi) {
  SKIP_WITHOUT_SHA_NI();
  expect_fips180_vectors(/*allow_simd=*/true);
}

TEST(Sha256, MillionAs) { expect_million_as(/*allow_simd=*/false); }

TEST(Sha256, MillionAsShaNi) {
  SKIP_WITHOUT_SHA_NI();
  expect_million_as(/*allow_simd=*/true);
}

TEST(Sha256, ShaNiMatchesScalarOnRandomStatesAndBlocks) {
  SKIP_WITHOUT_SHA_NI();
  util::Prng rng(0x5ba256);
  for (std::size_t nblocks = 1; nblocks <= 64; ++nblocks) {
    for (int trial = 0; trial < 4; ++trial) {
      cache::Sha256State scalar{};
      for (std::uint32_t& word : scalar) word = static_cast<std::uint32_t>(rng.next());
      cache::Sha256State shani = scalar;
      const util::Bytes data = rng.bytes(64 * nblocks);
      cache::compress_blocks(scalar, data.data(), nblocks, /*allow_simd=*/false);
      cache::compress_blocks(shani, data.data(), nblocks, /*allow_simd=*/true);
      ASSERT_EQ(shani, scalar) << nblocks << " blocks, trial " << trial;
    }
  }
}

TEST(Sha256, EveryUpdateSplitMatchesOneShotOnBothKernels) {
  const util::Bytes msg = util::Prng(300).bytes(300);
  const cache::Digest want = cache::Sha256::hash(msg, /*allow_simd=*/false);
  auto split_digest = [&msg](bool allow_simd, std::size_t split) {
    cache::Sha256 ctx(allow_simd);
    ctx.update(util::ByteView{msg.data(), split});
    ctx.update(util::ByteView{msg.data() + split, msg.size() - split});
    return ctx.finish();
  };
  for (std::size_t split = 0; split <= 129; ++split) {
    EXPECT_EQ(split_digest(false, split), want) << "scalar, split at " << split;
  }
  SKIP_WITHOUT_SHA_NI();
  EXPECT_EQ(cache::Sha256::hash(msg, /*allow_simd=*/true), want);
  for (std::size_t split = 0; split <= 129; ++split) {
    EXPECT_EQ(split_digest(true, split), want) << "sha-ni, split at " << split;
  }
}

TEST(Sha256, IncrementalEqualsOneShot) {
  // Split points that exercise the buffering paths: mid-block, exactly at
  // a block boundary, and multi-block tails.
  const util::Bytes data = util::Prng(42).bytes(257);
  const cache::Digest whole = cache::Sha256::hash(data);
  for (std::size_t split : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{128}, std::size_t{200}}) {
    cache::Sha256 ctx;
    ctx.update(util::ByteView{data.data(), split});
    ctx.update(util::ByteView{data.data() + split, data.size() - split});
    EXPECT_EQ(ctx.finish(), whole) << "split at " << split;
  }
}

// -------------------------------------------------------------- fingerprint

cache::Digest fingerprint_of(const core::NidsOptions& options) {
  core::NidsEngine engine(options);
  return engine.config_fingerprint();
}

TEST(ConfigFingerprint, StableAcrossIdenticalEngines) {
  EXPECT_EQ(fingerprint_of(core::NidsOptions{}), fingerprint_of(core::NidsOptions{}));
}

TEST(ConfigFingerprint, ChangesWithTemplateSet) {
  core::NidsOptions options;
  core::NidsEngine standard(options);
  core::NidsEngine extended(options, semantic::make_extended_library());
  EXPECT_NE(standard.config_fingerprint(), extended.config_fingerprint());
}

TEST(ConfigFingerprint, BuiltinLibraryDigestsArePinned) {
  // The built-in templates are the parsed templates/*.tmpl files. These
  // digests were taken from the hand-built C++ library the files
  // replaced, so they prove the move changed no verdict and no cache
  // key. An intended edit to a built-in template must update them (and
  // thereby invalidates every cached verdict, by construction).
  auto library_digest = [](const std::vector<semantic::Template>& lib) {
    cache::Sha256 ctx;
    cache::hash_templates(ctx, lib);
    return hex(ctx.finish());
  };
  EXPECT_EQ(library_digest(semantic::make_standard_library()),
            "8cf356730da5199bfae016931a8062761df3edbda5eea0aa7d95000f7437d62b");
  EXPECT_EQ(library_digest(semantic::make_extended_library()),
            "10e04a84f851febc8e6aba8d67c143c1432a10fd9e3f5f460ec5de5c62023fa0");
  // The default engine's fingerprint is also /statusz build_info.
  EXPECT_EQ(hex(fingerprint_of(core::NidsOptions{})),
            "7cf6434760e8322130e964e7c888dfc04cbfd4fa47c13ad9f32462182bdc0d36");
  core::NidsOptions x64;
  x64.arch = &arch::Arch::x86_64();
  EXPECT_EQ(hex(fingerprint_of(x64)),
            "9cd54e76c6a9a67ffe2dbf1d928b273632564bfd2df914e42365c86526863222");
}

TEST(ConfigFingerprint, ChangesWithVerdictAffectingOptions) {
  const cache::Digest base = fingerprint_of(core::NidsOptions{});

  core::NidsOptions emu;
  emu.enable_emulation = true;
  EXPECT_NE(fingerprint_of(emu), base);

  core::NidsOptions extract_all;
  extract_all.extractor.extract_all = true;
  EXPECT_NE(fingerprint_of(extract_all), base);

  core::NidsOptions budget;
  budget.analyzer.max_total_insns = 1234;
  EXPECT_NE(fingerprint_of(budget), base);
}

TEST(ConfigFingerprint, IgnoresCacheAndThreadingKnobs) {
  // Options that cannot change a unit's verdict must not invalidate the
  // key space: flipping the cache budget or the worker count between
  // deployments should keep keys comparable.
  const cache::Digest base = fingerprint_of(core::NidsOptions{});

  core::NidsOptions tuned;
  tuned.threads = 8;
  tuned.verdict_cache_bytes = 1 << 20;
  tuned.max_queued_units = 4;
  EXPECT_EQ(fingerprint_of(tuned), base);
}

TEST(ConfigFingerprint, SameOnEveryKernel) {
  // Keys stay comparable across hosts with and without SHA-NI (DESIGN.md
  // "Key derivation"): the engine's fingerprint and the key it files a
  // unit under are what the scalar kernel computes.
  SKIP_WITHOUT_SHA_NI();
  core::NidsOptions options;
  options.verdict_cache_bytes = 1 << 20;
  core::NidsEngine engine(options);
  const auto& templates = engine.analyzer().templates();
  const cache::Digest scalar_fp =
      core::compute_config_fingerprint(engine.options(), templates, /*allow_simd=*/false);
  EXPECT_EQ(
      core::compute_config_fingerprint(engine.options(), templates, /*allow_simd=*/true),
      scalar_fp);
  EXPECT_EQ(engine.config_fingerprint(), scalar_fp);

  const util::Bytes unit = util::Prng(7).bytes(1000);
  const cache::Digest scalar_key = cache::unit_key(scalar_fp, unit, /*allow_simd=*/false);
  EXPECT_EQ(cache::unit_key(scalar_fp, unit, /*allow_simd=*/true), scalar_key);
  (void)engine.analyze_payload(unit, core::Alert{});
  EXPECT_TRUE(engine.verdict_cache()->lookup(scalar_key).has_value());
}

TEST(ConfigFingerprint, HashTemplatesCoversStatementFields) {
  auto lib = semantic::make_standard_library();
  cache::Sha256 a, b;
  cache::hash_templates(a, lib);
  ASSERT_FALSE(lib.empty());
  ASSERT_FALSE(lib[0].stmts.empty());
  lib[0].stmts[0].width = 16;  // verdict-relevant tweak
  cache::hash_templates(b, lib);
  EXPECT_NE(a.finish(), b.finish());
}

// ----------------------------------------------------------- VerdictCache

cache::Digest key_of(std::uint64_t n) {
  return cache::Sha256::hash(util::ByteView{reinterpret_cast<const std::uint8_t*>(&n),
                                            sizeof n});
}

cache::Verdict verdict_of(std::uint64_t n, std::size_t name_len = 16) {
  cache::Verdict v;
  cache::CachedAlert a;
  a.threat = semantic::ThreatClass::kCustom;
  a.template_name = std::string(name_len, static_cast<char>('a' + n % 26));
  a.frame_offset = n;
  v.alerts.push_back(std::move(a));
  v.bytes_analyzed = 100 * n;
  return v;
}

TEST(VerdictCache, MissThenHitRoundTrips) {
  cache::VerdictCache c({1 << 20, 4});
  const cache::Digest k = key_of(7);
  EXPECT_FALSE(c.lookup(k).has_value());
  c.insert(k, verdict_of(7));
  auto got = c.lookup(k);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->alerts.size(), 1u);
  EXPECT_EQ(got->alerts[0].frame_offset, 7u);
  EXPECT_EQ(got->bytes_analyzed, 700u);

  const auto s = c.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(VerdictCache, DuplicateInsertKeepsFirstEntry) {
  cache::VerdictCache c({1 << 20, 1});
  const cache::Digest k = key_of(1);
  c.insert(k, verdict_of(1));
  c.insert(k, verdict_of(2));  // racing-worker scenario: first wins
  auto got = c.lookup(k);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->alerts[0].frame_offset, 1u);
  EXPECT_EQ(c.stats().insertions, 1u);
  EXPECT_EQ(c.stats().entries, 1u);
}

TEST(VerdictCache, ByteBudgetEvictsLeastRecentlyUsed) {
  // One shard so the LRU order is directly observable. Budget sized for
  // only a few entries.
  cache::VerdictCache c({2048, 1});
  std::vector<cache::Digest> keys;
  for (std::uint64_t i = 0; i < 64; ++i) {
    keys.push_back(key_of(i));
    c.insert(keys.back(), verdict_of(i));
  }
  const auto s = c.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, c.byte_budget());
  EXPECT_EQ(s.insertions - s.evictions, s.entries);
  // The most recently inserted key must have survived; the very first
  // must be long gone.
  EXPECT_TRUE(c.lookup(keys.back()).has_value());
  EXPECT_FALSE(c.lookup(keys.front()).has_value());
}

TEST(VerdictCache, LookupRefreshesRecency) {
  cache::VerdictCache c({2048, 1});
  const cache::Digest hot = key_of(1000);
  c.insert(hot, verdict_of(1000));
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(c.lookup(hot).has_value()) << "hot key evicted after " << i << " inserts";
    c.insert(key_of(i), verdict_of(i));
  }
  EXPECT_TRUE(c.lookup(hot).has_value());
}

TEST(VerdictCache, OversizedEntryIsNotAdmitted) {
  cache::VerdictCache c({512, 1});
  const cache::Digest k = key_of(5);
  c.insert(k, verdict_of(5, /*name_len=*/4096));
  EXPECT_FALSE(c.lookup(k).has_value());
  EXPECT_EQ(c.stats().insertions, 0u);
  EXPECT_EQ(c.stats().entries, 0u);
}

TEST(VerdictCache, ClearDropsEverything) {
  cache::VerdictCache c({1 << 20, 4});
  for (std::uint64_t i = 0; i < 32; ++i) c.insert(key_of(i), verdict_of(i));
  EXPECT_GT(c.stats().entries, 0u);
  c.clear();
  EXPECT_EQ(c.stats().entries, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
  EXPECT_FALSE(c.lookup(key_of(3)).has_value());
}

TEST(VerdictCache, DegenerateBudgetRejectsEverythingSafely) {
  // A budget below any entry's cost caches nothing — every lookup is a
  // miss, no entry is admitted, and nothing crashes.
  cache::VerdictCache c({1, 16});
  const cache::Digest k = key_of(9);
  c.insert(k, verdict_of(9, 4));
  EXPECT_FALSE(c.lookup(k).has_value());
  EXPECT_EQ(c.stats().insertions, 0u);
  EXPECT_EQ(c.stats().bytes, 0u);
}

}  // namespace
}  // namespace senids
