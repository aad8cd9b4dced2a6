// SHA-256 (FIPS 180-4), incremental. The verdict cache is
// content-addressed: a cache hit silently replaces the whole analysis
// pipeline for a unit, so the key hash must make an accidental collision
// between two different payloads a non-event in practice. A 64-bit mixer
// cannot promise that at production volumes (2^32 distinct units puts a
// birthday collision on the table); a 256-bit cryptographic digest can.
// Self-contained — no OpenSSL dependency.
//
// Two compression kernels: the portable scalar one and one on the x86
// SHA extensions (SHA-NI). One CPU probe picks the kernel once per
// process; both produce bit-identical digests, so cache keys and the
// engine's config fingerprint are the same on every host.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"
#include "util/cpu.hpp"

namespace senids::cache {

/// A finished SHA-256 digest. Doubles as the verdict-cache key.
using Digest = std::array<std::uint8_t, 32>;

/// The eight working words a, b, ..., h between blocks.
using Sha256State = std::array<std::uint32_t, 8>;

/// Run the SHA-256 compression function over `nblocks` consecutive
/// 64-byte blocks at `data`. Uses the SHA-NI kernel when the CPU has it;
/// `allow_simd == false` forces the scalar kernel (hosts without the
/// extension run it anyway; differential tests call it on purpose).
void compress_blocks(Sha256State& state, const std::uint8_t* data, std::size_t nblocks,
                     bool allow_simd = true) noexcept;

/// The kernel compress_blocks uses by default in this process: "sha-ni"
/// or "scalar". Shown on /statusz, since it sets the cache-key cost.
[[nodiscard]] inline const char* sha256_kernel() noexcept {
  return util::cpu_has_sha() ? "sha-ni" : "scalar";
}

class Sha256 {
 public:
  /// `allow_simd == false` pins this context to the scalar kernel.
  explicit Sha256(bool allow_simd = true) noexcept : allow_simd_(allow_simd) { reset(); }

  void reset() noexcept;

  /// Absorb `len` bytes. May be called any number of times.
  void update(const void* data, std::size_t len) noexcept;
  void update(util::ByteView bytes) noexcept { update(bytes.data(), bytes.size()); }

  /// Finalize and return the digest. The context is consumed — call
  /// reset() before reusing it.
  [[nodiscard]] Digest finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(util::ByteView bytes, bool allow_simd = true) noexcept;

 private:
  Sha256State state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  bool allow_simd_ = true;
};

}  // namespace senids::cache
