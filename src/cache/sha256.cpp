#include "cache/sha256.hpp"

#include <algorithm>
#include <cstring>

#ifdef SENIDS_X86_SIMD
#include <immintrin.h>
#endif

namespace senids::cache {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) noexcept {
  return (x >> n) | (x << (32 - n));
}

/// The portable kernel: one block at a time, straight from FIPS 180-4.
void compress_blocks_scalar(Sha256State& state, const std::uint8_t* data,
                            std::size_t nblocks) noexcept {
  for (; nblocks; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) | (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) | std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef SENIDS_X86_SIMD
/// The SHA-NI kernel. The extension keeps the working words as two
/// registers, ABEF and CDGH; the state is shuffled into that layout and
/// back once per call, not once per block. Each _mm_sha256rnds2_epu32
/// does two rounds and swaps the roles of the two registers, so a pair
/// of them is four rounds and leaves ABEF and CDGH where they started.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_blocks_shani(
    Sha256State& state, const std::uint8_t* data, std::size_t nblocks) noexcept {
  // Message words are big-endian: byte-swap each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));   // DCBA
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                              // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                            // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                    // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                         // CDGH

  for (; nblocks; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds message words 4g .. 4g+3 when group g runs.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), bswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i msg = _mm_add_epi32(
          w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (g < 12) {
        // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]) for the
        // four words of group g+4, in the slot group g just consumed.
        const __m128i w_minus7 = _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4);
        w[g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]), w_minus7),
            w[(g + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}
#endif  // SENIDS_X86_SIMD

}  // namespace

void compress_blocks(Sha256State& state, const std::uint8_t* data, std::size_t nblocks,
                     [[maybe_unused]] bool allow_simd) noexcept {
#ifdef SENIDS_X86_SIMD
  if (allow_simd && util::cpu_has_sha()) {
    compress_blocks_shani(state, data, nblocks);
    return;
  }
#endif
  compress_blocks_scalar(state, data, nblocks);
}

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;
  if (buffered_) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == buffer_.size()) {
      compress_blocks(state_, buffer_.data(), 1, allow_simd_);
      buffered_ = 0;
    }
  }
  if (const std::size_t nblocks = len / 64) {
    compress_blocks(state_, p, nblocks, allow_simd_);
    p += 64 * nblocks;
    len -= 64 * nblocks;
  }
  if (len) {
    std::memcpy(buffer_.data(), p, len);
    buffered_ = len;
  }
}

Digest Sha256::finish() noexcept {
  // Padding: 0x80, zeros up to 8 bytes short of a block boundary, then
  // the message length in bits, big-endian. That is one block, or two
  // when fewer than 9 bytes of the buffered block are free.
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t nblocks = buffered_ < 56 ? 1 : 2;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[64 * nblocks - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  compress_blocks(state_, tail.data(), nblocks, allow_simd_);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(util::ByteView bytes, bool allow_simd) noexcept {
  Sha256 ctx(allow_simd);
  ctx.update(bytes);
  return ctx.finish();
}

}  // namespace senids::cache
