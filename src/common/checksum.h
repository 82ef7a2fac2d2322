// Checksums used throughout DeltaCFS:
//  - RollingChecksum: the rsync weak checksum (Adler-style) with O(1) roll,
//    reused by the Checksum Store as the per-block integrity checksum
//    (paper §III-E: "we can reuse the rolling checksum in rsync as the block
//    checksum").
//  - crc32: record framing in the KV store WAL.
//  - gear_hash table: content-defined chunking (Seafile/CDC baseline).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/bytes.h"

namespace dcfs {

/// The two running sums of the weak checksum over a window x_0..x_{n-1}:
/// a = sum(x_i) and b = sum((n - i) * x_i), both modulo 2^32.
struct WeakSums {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Byte-at-a-time reference for weak_sums(); also the fallback on targets
/// without SSE2.
inline WeakSums weak_sums_scalar(ByteSpan data) noexcept {
  WeakSums sums;
  for (std::size_t i = 0; i < data.size(); ++i) {
    sums.a += data[i];
    sums.b += static_cast<std::uint32_t>(data.size() - i) * data[i];
  }
  return sums;
}

/// weak_sums_scalar() computed 16 bytes at a time.
///
/// For the 16-byte chunk at offset i with byte sum S and weighted sum
/// W = sum_{j<16} (16 - j) * x_{i+j}, the chunk adds S to a and
/// (n - i - 16) * S + W to b.  Over chunks k = 0..m-1 that is
/// b = 16 * sum_k P_k + (n - 16m) * sum_k S_k + sum_k W_k, where P_k is the
/// byte sum of the chunks before k; the vector loop keeps P, S and W in
/// 32-bit lanes.  Every step is a sum or product modulo 2^32, so the result
/// equals the scalar loop's in all 32 bits, not only in the digest's 16.
/// Loads never pass the end of `data`: the last n mod 16 bytes go through
/// the scalar loop.
inline WeakSums weak_sums(ByteSpan data) noexcept {
#if defined(__SSE2__)
  const std::size_t n = data.size();
  const std::size_t chunks = n / 16;
  if (chunks == 0) return weak_sums_scalar(data);

  const __m128i zero = _mm_setzero_si128();
  const __m128i weights_lo = _mm_setr_epi16(16, 15, 14, 13, 12, 11, 10, 9);
  const __m128i weights_hi = _mm_setr_epi16(8, 7, 6, 5, 4, 3, 2, 1);
  __m128i prefix = zero;    // sum over chunks of the bytes before the chunk
  __m128i sum = zero;       // byte sum so far (in the 64-bit SAD lanes)
  __m128i weighted = zero;  // sum of W
  const std::uint8_t* p = data.data();
  for (std::size_t k = 0; k < chunks; ++k, p += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    prefix = _mm_add_epi32(prefix, sum);
    sum = _mm_add_epi32(sum, _mm_sad_epu8(v, zero));
    weighted = _mm_add_epi32(
        weighted, _mm_madd_epi16(_mm_unpacklo_epi8(v, zero), weights_lo));
    weighted = _mm_add_epi32(
        weighted, _mm_madd_epi16(_mm_unpackhi_epi8(v, zero), weights_hi));
  }
  const auto lanes = [](__m128i x) {
    alignas(16) std::uint32_t out[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(out), x);
    return out[0] + out[1] + out[2] + out[3];
  };
  const std::uint32_t done = static_cast<std::uint32_t>(chunks * 16);
  WeakSums sums;
  sums.a = lanes(sum);
  sums.b = 16u * lanes(prefix) +
           (static_cast<std::uint32_t>(n) - done) * sums.a + lanes(weighted);
  for (std::size_t i = chunks * 16; i < n; ++i) {
    sums.a += data[i];
    sums.b += static_cast<std::uint32_t>(n - i) * data[i];
  }
  return sums;
#else
  return weak_sums_scalar(data);
#endif
}

/// rsync's weak rolling checksum over a window of bytes.
///
/// s = a + (b << 16) where a = sum(x_i) mod 2^16 and
/// b = sum((len - i) * x_i) mod 2^16.  Supports O(1) roll: remove the
/// leading byte, append a trailing byte.
class RollingChecksum {
 public:
  RollingChecksum() = default;

  /// Computes the checksum of `data` from scratch.
  explicit RollingChecksum(ByteSpan data) { reset(data); }

  void reset(ByteSpan data) noexcept {
    const WeakSums sums = weak_sums(data);
    a_ = sums.a;
    b_ = sums.b;
    len_ = static_cast<std::uint32_t>(data.size());
  }

  /// Slides the window one byte: drops `out`, appends `in`.
  /// The window length is unchanged.
  void roll(std::uint8_t out, std::uint8_t in) noexcept {
    a_ = a_ - out + in;
    b_ = b_ - len_ * out + a_;
  }

  /// Shrinks the window from the front by dropping `out` (for the final
  /// partial block at end of file).
  void roll_out(std::uint8_t out) noexcept {
    a_ -= out;
    b_ -= len_ * out;
    --len_;
  }

  [[nodiscard]] std::uint32_t digest() const noexcept {
    return (a_ & 0xFFFF) | ((b_ & 0xFFFF) << 16);
  }

  [[nodiscard]] std::uint32_t window_length() const noexcept { return len_; }

  /// The full 32-bit running sums (roll() continues from these).
  [[nodiscard]] WeakSums sums() const noexcept { return {a_, b_}; }

 private:
  std::uint32_t a_ = 0;
  std::uint32_t b_ = 0;
  std::uint32_t len_ = 0;
};

/// One-shot weak checksum of a block.
inline std::uint32_t weak_checksum(ByteSpan data) noexcept {
  return RollingChecksum(data).digest();
}

/// CRC-32 (IEEE, reflected), for WAL/wire record framing.
std::uint32_t crc32(ByteSpan data, std::uint32_t seed = 0) noexcept;

/// The 256-entry random table used by the gear hash in CDC chunking.
/// Deterministic (seeded) so chunk boundaries are reproducible.
const std::array<std::uint64_t, 256>& gear_table() noexcept;

/// One gear-hash step: h' = (h << 1) + table[byte].
inline std::uint64_t gear_step(std::uint64_t h, std::uint8_t byte) noexcept {
  return (h << 1) + gear_table()[byte];
}

}  // namespace dcfs
