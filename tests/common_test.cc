#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/md5.h"
#include "common/rng.h"
#include "common/status.h"

namespace dcfs {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), Errc::ok);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status{Errc::not_found, "no such file"};
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), Errc::not_found);
  EXPECT_EQ(status.to_string(), "not_found: no such file");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Errc::no_space);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), Errc::no_space);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, AccessingErrorThrowsLogicError) {
  Result<int> result(Errc::io_error);
  EXPECT_THROW((void)result.value(), BadResultAccess);
}

TEST(ResultTest, ConstructingFromOkStatusThrows) {
  EXPECT_THROW(Result<int>{Status::ok()}, std::logic_error);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(Errc::unavailable); ++code) {
    EXPECT_NE(to_string(static_cast<Errc>(code)), "unknown");
  }
}

// ---------------------------------------------------------------------------
// MD5 (RFC 1321 test vectors)
// ---------------------------------------------------------------------------

TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(to_bytes("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(to_bytes("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex(to_bytes("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(to_bytes("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(to_bytes("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5::hex(to_bytes("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                        "0123456789")),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(
      Md5::hex(to_bytes("1234567890123456789012345678901234567890123456789012"
                        "3456789012345678901234567890")),
      "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  Rng rng(99);
  const Bytes data = rng.bytes(10'000);

  Md5 incremental;
  std::size_t pos = 0;
  std::size_t chunk = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - pos);
    incremental.update(ByteSpan{data.data() + pos, n});
    pos += n;
    chunk = chunk * 3 + 1;  // uneven chunking stresses buffering
  }
  EXPECT_EQ(incremental.finalize(), Md5::hash(data));
}

// ---------------------------------------------------------------------------
// Rolling checksum
// ---------------------------------------------------------------------------

TEST(RollingChecksumTest, RollMatchesRecompute) {
  Rng rng(7);
  const Bytes data = rng.bytes(4096);
  constexpr std::size_t kWindow = 512;

  RollingChecksum rolling(ByteSpan{data.data(), kWindow});
  for (std::size_t pos = 0; pos + kWindow < data.size(); ++pos) {
    RollingChecksum fresh(ByteSpan{data.data() + pos, kWindow});
    ASSERT_EQ(rolling.digest(), fresh.digest()) << "at offset " << pos;
    rolling.roll(data[pos], data[pos + kWindow]);
  }
}

TEST(RollingChecksumTest, DifferentContentDiffers) {
  const Bytes a = to_bytes("the quick brown fox jumps over the dog");
  Bytes b = a;
  b[5] ^= 0x01;
  EXPECT_NE(weak_checksum(a), weak_checksum(b));
}

TEST(RollingChecksumTest, EmptyWindowIsZero) {
  EXPECT_EQ(weak_checksum({}), 0u);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32/IEEE of "123456789" is 0xCBF43926.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, DetectsBitFlip) {
  Rng rng(3);
  Bytes data = rng.bytes(1024);
  const std::uint32_t before = crc32(data);
  data[500] ^= 0x10;
  EXPECT_NE(crc32(data), before);
}

// ---------------------------------------------------------------------------
// Bytes helpers
// ---------------------------------------------------------------------------

TEST(BytesTest, HexEncode) {
  const Bytes data{0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(hex_encode(data), "00ff10ab");
}

TEST(BytesTest, U32U64RoundTrip) {
  Bytes buffer;
  put_u32(buffer, 0xDEADBEEFu);
  put_u64(buffer, 0x0123456789ABCDEFull);
  EXPECT_EQ(get_u32(buffer, 0), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(buffer, 4), 0x0123456789ABCDEFull);
}

TEST(BytesTest, Fnv1aStable) {
  EXPECT_EQ(fnv1a(std::string_view("hello")), fnv1a(std::string_view("hello")));
  EXPECT_NE(fnv1a(std::string_view("hello")), fnv1a(std::string_view("hellp")));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const std::uint64_t v = rng.next_in(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, FillProducesRequestedLength) {
  Rng rng(6);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
    EXPECT_EQ(rng.text(n).size(), n);
  }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(seconds(2));
  EXPECT_EQ(clock.now(), 2'000'000);
  clock.advance_to(seconds(1));  // never goes backwards
  EXPECT_EQ(clock.now(), 2'000'000);
  clock.advance(-5);  // negative deltas ignored
  EXPECT_EQ(clock.now(), 2'000'000);
}

TEST(ClockTest, DurationHelpers) {
  EXPECT_EQ(milliseconds(1500), 1'500'000);
  EXPECT_EQ(seconds(3), 3'000'000);
  EXPECT_EQ(microseconds(9), 9);
}

}  // namespace
}  // namespace dcfs
