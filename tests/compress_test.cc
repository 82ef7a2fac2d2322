#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/lz.h"

namespace dcfs {
namespace {

Bytes roundtrip(ByteSpan input) {
  const Bytes compressed = lz::compress(input);
  Result<Bytes> out = lz::decompress(compressed);
  EXPECT_TRUE(out.is_ok()) << out.status().to_string();
  return out.is_ok() ? *out : Bytes{};
}

TEST(LzTest, EmptyInput) {
  EXPECT_EQ(roundtrip({}), Bytes{});
}

TEST(LzTest, TinyInput) {
  const Bytes data = to_bytes("ab");
  EXPECT_EQ(roundtrip(data), data);
}

TEST(LzTest, RepetitiveInputCompresses) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) append(data, to_bytes("hello world "));
  const Bytes compressed = lz::compress(data);
  EXPECT_LT(compressed.size(), data.size() / 4);
  EXPECT_EQ(roundtrip(data), data);
}

TEST(LzTest, RandomInputRoundTrips) {
  Rng rng(11);
  const Bytes data = rng.bytes(100'000);
  EXPECT_EQ(roundtrip(data), data);
}

TEST(LzTest, TextInputRoundTripsAndShrinks) {
  Rng rng(12);
  const Bytes data = rng.text(50'000);
  const Bytes compressed = lz::compress(data);
  EXPECT_LT(compressed.size(), data.size());
  EXPECT_EQ(roundtrip(data), data);
}

TEST(LzTest, OverlappingMatchesDecodeCorrectly) {
  // "aaaa..." forces matches with offset 1 < length.
  const Bytes data(5000, 'a');
  EXPECT_EQ(roundtrip(data), data);
}

TEST(LzTest, AllByteValues) {
  Bytes data;
  for (int round = 0; round < 16; ++round) {
    for (int b = 0; b < 256; ++b) {
      data.push_back(static_cast<std::uint8_t>(b));
    }
  }
  EXPECT_EQ(roundtrip(data), data);
}

TEST(LzTest, TruncatedInputReportsCorruption) {
  Rng rng(13);
  const Bytes data = rng.text(5000);
  Bytes compressed = lz::compress(data);
  compressed.resize(compressed.size() / 2);
  // Truncation may cut mid-sequence; decompression must never crash and
  // must either fail or produce a prefix (never garbage past the input).
  Result<Bytes> out = lz::decompress(compressed);
  if (out.is_ok()) {
    ASSERT_LE(out->size(), data.size());
    EXPECT_TRUE(std::equal(out->begin(), out->end(), data.begin()));
  }
}

TEST(LzTest, BadOffsetReportsCorruption) {
  // token: 0 literals + match, offset 0xFFFF pointing before start.
  const Bytes bogus{0x00, 0xFF, 0xFF, 0x00};
  EXPECT_FALSE(lz::decompress(bogus).is_ok());
}

TEST(LzTest, DecompressIntoMatchesDecompressAndReusesCapacity) {
  Rng rng(22);
  const Bytes data = rng.text(64 * 1024);
  const Bytes compressed = lz::compress(data);

  Bytes out;
  out.reserve(data.size());
  const std::uint8_t* storage = out.data();
  ASSERT_TRUE(lz::decompress_into(compressed, out).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(out.data(), storage);

  // The caller's cap is honored: a too-small budget is a corruption error.
  Bytes capped;
  EXPECT_EQ(lz::decompress_into(compressed, capped, 1024).code(),
            Errc::corruption);
}

TEST(LzTest, CompressedSizeCountsWithoutMaterializing) {
  Rng rng(23);
  for (const std::size_t size : {0u, 1u, 500u, 40'000u}) {
    const Bytes text = rng.text(size);
    EXPECT_EQ(lz::compressed_size(text), lz::compress(text).size()) << size;
    const Bytes random = rng.bytes(size);
    EXPECT_EQ(lz::compressed_size(random), lz::compress(random).size())
        << size;
  }
}

class LzSizesTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LzSizesTest, RoundTripAtSize) {
  Rng rng(GetParam() + 100);
  const Bytes text = rng.text(GetParam());
  EXPECT_EQ(roundtrip(text), text);
  const Bytes random = rng.bytes(GetParam());
  EXPECT_EQ(roundtrip(random), random);
}

INSTANTIATE_TEST_SUITE_P(VariousSizes, LzSizesTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 15, 16, 17, 255,
                                           256, 257, 4095, 4096, 65535, 65536,
                                           1 << 20));

}  // namespace
}  // namespace dcfs
