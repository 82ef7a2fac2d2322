// Decoder robustness: every wire-facing decoder must reject arbitrary and
// mutated byte strings gracefully — an error Status, never a crash, hang,
// or out-of-bounds read.  (Run under ASan/valgrind for full effect; the
// assertions here catch accepted-garbage bugs.)
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/lz.h"
#include "proto/messages.h"
#include "rsyncx/delta.h"
#include "server/cloud_server.h"

namespace dcfs {
namespace {

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng.bytes(rng.next_below(512));
    (void)proto::decode_record(junk);
    (void)proto::decode_ack(junk);
    (void)proto::decode_segments(junk);
    (void)rsyncx::decode_delta(junk);
    (void)lz::decompress(junk);
  }
}

TEST_P(FuzzSeedTest, LzRoundTripProperty) {
  Rng rng(GetParam() + 4000);
  for (int round = 0; round < 40; ++round) {
    const std::size_t size = rng.next_below(64 * 1024);
    const Bytes input =
        rng.next_below(2) == 0 ? rng.text(size) : rng.bytes(size);

    // compress / compressed_size agree byte-for-byte.
    const Bytes compressed = lz::compress(input);
    ASSERT_EQ(lz::compressed_size(input), compressed.size());
    ASSERT_LE(compressed.size(), lz::max_compressed_size(input.size()));

    Result<Bytes> out = lz::decompress(compressed);
    ASSERT_TRUE(out.is_ok());
    ASSERT_EQ(*out, input);
  }
}

TEST_P(FuzzSeedTest, MutatedLzStreamsNeverCrash) {
  Rng rng(GetParam() + 5000);
  const Bytes input = rng.text(8192);
  const Bytes valid = lz::compress(input);

  for (int round = 0; round < 300; ++round) {
    Bytes mutated = valid;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    if (rng.next_below(3) == 0) {
      mutated.resize(rng.next_below(mutated.size() + 1));
    }
    // Either a clean corruption error or a decode bounded by the cap —
    // never a crash, never unbounded output.
    Bytes out;
    const Status status = lz::decompress_into(mutated, out, 1 << 20);
    if (!status.is_ok()) {
      EXPECT_EQ(status.code(), Errc::corruption);
    }
  }
}

TEST(LzCorruptionTest, HandCraftedStreamsAreRejected) {
  // Truncated header: a token byte promising literals that never arrive.
  EXPECT_EQ(lz::decompress(Bytes{0xF0}).code(), Errc::corruption);
  // Literal run length extension cut off mid-varint.
  EXPECT_EQ(lz::decompress(Bytes{0xF0, 0xFF}).code(), Errc::corruption);
  // Match with a zero offset (points before the output start).
  EXPECT_EQ(lz::decompress(Bytes{0x04, 0x00, 0x00}).code(),
            Errc::corruption);
  // Match offset past everything decoded so far.
  EXPECT_EQ(lz::decompress(Bytes{0x14, 'x', 0xFF, 0xFF}).code(),
            Errc::corruption);
  // Match length truncated before its extension bytes.
  EXPECT_EQ(lz::decompress(Bytes{0x1F, 'x', 0x01, 0x00}).code(),
            Errc::corruption);
}

TEST(LzCorruptionTest, OversizedLengthClaimIsRejectedBeforeAllocating) {
  // A valid stream for 1 MiB of 'a'; a receiver capping output at 4 KiB
  // must reject it with a corruption error instead of inflating it.
  const Bytes big(1 << 20, 'a');
  const Bytes compressed = lz::compress(big);
  Bytes out;
  const Status capped = lz::decompress_into(compressed, out, 4096);
  ASSERT_FALSE(capped.is_ok());
  EXPECT_EQ(capped.code(), Errc::corruption);
  EXPECT_LE(out.capacity(), 1u << 16);  // the claim never drove allocation

  // A literal-run claim far past the actual input dies cleanly too.
  Bytes absurd{0xF0};
  for (int i = 0; i < 64; ++i) absurd.push_back(0xFF);
  absurd.push_back(0x00);
  EXPECT_EQ(lz::decompress(absurd).code(), Errc::corruption);
}

TEST_P(FuzzSeedTest, MutatedValidRecordsNeverCrash) {
  Rng rng(GetParam() + 1000);

  proto::SyncRecord record;
  record.kind = proto::OpKind::write;
  record.path = "/sync/some/file";
  record.path2 = "/sync/other";
  record.payload = proto::encode_segments({{64, rng.bytes(200)}});
  record.base_version = {1, 41};
  record.new_version = {1, 42};
  const Bytes valid = proto::encode(record);

  for (int round = 0; round < 500; ++round) {
    Bytes mutated = valid;
    // Flip 1-4 random bytes and/or truncate.
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    if (rng.next_below(3) == 0) {
      mutated.resize(rng.next_below(mutated.size() + 1));
    }
    Result<proto::SyncRecord> decoded = proto::decode_record(mutated);
    if (decoded.is_ok()) {
      // Accepted mutations must still produce internally consistent
      // records (payload length fields were validated).
      (void)proto::decode_segments(decoded->payload);
    }
  }
}

TEST_P(FuzzSeedTest, MutatedDeltasNeverCorruptApply) {
  Rng rng(GetParam() + 2000);
  const Bytes base = rng.bytes(20'000);
  Bytes target = base;
  target[100] ^= 1;
  const Bytes valid = rsyncx::encode_delta(
      rsyncx::compute_delta_local(base, target, 4096, nullptr));

  for (int round = 0; round < 300; ++round) {
    Bytes mutated = valid;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    Result<rsyncx::Delta> decoded = rsyncx::decode_delta(mutated);
    if (!decoded) continue;
    // A decodable mutation may still describe an invalid patch; apply must
    // fail cleanly or produce a size-consistent result.
    Result<Bytes> applied = rsyncx::apply_delta(base, *decoded);
    if (applied.is_ok()) {
      EXPECT_EQ(applied->size(), decoded->target_size);
    }
  }
}

TEST_P(FuzzSeedTest, ServerSurvivesGarbageFrames) {
  Rng rng(GetParam() + 3000);
  CloudServer server(CostProfile::pc());
  Transport transport(NetProfile::pc_wan());
  server.attach(1, transport);

  for (int round = 0; round < 100; ++round) {
    transport.client_send(rng.bytes(1 + rng.next_below(300)));
  }
  server.pump();
  // Every frame produced an ack (mostly corruption errors), none crashed.
  std::size_t acks = 0;
  while (transport.client_poll()) ++acks;
  EXPECT_EQ(acks, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dcfs
