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
    (void)proto::decode_stream_credit(junk);
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

// ---------------------------------------------------------------------------
// Chunk-stream framing (docs/PROTOCOL.md §chunk streams): a malicious or
// broken client must never wedge the server — every violation earns a
// corruption ack, the stage is dropped, and unrelated streams keep working.

class StreamFrameTest : public ::testing::Test {
 protected:
  CloudServer server_{CostProfile::pc()};
  Transport transport_{NetProfile::pc_wan()};

  void SetUp() override { server_.attach(1, transport_); }

  proto::SyncRecord stream_record(proto::OpKind kind, std::uint64_t id) {
    proto::SyncRecord r;
    r.kind = kind;
    r.sequence = id;
    return r;
  }

  void send(const proto::SyncRecord& r) {
    transport_.client_send(proto::encode(r));
  }

  void open_stream(std::uint64_t id, const std::string& path,
                   std::uint64_t total, std::uint64_t window = 4096) {
    proto::SyncRecord open = stream_record(proto::OpKind::stream_open, id);
    open.path = path;
    open.new_version = {1, 1};
    open.offset = window;  // advertised window
    open.size = total;
    send(open);
  }

  void send_chunk(std::uint64_t id, std::uint64_t offset,
                  std::uint64_t ordinal, Bytes payload) {
    proto::SyncRecord chunk = stream_record(proto::OpKind::stream_chunk, id);
    chunk.offset = offset;
    chunk.size = ordinal;
    chunk.payload = std::move(payload);
    send(chunk);
  }

  void commit_stream(std::uint64_t id, const std::string& path,
                     std::uint64_t total) {
    proto::SyncRecord commit =
        stream_record(proto::OpKind::stream_commit, id);
    commit.path = path;
    commit.new_version = {1, 1};
    commit.size = total;
    send(commit);
  }

  struct Drained {
    std::size_t acks_ok = 0;
    std::size_t acks_error = 0;
    std::size_t credits = 0;
  };

  Drained drain_downstream() {
    Drained d;
    while (std::optional<Bytes> frame = transport_.client_poll()) {
      if (frame->empty()) continue;
      const ByteSpan body{frame->data() + 1, frame->size() - 1};
      if ((*frame)[0] == 1) {
        const Result<proto::Ack> ack = proto::decode_ack(body);
        if (ack.is_ok() && ack->result == Errc::ok) {
          ++d.acks_ok;
        } else {
          ++d.acks_error;
        }
      } else if ((*frame)[0] == 4) {
        EXPECT_TRUE(proto::decode_stream_credit(body).is_ok());
        ++d.credits;
      }
    }
    return d;
  }
};

TEST_F(StreamFrameTest, TruncatedStreamCreditIsRejected) {
  proto::StreamCredit credit;
  credit.stream_id = 7;
  credit.bytes = 65536;
  const Bytes valid = proto::encode(credit);
  const Result<proto::StreamCredit> roundtrip =
      proto::decode_stream_credit(valid);
  ASSERT_TRUE(roundtrip.is_ok());
  EXPECT_EQ(*roundtrip, credit);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(
        proto::decode_stream_credit(ByteSpan{valid.data(), len}).is_ok())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST_F(StreamFrameTest, OpenWithoutCommitStaysStagedAndAppliesNothing) {
  open_stream(1, "/sync/partial", 4096);
  send_chunk(1, 0, 0, Bytes(1024, 'a'));
  send_chunk(1, 1024, 1, Bytes(1024, 'b'));
  server_.pump();

  // The truncated stream stays staged: nothing applied, nothing fetchable.
  EXPECT_EQ(server_.records_applied(), 0u);
  EXPECT_EQ(server_.streams_active(), 1u);
  EXPECT_FALSE(server_.fetch("/sync/partial").is_ok());
  const Drained d = drain_downstream();
  EXPECT_EQ(d.acks_error, 0u);

  // The server is not wedged: a plain upload still lands.
  proto::SyncRecord plain = stream_record(proto::OpKind::full_file, 2);
  plain.path = "/sync/plain";
  plain.new_version = {1, 1};
  plain.payload = Bytes(64, 'p');
  send(plain);
  server_.pump();
  EXPECT_EQ(server_.records_applied(), 1u);
  EXPECT_TRUE(server_.fetch("/sync/plain").is_ok());
}

TEST_F(StreamFrameTest, InterleavedStreamIdsCommitIndependently) {
  open_stream(10, "/sync/ten", 2048);
  open_stream(20, "/sync/twenty", 1024);
  send_chunk(10, 0, 0, Bytes(1024, 'x'));
  send_chunk(20, 0, 0, Bytes(1024, 'y'));  // interleaved with stream 10
  send_chunk(10, 1024, 1, Bytes(1024, 'x'));
  commit_stream(20, "/sync/twenty", 1024);
  commit_stream(10, "/sync/ten", 2048);
  server_.pump();

  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(server_.records_applied(), 2u);
  EXPECT_EQ(server_.fetch("/sync/ten")->size(), 2048u);
  EXPECT_EQ(server_.fetch("/sync/twenty")->size(), 1024u);
  const Drained d = drain_downstream();
  EXPECT_EQ(d.acks_ok, 2u);
  EXPECT_EQ(d.acks_error, 0u);
}

TEST_F(StreamFrameTest, DuplicateChunkOrdinalKillsTheStream) {
  open_stream(5, "/sync/dup", 2048);
  send_chunk(5, 0, 0, Bytes(1024, 'a'));
  send_chunk(5, 0, 0, Bytes(1024, 'a'));  // replayed seq 0: violation
  commit_stream(5, "/sync/dup", 2048);    // stage is gone: violation too
  server_.pump();

  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(server_.records_applied(), 0u);
  EXPECT_FALSE(server_.fetch("/sync/dup").is_ok());
  EXPECT_EQ(drain_downstream().acks_error, 2u);
}

TEST_F(StreamFrameTest, ReorderedChunkOffsetKillsTheStream) {
  open_stream(6, "/sync/ooo", 3072);
  send_chunk(6, 0, 0, Bytes(1024, 'a'));
  send_chunk(6, 2048, 1, Bytes(1024, 'c'));  // skipped ahead: violation
  server_.pump();

  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(drain_downstream().acks_error, 1u);
}

TEST_F(StreamFrameTest, ChunkOverrunningTheOpenedSizeIsRejected) {
  open_stream(7, "/sync/overrun", 1024);
  send_chunk(7, 0, 0, Bytes(2048, 'z'));  // more than the opened total
  server_.pump();
  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(drain_downstream().acks_error, 1u);
}

TEST_F(StreamFrameTest, OrphanChunkAndCommitAreRejected) {
  send_chunk(99, 0, 0, Bytes(256, 'q'));
  commit_stream(99, "/sync/ghost", 256);
  server_.pump();

  EXPECT_EQ(server_.records_applied(), 0u);
  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(drain_downstream().acks_error, 2u);
}

TEST_F(StreamFrameTest, DuplicateOpenDropsTheStage) {
  open_stream(8, "/sync/twice", 1024);
  open_stream(8, "/sync/twice", 1024);  // duplicate id: unrecoverable
  send_chunk(8, 0, 0, Bytes(1024, 'd'));
  server_.pump();

  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(server_.records_applied(), 0u);
  // One error for the duplicate open, one for the now-orphaned chunk.
  EXPECT_EQ(drain_downstream().acks_error, 2u);
}

TEST_F(StreamFrameTest, CommitWithWrongTotalOrPathIsRejected) {
  open_stream(11, "/sync/short", 2048);
  send_chunk(11, 0, 0, Bytes(1024, 's'));
  commit_stream(11, "/sync/short", 2048);  // only half arrived
  open_stream(12, "/sync/renamed", 1024);
  send_chunk(12, 0, 0, Bytes(1024, 'r'));
  commit_stream(12, "/sync/other", 1024);  // path mismatch
  server_.pump();

  EXPECT_EQ(server_.records_applied(), 0u);
  EXPECT_EQ(server_.streams_active(), 0u);
  EXPECT_EQ(drain_downstream().acks_error, 2u);
}

TEST_F(StreamFrameTest, MutatedStreamFramesNeverWedgeTheServer) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(9000 + seed);
    // A valid open/chunk/commit exchange as raw frames.
    proto::SyncRecord open = stream_record(proto::OpKind::stream_open, seed);
    open.path = "/sync/mut";
    open.new_version = {1, 1};
    open.offset = 4096;
    open.size = 1024;
    proto::SyncRecord chunk =
        stream_record(proto::OpKind::stream_chunk, seed);
    chunk.payload = Bytes(1024, 'm');
    proto::SyncRecord commit =
        stream_record(proto::OpKind::stream_commit, seed);
    commit.path = "/sync/mut";
    commit.new_version = {1, 1};
    commit.size = 1024;
    const Bytes frames[] = {proto::encode(open), proto::encode(chunk),
                            proto::encode(commit)};
    for (int round = 0; round < 100; ++round) {
      for (const Bytes& valid : frames) {
        Bytes mutated = valid;
        const int flips = 1 + static_cast<int>(rng.next_below(4));
        for (int i = 0; i < flips; ++i) {
          mutated[rng.next_below(mutated.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        if (rng.next_below(3) == 0) {
          mutated.resize(rng.next_below(mutated.size() + 1));
        }
        transport_.client_send(std::move(mutated));
      }
      server_.pump();
      (void)drain_downstream();
    }
  }
  // Whatever garbage got staged, a clean stream still goes through.
  open_stream(777, "/sync/after", 512);
  send_chunk(777, 0, 0, Bytes(512, 'k'));
  commit_stream(777, "/sync/after", 512);
  server_.pump();
  EXPECT_TRUE(server_.fetch("/sync/after").is_ok());
}

}  // namespace
}  // namespace dcfs
