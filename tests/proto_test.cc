#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>

#include "common/rng.h"
#include "proto/messages.h"

namespace dcfs::proto {
namespace {

SyncRecord sample_record() {
  SyncRecord record;
  record.sequence = 42;
  record.kind = OpKind::file_delta;
  record.path = "/sync/report.doc";
  record.path2 = "/sync/report.doc.wrl0";
  record.offset = 0;
  record.size = 0;
  record.payload = to_bytes("delta-bytes");
  record.base_version = {3, 17};
  record.new_version = {3, 18};
  record.txn_group = 7;
  record.txn_last = true;
  record.base_deleted = true;
  return record;
}

TEST(ProtoTest, RecordRoundTrip) {
  const SyncRecord record = sample_record();
  Result<SyncRecord> decoded = decode_record(encode(record));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, record);
}

TEST(ProtoTest, RecordWithEmptyFieldsRoundTrips) {
  SyncRecord record;
  record.kind = OpKind::create;
  record.path = "/f";
  Result<SyncRecord> decoded = decode_record(encode(record));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, record);
}

TEST(ProtoTest, RecordWithBinaryPayloadRoundTrips) {
  Rng rng(31);
  SyncRecord record;
  record.kind = OpKind::write;
  record.path = "/sync/chat.db";
  record.payload = rng.bytes(100'000);
  record.new_version = {1, 1};
  Result<SyncRecord> decoded = decode_record(encode(record));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, record);
}

TEST(ProtoTest, RecordEncodeAllocatesOnce) {
  // encode_into reserves the whole frame up front; a short reserve would
  // regrow the buffer to twice the frame at the last fields.
  SyncRecord record = sample_record();
  record.payload = Bytes(100'000, 7);
  Bytes wire{2};  // a server-to-client tag byte, as forward() prefixes
  encode_into(record, wire);
  EXPECT_LT(wire.capacity(), wire.size() + wire.size() / 2);
}

TEST(ProtoTest, TruncatedRecordFails) {
  Bytes wire = encode(sample_record());
  for (const std::size_t cut : {0u, 1u, 8u, 9u, 20u}) {
    if (cut < wire.size()) {
      EXPECT_FALSE(
          decode_record(ByteSpan{wire.data(), cut}).is_ok())
          << "prefix length " << cut;
    }
  }
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(decode_record(wire).is_ok());
}

TEST(ProtoTest, AckRoundTrip) {
  Ack ack;
  ack.sequence = 9;
  ack.result = Errc::conflict;
  ack.server_version = {2, 5};
  ack.conflict_path = "/sync/f.conflict-2";
  Result<Ack> decoded = decode_ack(encode(ack));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, ack);
}

TEST(ProtoTest, AckTruncationFails) {
  const Bytes wire = encode(Ack{});
  EXPECT_FALSE(decode_ack(ByteSpan{wire.data(), 5}).is_ok());
}

TEST(ProtoTest, TraceIdRoundTripsOnRecordAndAck) {
  SyncRecord record = sample_record();
  record.trace_id = (7ull << 40) | 12345;
  Result<SyncRecord> decoded = decode_record(encode(record));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->trace_id, record.trace_id);
  EXPECT_EQ(*decoded, record);

  Ack ack;
  ack.sequence = 9;
  ack.trace_id = record.trace_id;
  Result<Ack> back = decode_ack(encode(ack));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->trace_id, ack.trace_id);
}

TEST(ProtoTest, FlowIdHelpersAreInvolutive) {
  const std::uint64_t id = (3ull << 40) | 99;
  // The edge-tag bits must be distinct, strippable, and leave the base id
  // untouched (the client's counter never reaches bit 62).
  EXPECT_NE(ack_flow_id(id), id);
  EXPECT_NE(forward_flow_id(id), id);
  EXPECT_NE(ack_flow_id(id), forward_flow_id(id));
  EXPECT_EQ(base_trace_id(ack_flow_id(id)), id);
  EXPECT_EQ(base_trace_id(forward_flow_id(id)), id);
  EXPECT_EQ(base_trace_id(id), id);
}

TEST(ProtoTest, SegmentsRoundTrip) {
  Rng rng(32);
  std::vector<Segment> segments;
  segments.push_back({0, rng.bytes(100)});
  segments.push_back({4096, rng.bytes(4096)});
  segments.push_back({1 << 20, rng.bytes(1)});
  Result<std::vector<Segment>> decoded =
      decode_segments(encode_segments(segments));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, segments);
}

TEST(ProtoTest, EmptySegmentListRoundTrips) {
  Result<std::vector<Segment>> decoded = decode_segments(encode_segments({}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(ProtoTest, SegmentsTruncationFails) {
  std::vector<Segment> segments{{0, to_bytes("abcdef")}};
  Bytes wire = encode_segments(segments);
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(decode_segments(wire).is_ok());
  EXPECT_FALSE(decode_segments(Bytes{1}).is_ok());
}

TEST(ProtoTest, VersionIdBasics) {
  const VersionId a{1, 2};
  const VersionId b{1, 2};
  const VersionId c{2, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(VersionId{}.is_null());
  EXPECT_FALSE(a.is_null());
  EXPECT_EQ(to_string(a), "<1,2>");
}

TEST(ProtoTest, OpKindNames) {
  EXPECT_EQ(to_string(OpKind::write), "write");
  EXPECT_EQ(to_string(OpKind::file_delta), "file_delta");
  EXPECT_EQ(to_string(OpKind::rename), "rename");
  EXPECT_EQ(to_string(OpKind::recon_query), "recon_query");
}

constexpr std::array<std::pair<OpKind, std::uint8_t>, 11> kWireKinds{{
    {OpKind::create, 1},
    {OpKind::mkdir, 2},
    {OpKind::rmdir, 3},
    {OpKind::unlink, 4},
    {OpKind::rename, 5},
    {OpKind::link, 6},
    {OpKind::truncate, 7},
    {OpKind::write, 8},
    {OpKind::file_delta, 9},
    {OpKind::full_file, 10},
    {OpKind::recon_query, 12},
}};

TEST(ProtoTest, OpKindWireValuesArePinned) {
  // 11 (the retired record bundle) stays reserved, so later kinds keep
  // their wire values.
  for (const auto& [kind, value] : kWireKinds) {
    EXPECT_EQ(static_cast<std::uint8_t>(kind), value) << to_string(kind);
    SyncRecord record = sample_record();
    record.kind = kind;
    Result<SyncRecord> decoded = decode_record(encode(record));
    ASSERT_TRUE(decoded.is_ok()) << to_string(kind);
    EXPECT_EQ(decoded->kind, kind);
  }
}

TEST(ProtoTest, UnknownRecordKindFailsToDecode) {
  const Bytes valid = encode(sample_record());
  constexpr std::size_t kKindOffset = 8;  // after the u64 sequence
  ASSERT_EQ(valid[kKindOffset],
            static_cast<std::uint8_t>(OpKind::file_delta));
  std::size_t rejected = 0;
  for (unsigned value = 0; value <= 0xff; ++value) {
    const bool known = std::any_of(
        kWireKinds.begin(), kWireKinds.end(),
        [&](const auto& wire_kind) { return wire_kind.second == value; });
    if (known) continue;
    Bytes wire = valid;
    wire[kKindOffset] = static_cast<std::uint8_t>(value);
    const Result<SyncRecord> decoded = decode_record(wire);
    ASSERT_FALSE(decoded.is_ok()) << "kind byte " << value;
    EXPECT_EQ(decoded.status().code(), Errc::corruption)
        << "kind byte " << value;
    ++rejected;
  }
  // 0, 11 (the retired record bundle), 13..15 (the retired chunk-stream
  // kinds) and 16..255.
  EXPECT_EQ(rejected, 256u - kWireKinds.size());
}

}  // namespace
}  // namespace dcfs::proto
