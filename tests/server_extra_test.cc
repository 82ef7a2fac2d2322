// Additional CloudServer coverage: history depth, tombstone revival,
// malformed compressed payloads, detach, group-version bookkeeping, and
// block-store refcounting under trimming, revival and tombstone GC.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "rsyncx/delta.h"
#include "server/cloud_server.h"

namespace dcfs {
namespace {

using proto::OpKind;
using proto::SyncRecord;
using proto::VersionId;

SyncRecord full_file(const std::string& path, ByteSpan content,
                     VersionId version) {
  SyncRecord record;
  record.kind = OpKind::full_file;
  record.path = path;
  record.payload.assign(content.begin(), content.end());
  record.new_version = version;
  return record;
}

TEST(ServerHistoryTest, DepthIsBounded) {
  CloudServer server(CostProfile::pc(), /*history_depth=*/4);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    server.apply_record(1, full_file("/f", to_bytes("v" + std::to_string(i)),
                                     {1, i}));
  }
  const auto versions = server.history("/f");
  EXPECT_EQ(versions.size(), 5u);  // current + 4 retained
  EXPECT_EQ(versions.front(), (VersionId{1, 20}));
  // The oldest retained is v16; v1 must be gone.
  EXPECT_TRUE(server.fetch_version("/f", {1, 16}).is_ok());
  EXPECT_FALSE(server.fetch_version("/f", {1, 1}).is_ok());
}

TEST(ServerHistoryTest, TombstoneRevivalCarriesHistory) {
  CloudServer server(CostProfile::pc());
  server.apply_record(1, full_file("/f", to_bytes("generation-1"), {1, 1}));

  SyncRecord unlink;
  unlink.kind = OpKind::unlink;
  unlink.path = "/f";
  unlink.base_version = {1, 1};
  unlink.new_version = {1, 2};
  ASSERT_EQ(server.apply_record(1, unlink).result, Errc::ok);

  SyncRecord create;
  create.kind = OpKind::create;
  create.path = "/f";
  create.new_version = {1, 3};
  ASSERT_EQ(server.apply_record(1, create).result, Errc::ok);

  // The pre-deletion content is reachable through the revived history.
  Result<Bytes> old_content = server.fetch_version("/f", {1, 1});
  ASSERT_TRUE(old_content.is_ok());
  EXPECT_EQ(as_text(*old_content), "generation-1");
}

TEST(ServerCompressionTest, MalformedCompressedPayloadRejected) {
  CloudServer server(CostProfile::pc());
  SyncRecord record = full_file("/f", to_bytes("x"), {1, 1});
  record.compressed = true;
  record.payload = {0x00, 0xFF, 0xFF, 0x00};  // bad LZ stream
  const proto::Ack ack = server.apply_record(1, record);
  EXPECT_EQ(ack.result, Errc::corruption);
  EXPECT_FALSE(server.fetch("/f").is_ok());
}

TEST(ServerDetachTest, DetachedClientGetsNoForwards) {
  CloudServer server(CostProfile::pc());
  Transport t1(NetProfile::pc_wan());
  Transport t2(NetProfile::pc_wan());
  server.attach(1, t1);
  server.attach(2, t2);
  server.detach(2);

  t1.client_send(proto::encode(full_file("/f", to_bytes("x"), {1, 1})));
  server.pump();
  EXPECT_TRUE(t1.client_poll().has_value());   // ack
  EXPECT_FALSE(t2.client_poll().has_value());  // no forward after detach
}

TEST(ServerGroupTest, IncompleteGroupStaysBuffered) {
  CloudServer server(CostProfile::pc());
  SyncRecord member = full_file("/f", to_bytes("partial"), {1, 1});
  member.txn_group = 5;
  member.txn_last = false;
  const proto::Ack ack = server.apply_record(1, member);
  EXPECT_EQ(ack.result, Errc::ok);        // buffered, provisional
  EXPECT_FALSE(server.fetch("/f").is_ok());  // not applied yet

  SyncRecord closer = full_file("/f", to_bytes("final"), {1, 2});
  closer.txn_group = 5;
  closer.txn_last = true;
  ASSERT_EQ(server.apply_record(1, closer).result, Errc::ok);
  EXPECT_EQ(as_text(*server.fetch("/f")), "final");
}

TEST(ServerGroupTest, GroupsFromDifferentClientsAreIndependent) {
  CloudServer server(CostProfile::pc());
  SyncRecord a = full_file("/a", to_bytes("A"), {1, 1});
  a.txn_group = 7;
  a.txn_last = false;
  server.apply_record(1, a);

  // Client 2 closes its own group 7 — must not release client 1's.
  SyncRecord b = full_file("/b", to_bytes("B"), {2, 1});
  b.txn_group = 7;
  b.txn_last = true;
  ASSERT_EQ(server.apply_record(2, b).result, Errc::ok);
  EXPECT_TRUE(server.fetch("/b").is_ok());
  EXPECT_FALSE(server.fetch("/a").is_ok());  // still buffered
}

TEST(ServerGroupTest, GroupIdsNeverAliasAcrossClients) {
  // Regression: groups used to be keyed by (client << 48) ^ group, so
  // client 2's group id (3 << 48) | 3 hashed to the same key as client 1's
  // group 3 — client 2's closer would release (and corrupt) client 1's
  // buffered group.  Groups are now keyed by the real (client, group) pair.
  CloudServer server(CostProfile::pc());
  SyncRecord a = full_file("/a", to_bytes("A"), {1, 1});
  a.txn_group = 3;
  a.txn_last = false;
  ASSERT_EQ(server.apply_record(1, a).result, Errc::ok);  // buffered

  SyncRecord b = full_file("/b", to_bytes("B"), {2, 1});
  b.txn_group = (3ull << 48) | 3;  // collides with (1, 3) under the old key
  b.txn_last = true;
  ASSERT_EQ(server.apply_record(2, b).result, Errc::ok);
  EXPECT_TRUE(server.fetch("/b").is_ok());
  EXPECT_FALSE(server.fetch("/a").is_ok());  // client 1's group still open

  SyncRecord closer = full_file("/a2", to_bytes("A2"), {1, 2});
  closer.txn_group = 3;
  closer.txn_last = true;
  ASSERT_EQ(server.apply_record(1, closer).result, Errc::ok);
  EXPECT_EQ(as_text(*server.fetch("/a")), "A");
  EXPECT_EQ(as_text(*server.fetch("/a2")), "A2");
}

TEST(ServerStoreTest, NearIdenticalHistoryDedups) {
  CloudServer server(CostProfile::pc());
  ASSERT_TRUE(server.config().use_block_store);
  Rng rng(3);
  Bytes content = rng.bytes(200'000);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    server.apply_record(1, full_file("/f", content, {1, i}));
    content[rng.next_below(content.size())] ^= 0xFF;  // tiny edit per version
  }
  // Nine near-identical versions live in history; chunk-level dedup should
  // store them in far less than nine copies' worth of unique bytes.
  EXPECT_GT(server.store().logical_bytes(), 8u * 200'000u);
  EXPECT_GT(server.store().dedup_ratio(), 1.5);
  for (std::uint64_t i = 1; i < 10; ++i) {
    EXPECT_TRUE(server.fetch_version("/f", {1, i}).is_ok()) << i;
  }
}

TEST(ServerStoreTest, HistoryTrimmingReleasesChunks) {
  ServerConfig config;
  config.history_depth = 2;
  CloudServer server(CostProfile::pc(), config);
  Rng rng(4);
  std::uint64_t peak = 0;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    // Fully random content: no dedup, so live chunks track history size.
    server.apply_record(1, full_file("/f", rng.bytes(50'000), {1, i}));
    peak = std::max(peak, server.store().unique_bytes());
  }
  // Only history_depth versions may hold chunks (current content is
  // inline); trimmed versions must have released theirs.
  EXPECT_LE(peak, 3u * 50'000u + 4096u);
  EXPECT_EQ(server.store().unique_bytes(), server.store().logical_bytes());
}

TEST(ServerStoreTest, TombstoneGcReleasesEverything) {
  CloudServer server(CostProfile::pc());
  Rng rng(5);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    server.apply_record(1, full_file("/f", rng.bytes(20'000), {1, i}));
  }
  EXPECT_GT(server.store().unique_bytes(), 0u);

  SyncRecord unlink;
  unlink.kind = OpKind::unlink;
  unlink.path = "/f";
  unlink.base_version = {1, 5};
  unlink.new_version = {1, 6};
  ASSERT_EQ(server.apply_record(1, unlink).result, Errc::ok);
  // The tombstone still pins the history chunks (revival needs them).
  EXPECT_GT(server.store().unique_bytes(), 0u);

  EXPECT_EQ(server.gc_tombstones(), 1u);
  EXPECT_EQ(server.store().unique_bytes(), 0u);
  EXPECT_EQ(server.store().logical_bytes(), 0u);
}

TEST(ServerStoreTest, RevivedHistorySharesChunksWithTombstone) {
  CloudServer server(CostProfile::pc());
  Rng rng(6);
  const Bytes generation1 = rng.bytes(30'000);
  server.apply_record(1, full_file("/f", generation1, {1, 1}));
  server.apply_record(1, full_file("/f", rng.bytes(30'000), {1, 2}));

  SyncRecord unlink;
  unlink.kind = OpKind::unlink;
  unlink.path = "/f";
  unlink.base_version = {1, 2};
  unlink.new_version = {1, 3};
  ASSERT_EQ(server.apply_record(1, unlink).result, Errc::ok);

  SyncRecord create;
  create.kind = OpKind::create;
  create.path = "/f";
  create.new_version = {1, 4};
  ASSERT_EQ(server.apply_record(1, create).result, Errc::ok);

  // Revival copied the tombstone's history handles: same chunks, two
  // owners.  Dropping the tombstone must release one reference only —
  // the revived file's history stays readable.
  const std::uint64_t unique_before = server.store().unique_bytes();
  EXPECT_EQ(server.gc_tombstones(), 1u);
  EXPECT_GT(server.store().unique_bytes(), 0u);
  EXPECT_LE(server.store().unique_bytes(), unique_before);
  Result<Bytes> old_content = server.fetch_version("/f", {1, 1});
  ASSERT_TRUE(old_content.is_ok());
  EXPECT_EQ(*old_content, generation1);
}

TEST(ServerStoreTest, DisablingBlockStoreKeepsHistoryInline) {
  ServerConfig config;
  config.use_block_store = false;
  CloudServer server(CostProfile::pc(), config);
  Rng rng(7);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    server.apply_record(1, full_file("/f", rng.bytes(10'000), {1, i}));
  }
  EXPECT_EQ(server.store().unique_bytes(), 0u);
  EXPECT_TRUE(server.fetch_version("/f", {1, 1}).is_ok());
}

TEST(ServerStoreTest, InPlaceWriteHistoryMatchesFullChunking) {
  // Writes and truncates put history incrementally; a full-file record and
  // a conflict copy replace content wholesale in between.  Every retained
  // version must read back exactly, and the store must hold exactly the
  // chunks a from-scratch put of those versions would.
  CloudServer server(CostProfile::pc());
  Rng rng(8);
  Bytes content = rng.bytes(300'000);
  server.apply_record(1, full_file("/f", content, {1, 1}));
  std::map<std::uint64_t, Bytes> versions{{1, content}};
  for (std::uint64_t v = 2; v <= 30; ++v) {
    SyncRecord record;
    record.path = "/f";
    record.base_version = {1, v - 1};
    record.new_version = {1, v};
    if (v % 7 == 0) {
      record.kind = OpKind::truncate;
      record.size = rng.next_below(content.size() + 5000);
      content.resize(record.size, 0);
    } else if (v % 11 == 0) {
      content = rng.bytes(200'000 + rng.next_below(50'000));
      record = full_file("/f", content, {1, v});
    } else {
      record.kind = OpKind::write;
      std::vector<proto::Segment> segments;
      for (int s = 0; s < 3; ++s) {
        const std::uint64_t at = rng.next_below(content.size() + 1000);
        Bytes data = rng.bytes(1 + rng.next_below(5000));
        if (at + data.size() > content.size()) {
          content.resize(at + data.size(), 0);
        }
        std::copy(data.begin(), data.end(),
                  content.begin() + static_cast<std::ptrdiff_t>(at));
        segments.push_back({at, std::move(data)});
      }
      record.payload = proto::encode_segments(segments);
    }
    ASSERT_EQ(server.apply_record(1, record).result, Errc::ok) << v;
    versions[v] = content;
    // A stale write from another client: a conflict copy whose content
    // is replaced wholesale, then written in place by its own lineage.
    if (v % 5 == 0) {
      SyncRecord stale;
      stale.kind = OpKind::write;
      stale.path = "/f";
      stale.base_version = {1, v - 1};
      stale.new_version = {2, v};
      stale.payload = proto::encode_segments({{10, rng.bytes(100)}});
      EXPECT_EQ(server.apply_record(2, stale).result, Errc::conflict);
    }
  }

  BlockStore reference;
  for (const VersionId& version : server.history("/f")) {
    if (version == *server.version("/f")) continue;
    Result<Bytes> stored = server.fetch_version("/f", version);
    ASSERT_TRUE(stored.is_ok());
    EXPECT_EQ(*stored, versions.at(version.counter)) << version.counter;
    reference.put(*stored);
  }
  EXPECT_EQ(server.store().unique_bytes(), reference.unique_bytes());
  EXPECT_EQ(server.store().chunk_count(), reference.chunk_count());
}

TEST(ServerDeltaTest, DeltaAgainstCurrentVersionAppliesInPlace) {
  CloudServer server(CostProfile::pc());
  Rng rng(1);
  const Bytes v1 = rng.bytes(50'000);
  server.apply_record(1, full_file("/f", v1, {1, 1}));

  Bytes v2 = v1;
  v2[100] ^= 0xFF;
  SyncRecord delta;
  delta.kind = OpKind::file_delta;
  delta.path = "/f";
  delta.payload = rsyncx::encode_delta(
      rsyncx::compute_delta_local(v1, v2, 4096, nullptr));
  delta.base_version = {1, 1};
  delta.new_version = {1, 2};
  ASSERT_EQ(server.apply_record(1, delta).result, Errc::ok);
  EXPECT_EQ(*server.fetch("/f"), v2);
}

TEST(ServerMeterTest, ServerWorkScalesWithBytesApplied) {
  CloudServer small_server(CostProfile::pc());
  CloudServer big_server(CostProfile::pc());
  Rng rng(2);
  small_server.apply_record(1, full_file("/f", rng.bytes(10'000), {1, 1}));
  big_server.apply_record(1, full_file("/f", rng.bytes(1'000'000), {1, 1}));
  EXPECT_GT(big_server.meter().units(), 10 * small_server.meter().units());
}

}  // namespace
}  // namespace dcfs
