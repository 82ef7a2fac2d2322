#include <gtest/gtest.h>

#include "common/rng.h"
#include "rsyncx/delta.h"
#include "server/cloud_server.h"

namespace dcfs {
namespace {

using proto::OpKind;
using proto::SyncRecord;
using proto::VersionId;

class ServerTest : public ::testing::Test {
 protected:
  CloudServer server_{CostProfile::pc()};
  std::uint64_t seq_ = 0;

  SyncRecord record(OpKind kind, std::string path, VersionId base,
                    VersionId next) {
    SyncRecord r;
    r.sequence = ++seq_;
    r.kind = kind;
    r.path = std::move(path);
    r.base_version = base;
    r.new_version = next;
    return r;
  }

  proto::Ack apply(const SyncRecord& r, std::uint32_t client = 1) {
    return server_.apply_record(client, r);
  }

  void put_file(const std::string& path, ByteSpan content, VersionId v) {
    SyncRecord r = record(OpKind::full_file, path, {}, v);
    r.payload.assign(content.begin(), content.end());
    ASSERT_EQ(apply(r).result, Errc::ok);
  }

  SyncRecord write_record(const std::string& path, std::uint64_t offset,
                          ByteSpan data, VersionId base, VersionId next) {
    SyncRecord r = record(OpKind::write, path, base, next);
    r.payload = proto::encode_segments({{offset, Bytes(data.begin(),
                                                       data.end())}});
    return r;
  }
};

TEST_F(ServerTest, CreateWriteReadback) {
  ASSERT_EQ(apply(record(OpKind::create, "/f", {}, {1, 1})).result, Errc::ok);
  ASSERT_EQ(apply(write_record("/f", 0, to_bytes("hello"), {1, 1}, {1, 2}))
                .result,
            Errc::ok);
  EXPECT_EQ(as_text(*server_.fetch("/f")), "hello");
  EXPECT_EQ(*server_.version("/f"), (VersionId{1, 2}));
}

TEST_F(ServerTest, WriteSegmentsApplyInOrder) {
  apply(record(OpKind::create, "/f", {}, {1, 1}));
  SyncRecord r = record(OpKind::write, "/f", {1, 1}, {1, 2});
  r.payload = proto::encode_segments(
      {{0, to_bytes("aaaa")}, {2, to_bytes("BB")}, {8, to_bytes("tail")}});
  ASSERT_EQ(apply(r).result, Errc::ok);
  const Bytes content = *server_.fetch("/f");
  EXPECT_EQ(as_text(ByteSpan{content.data(), 4}), "aaBB");
  EXPECT_EQ(content.size(), 12u);
}

TEST_F(ServerTest, RenameMovesAndPreservesReplacedHistory) {
  put_file("/a", to_bytes("A-content"), {1, 1});
  put_file("/b", to_bytes("B-content"), {1, 2});

  SyncRecord r = record(OpKind::rename, "/a", {1, 1}, {1, 3});
  r.path2 = "/b";
  ASSERT_EQ(apply(r).result, Errc::ok);

  EXPECT_FALSE(server_.fetch("/a").is_ok());
  EXPECT_EQ(as_text(*server_.fetch("/b")), "A-content");
  EXPECT_EQ(*server_.version("/b"), (VersionId{1, 3}));
}

TEST_F(ServerTest, UnlinkKeepsTombstoneForDelta) {
  Rng rng(1);
  const Bytes content = rng.bytes(10'000);
  put_file("/f", content, {1, 1});
  ASSERT_EQ(apply(record(OpKind::unlink, "/f", {1, 1}, {1, 2})).result,
            Errc::ok);
  EXPECT_FALSE(server_.fetch("/f").is_ok());

  // Delete-then-recreate: create again, then a delta whose base is the
  // tombstoned version must apply cleanly (base_deleted flag).
  ASSERT_EQ(apply(record(OpKind::create, "/f", {}, {1, 3})).result, Errc::ok);
  Bytes target = content;
  target[0] ^= 0xFF;
  const rsyncx::Delta delta =
      rsyncx::compute_delta_local(content, target, 4096, nullptr);
  SyncRecord r = record(OpKind::file_delta, "/f", {1, 1}, {1, 4});
  r.payload = rsyncx::encode_delta(delta);
  r.base_deleted = true;
  const proto::Ack ack = apply(r);
  EXPECT_EQ(ack.result, Errc::ok);
  EXPECT_EQ(*server_.fetch("/f"), target);
}

TEST_F(ServerTest, TruncateResizes) {
  put_file("/f", to_bytes("0123456789"), {1, 1});
  SyncRecord r = record(OpKind::truncate, "/f", {1, 1}, {1, 2});
  r.size = 4;
  ASSERT_EQ(apply(r).result, Errc::ok);
  EXPECT_EQ(as_text(*server_.fetch("/f")), "0123");
}

TEST_F(ServerTest, LinkDuplicatesContent) {
  put_file("/f", to_bytes("shared"), {1, 1});
  SyncRecord r = record(OpKind::link, "/f", {1, 1}, {1, 2});
  r.path2 = "/f2";
  ASSERT_EQ(apply(r).result, Errc::ok);
  EXPECT_EQ(as_text(*server_.fetch("/f2")), "shared");
}

TEST_F(ServerTest, MkdirRmdirTracked) {
  ASSERT_EQ(apply(record(OpKind::mkdir, "/d", {}, {1, 1})).result, Errc::ok);
  EXPECT_TRUE(server_.has_dir("/d"));
  ASSERT_EQ(apply(record(OpKind::rmdir, "/d", {}, {1, 2})).result, Errc::ok);
  EXPECT_FALSE(server_.has_dir("/d"));
}

TEST_F(ServerTest, StaleWriteCreatesConflictCopyFirstWriteWins) {
  put_file("/f", to_bytes("base-content"), {1, 1});

  // Client 2 writes against version {1,1}: applies (first write wins).
  ASSERT_EQ(
      apply(write_record("/f", 0, to_bytes("2222"), {1, 1}, {2, 1}), 2).result,
      Errc::ok);

  // Client 3 also writes against {1,1}: stale -> conflict copy.
  const proto::Ack ack =
      apply(write_record("/f", 0, to_bytes("3333"), {1, 1}, {3, 1}), 3);
  EXPECT_EQ(ack.result, Errc::conflict);
  EXPECT_EQ(ack.conflict_path, "/f.conflict-3");

  // Main file holds the first writer's data; conflict copy holds the
  // loser's increment applied to the proper base.
  EXPECT_EQ(as_text(ByteSpan{server_.fetch("/f")->data(), 4}), "2222");
  Result<Bytes> conflict = server_.fetch("/f.conflict-3");
  ASSERT_TRUE(conflict.is_ok());
  EXPECT_EQ(as_text(ByteSpan{conflict->data(), 4}), "3333");
  EXPECT_EQ(server_.conflicts_seen(), 1u);
  EXPECT_EQ(server_.conflict_paths(),
            std::vector<std::string>{"/f.conflict-3"});
}

TEST_F(ServerTest, StaleDeltaCreatesConflictCopy) {
  Rng rng(2);
  const Bytes v1 = rng.bytes(8'000);
  put_file("/f", v1, {1, 1});

  // Another client moves the file forward.
  put_file("/f", rng.bytes(8'000), {2, 7});

  // A delta against the superseded v1 arrives.
  Bytes target = v1;
  target[100] ^= 1;
  SyncRecord r = record(OpKind::file_delta, "/f", {1, 1}, {3, 1});
  r.payload =
      rsyncx::encode_delta(rsyncx::compute_delta_local(v1, target, 4096,
                                                       nullptr));
  const proto::Ack ack = apply(r, 3);
  EXPECT_EQ(ack.result, Errc::conflict);
  EXPECT_EQ(*server_.fetch("/f.conflict-3"), target);
}

TEST_F(ServerTest, TransactionalGroupAppliesAtomically) {
  // The Word flow (Fig. 5/6): rename f->t0; create t1; rename t1->f;
  // delta(f against t0); unlink t0 — with the middle records in one group.
  Rng rng(3);
  const Bytes old_content = rng.bytes(20'000);
  Bytes new_content = old_content;
  new_content.insert(new_content.begin() + 5'000, 77);

  put_file("/f", old_content, {1, 1});

  SyncRecord rename_away = record(OpKind::rename, "/f", {1, 1}, {1, 2});
  rename_away.path2 = "/t0";
  ASSERT_EQ(apply(rename_away).result, Errc::ok);

  ASSERT_EQ(apply(record(OpKind::create, "/t1", {}, {1, 3})).result, Errc::ok);

  SyncRecord rename_back = record(OpKind::rename, "/t1", {1, 3}, {1, 4});
  rename_back.path2 = "/f";
  rename_back.txn_group = 9;
  ASSERT_EQ(apply(rename_back).result, Errc::ok);  // buffered

  // Until the group closes, /f does not exist in its final form... the
  // group is buffered, so /t1 still exists.
  EXPECT_TRUE(server_.fetch("/t1").is_ok());

  SyncRecord delta = record(OpKind::file_delta, "/f", {1, 2}, {1, 5});
  delta.path2 = "/t0";
  delta.payload = rsyncx::encode_delta(
      rsyncx::compute_delta_local(old_content, new_content, 4096, nullptr));
  delta.txn_group = 9;
  delta.txn_last = true;
  const proto::Ack ack = apply(delta);
  EXPECT_EQ(ack.result, Errc::ok);

  EXPECT_EQ(*server_.fetch("/f"), new_content);
  EXPECT_FALSE(server_.fetch("/t1").is_ok());

  ASSERT_EQ(apply(record(OpKind::unlink, "/t0", {1, 2}, {1, 6})).result,
            Errc::ok);
  EXPECT_FALSE(server_.fetch("/t0").is_ok());
}

TEST_F(ServerTest, GeditFlowDeltaAgainstReplacedFile) {
  // create tmp; (writes elided); link f f~; rename tmp->f [replaces f];
  // delta(f) whose base is f's pre-rename version, in one group.
  Rng rng(4);
  const Bytes old_f = rng.bytes(10'000);
  Bytes new_f = old_f;
  new_f[9] ^= 0xAA;

  put_file("/f", old_f, {1, 1});
  ASSERT_EQ(apply(record(OpKind::create, "/tmp1", {}, {1, 2})).result,
            Errc::ok);
  SyncRecord link = record(OpKind::link, "/f", {1, 1}, {1, 3});
  link.path2 = "/f~";
  ASSERT_EQ(apply(link).result, Errc::ok);

  SyncRecord rename_over = record(OpKind::rename, "/tmp1", {1, 2}, {1, 4});
  rename_over.path2 = "/f";
  rename_over.txn_group = 5;
  apply(rename_over);

  SyncRecord delta = record(OpKind::file_delta, "/f", {1, 1}, {1, 5});
  delta.payload = rsyncx::encode_delta(
      rsyncx::compute_delta_local(old_f, new_f, 4096, nullptr));
  delta.txn_group = 5;
  delta.txn_last = true;
  const proto::Ack ack = apply(delta);
  EXPECT_EQ(ack.result, Errc::ok) << static_cast<int>(ack.result);

  EXPECT_EQ(*server_.fetch("/f"), new_f);
  EXPECT_EQ(as_text(ByteSpan{server_.fetch("/f~")->data(), 4}),
            as_text(ByteSpan{old_f.data(), 4}));
}

TEST_F(ServerTest, ConflictedGroupLeavesMainFilesUntouched) {
  Rng rng(5);
  const Bytes old_f = rng.bytes(5'000);
  put_file("/f", old_f, {1, 1});
  // Another client supersedes /f.
  const Bytes other = rng.bytes(5'000);
  put_file("/f", other, {2, 9});

  // A transactional group from client 1 still based on {1,1}.
  SyncRecord rename_over = record(OpKind::rename, "/f", {2, 9}, {1, 2});
  rename_over.path2 = "/f.old";
  rename_over.txn_group = 3;
  apply(rename_over);

  Bytes target = old_f;
  target[0] ^= 1;
  SyncRecord delta = record(OpKind::file_delta, "/f.old", {1, 1}, {1, 3});
  delta.payload = rsyncx::encode_delta(
      rsyncx::compute_delta_local(old_f, target, 4096, nullptr));
  delta.txn_group = 3;
  delta.txn_last = true;
  const proto::Ack ack = apply(delta);
  EXPECT_EQ(ack.result, Errc::conflict);

  // Main file untouched (the group rolled back), conflict copy exists.
  EXPECT_EQ(*server_.fetch("/f"), other);
  EXPECT_TRUE(server_.fetch("/f.old.conflict-1").is_ok());
}

TEST_F(ServerTest, ArrivalOrderRecordsFirstContent) {
  put_file("/a", to_bytes("1"), {1, 1});
  put_file("/b", to_bytes("2"), {1, 2});
  put_file("/a", to_bytes("3"), {1, 3});
  EXPECT_EQ(server_.arrival_order(),
            (std::vector<std::string>{"/a", "/b"}));
}

TEST_F(ServerTest, PumpProcessesFramesAndSendsAcks) {
  Transport transport(NetProfile::pc_wan());
  server_.attach(1, transport);

  SyncRecord r = record(OpKind::create, "/f", {}, {1, 1});
  transport.client_send(proto::encode(r));
  EXPECT_EQ(server_.pump(), 1u);

  auto frame = transport.client_poll();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ((*frame)[0], 1);  // ack tag
  Result<proto::Ack> ack =
      proto::decode_ack(ByteSpan{frame->data() + 1, frame->size() - 1});
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack->result, Errc::ok);
  EXPECT_GT(server_.meter().units(), 0u);
}

TEST_F(ServerTest, ForwardsToOtherClients) {
  Transport t1(NetProfile::pc_wan());
  Transport t2(NetProfile::pc_wan());
  server_.attach(1, t1);
  server_.attach(2, t2);

  SyncRecord r = record(OpKind::create, "/f", {}, {1, 1});
  t1.client_send(proto::encode(r));
  server_.pump();

  // Client 1 gets an ack; client 2 gets the forwarded record.
  ASSERT_TRUE(t1.client_poll().has_value());
  auto forwarded = t2.client_poll();
  ASSERT_TRUE(forwarded.has_value());
  EXPECT_EQ((*forwarded)[0], 2);  // record tag
  Result<SyncRecord> decoded = proto::decode_record(
      ByteSpan{forwarded->data() + 1, forwarded->size() - 1});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->path, "/f");
}

TEST_F(ServerTest, MalformedFrameIsRejectedGracefully) {
  Transport transport(NetProfile::pc_wan());
  server_.attach(1, transport);
  transport.client_send(Bytes{1, 2, 3});
  server_.pump();
  auto frame = transport.client_poll();
  ASSERT_TRUE(frame.has_value());
  Result<proto::Ack> ack =
      proto::decode_ack(ByteSpan{frame->data() + 1, frame->size() - 1});
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack->result, Errc::corruption);
}

TEST_F(ServerTest, UnknownRecordKindIsRejectedAndNotForwarded) {
  put_file("/f", to_bytes("base"), {1, 1});
  Transport t1(NetProfile::pc_wan());
  Transport t2(NetProfile::pc_wan());
  server_.attach(1, t1);
  server_.attach(2, t2);
  const std::vector<std::string> paths_before = server_.paths();
  const std::uint64_t applied_before = server_.records_applied();

  // 11 is the retired record_bundle kind and 13-15 the retired chunk-stream
  // kinds; 0 and 16+ were never assigned.
  for (const std::uint8_t kind : {0, 11, 13, 14, 15, 16, 200}) {
    SyncRecord r = record(OpKind::full_file, "/f", {1, 1}, {1, 2});
    r.payload = to_bytes("overwritten");
    Bytes frame = proto::encode(r);
    frame[8] = kind;  // the kind byte follows the u64 sequence
    t1.client_send(std::move(frame));
    server_.pump();

    auto reply = t1.client_poll();
    ASSERT_TRUE(reply.has_value()) << "kind " << int{kind};
    ASSERT_EQ((*reply)[0], 1);  // ack tag
    Result<proto::Ack> ack =
        proto::decode_ack(ByteSpan{reply->data() + 1, reply->size() - 1});
    ASSERT_TRUE(ack.is_ok());
    EXPECT_EQ(ack->result, Errc::corruption) << "kind " << int{kind};
    EXPECT_FALSE(t1.client_poll().has_value());
    EXPECT_FALSE(t2.client_poll().has_value()) << "kind " << int{kind};
  }
  EXPECT_EQ(as_text(*server_.fetch("/f")), "base");
  EXPECT_EQ(server_.version("/f"), (VersionId{1, 1}));
  EXPECT_EQ(server_.paths(), paths_before);
  EXPECT_EQ(server_.records_applied(), applied_before);
}

}  // namespace
}  // namespace dcfs
