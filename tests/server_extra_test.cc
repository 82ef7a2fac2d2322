// Additional CloudServer coverage: history depth, tombstone revival,
// malformed compressed payloads, detach, group-version bookkeeping,
// block-store refcounting under trimming, revival and tombstone GC, and
// transactional groups staged against only the entries they touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "obs/obs.h"
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
  CloudServer server(CostProfile::pc(), ServerConfig{.history_depth = 4});
  for (std::uint64_t i = 1; i <= 20; ++i) {
    server.apply_record(
        1, full_file("/f", to_bytes(std::string("v").append(std::to_string(i))),
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

// ---- Group staging is independent of namespace size ----

SyncRecord in_group(SyncRecord record, std::uint64_t group, bool last) {
  record.txn_group = group;
  record.txn_last = last;
  return record;
}

SyncRecord write_at(const std::string& path, std::uint64_t offset,
                    ByteSpan data, VersionId base, VersionId version) {
  proto::Segment segment;
  segment.offset = offset;
  segment.data.assign(data.begin(), data.end());
  SyncRecord record;
  record.kind = OpKind::write;
  record.path = path;
  record.payload = proto::encode_segments({segment});
  record.base_version = base;
  record.new_version = version;
  return record;
}

SyncRecord name_op(OpKind kind, const std::string& path,
                   const std::string& path2, VersionId version) {
  SyncRecord record;
  record.kind = kind;
  record.path = path;
  record.path2 = path2;
  record.new_version = version;
  return record;
}

/// Every version the server keeps for `path` (current first) with a hash
/// of its content; "" when the path does not exist.
std::string describe(const CloudServer& server, const std::string& path) {
  std::ostringstream out;
  for (const VersionId& version : server.history(path)) {
    const Result<Bytes> content = server.fetch_version(path, version);
    out << proto::to_string(version) << '=';
    if (content.is_ok()) {
      out << content->size() << '/'
          << std::hash<std::string_view>{}(std::string_view(
                 reinterpret_cast<const char*>(content->data()),
                 content->size()));
    } else {
      out << "missing";
    }
    out << ' ';
  }
  return out.str();
}

/// A server plus its observability registry, so staged_entries is readable.
struct CountedServer {
  obs::Obs obs;
  CloudServer server{CostProfile::pc(), ServerConfig{}, &obs};
  [[nodiscard]] std::uint64_t staged() {
    return obs.registry.counter("server.txn.staged_entries").value();
  }
};

TEST(ServerGroupStagingTest, GroupsCostWhatTheyTouchNotTheNamespace) {
  constexpr std::size_t kUnrelated = 500;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    CountedServer big;
    CountedServer small;

    // The unrelated namespace: only the big server holds it.
    std::vector<std::string> unrelated;
    for (std::size_t i = 0; i < kUnrelated; ++i) {
      const std::string path = "/bulk/f" + std::to_string(i);
      Bytes content = rng.bytes(rng.next_in(200, 2'000));
      for (std::uint64_t v = 1; v <= 3; ++v) {
        content[rng.next_below(content.size())] ^= 0x5A;
        big.server.apply_record(2, full_file(path, content, {2, i * 3 + v}));
      }
      unrelated.push_back(path);
    }

    // The group paths' starting state, identical on both servers.
    std::map<std::string, Bytes> content;
    std::uint64_t counter = 0;
    auto put = [&](const std::string& path, Bytes bytes) {
      const SyncRecord record = full_file(path, bytes, {1, ++counter});
      content[path] = std::move(bytes);
      ASSERT_EQ(big.server.apply_record(1, record).result, Errc::ok);
      ASSERT_EQ(small.server.apply_record(1, record).result, Errc::ok);
    };
    for (const char* path : {"/t/a", "/t/b", "/t/c", "/t/d", "/t/e"}) {
      put(path, rng.bytes(rng.next_in(8'000, 20'000)));
      Bytes next = content[path];
      next[rng.next_below(next.size())] ^= 0x3C;
      put(path, std::move(next));
    }
    put("/t/e.conflict-1", rng.bytes(500));  // an earlier conflict copy

    std::map<std::string, std::string> unrelated_before;
    for (const std::string& path : unrelated) {
      unrelated_before[path] = describe(big.server, path);
    }
    const std::uint64_t unique_gap =
        big.server.store().unique_bytes() - small.server.store().unique_bytes();
    const std::uint64_t logical_gap = big.server.store().logical_bytes() -
                                      small.server.store().logical_bytes();
    big.server.meter().reset();  // compare the groups' charges exactly
    small.server.meter().reset();

    const auto version_of = [&](const std::string& path) {
      return *small.server.version(path);
    };
    const Bytes patch = rng.bytes(rng.next_in(16, 512));
    Bytes recreated = content["/t/d"];
    recreated[rng.next_below(recreated.size())] ^= 0x77;
    SyncRecord revive_delta;
    revive_delta.kind = OpKind::file_delta;
    revive_delta.path = "/t/d";
    revive_delta.base_deleted = true;
    revive_delta.base_version = version_of("/t/d");
    revive_delta.payload = rsyncx::encode_delta(rsyncx::compute_delta_local(
        content["/t/d"], recreated, 4096, nullptr));
    revive_delta.new_version = {1, 109};

    struct Case {
      const char* name;
      std::vector<SyncRecord> records;
      Errc verdict;
    };
    const std::vector<Case> cases = {
        {"clean commit",
         {write_at("/t/a", rng.next_below(4'000), patch, version_of("/t/a"),
                   {1, 100}),
          full_file("/t/new", rng.bytes(3'000), {1, 101})},
         Errc::ok},
        {"conflicted group",  // /t/b's base is its superseded version
         {full_file("/t/c", rng.bytes(5'000), {1, 102}),
          write_at("/t/b", 0, patch, small.server.history("/t/b")[1],
                   {1, 103})},
         Errc::conflict},
        {"conflict copy exists",
         {write_at("/t/e", 10, patch, small.server.history("/t/e")[1],
                   {1, 104})},
         Errc::conflict},
        {"rename over",
         {full_file("/t/tmp", rng.bytes(6'000), {1, 105}),
          name_op(OpKind::rename, "/t/tmp", "/t/a", {1, 106})},
         Errc::ok},
        {"unlink and recreate",
         {name_op(OpKind::unlink, "/t/d", "", {1, 107}),
          name_op(OpKind::create, "/t/d", "", {1, 108}), revive_delta},
         Errc::ok},
    };

    std::set<std::string> touched;
    std::uint64_t group = 0;
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      ++group;
      std::set<std::string> names;
      for (const SyncRecord& record : c.records) {
        for (const std::string& path :
             {record.path, record.path2, record.path + ".conflict-1"}) {
          if (!path.empty()) names.insert(path);
        }
      }
      const auto present = static_cast<std::uint64_t>(
          std::count_if(names.begin(), names.end(), [&](const auto& path) {
            return small.server.version(path).has_value();
          }));
      touched.insert(names.begin(), names.end());

      const std::uint64_t big_staged = big.staged();
      const std::uint64_t small_staged = small.staged();
      for (std::size_t i = 0; i < c.records.size(); ++i) {
        const SyncRecord record =
            in_group(c.records[i], group, i + 1 == c.records.size());
        const proto::Ack big_ack = big.server.apply_record(1, record);
        const proto::Ack small_ack = small.server.apply_record(1, record);
        EXPECT_EQ(big_ack.result, small_ack.result);
        EXPECT_EQ(big_ack.conflict_path, small_ack.conflict_path);
        if (i + 1 == c.records.size()) {
          EXPECT_EQ(big_ack.result, c.verdict);
        }
      }
      // Each present touched entry is staged once; none of the namespace.
      EXPECT_EQ(big.staged() - big_staged, present);
      EXPECT_EQ(small.staged() - small_staged, present);
    }
    EXPECT_EQ(*big.server.fetch("/t/d"), recreated);
    EXPECT_TRUE(big.server.fetch("/t/b.conflict-1").is_ok());
    EXPECT_EQ(*big.server.fetch("/t/e.conflict-1"),
              content["/t/e.conflict-1"]);

    for (const std::string& path : touched) {
      EXPECT_EQ(describe(big.server, path), describe(small.server, path))
          << path;
    }
    for (const std::string& path : unrelated) {
      EXPECT_EQ(describe(big.server, path), unrelated_before[path]) << path;
    }
    EXPECT_EQ(big.server.paths().size(),
              small.server.paths().size() + kUnrelated);
    EXPECT_EQ(big.server.store().unique_bytes() -
                  small.server.store().unique_bytes(),
              unique_gap);
    EXPECT_EQ(big.server.store().logical_bytes() -
                  small.server.store().logical_bytes(),
              logical_gap);
    EXPECT_EQ(big.server.meter().snapshot().units_by_kind,
              small.server.meter().snapshot().units_by_kind);
  }
}

}  // namespace
}  // namespace dcfs
