#include <gtest/gtest.h>

#include <string>

#include "baselines/deltacfs_system.h"
#include "common/rng.h"
#include "rsyncx/delta.h"

namespace dcfs {
namespace {

/// Test fixture wiring the full DeltaCFS stack under a virtual clock.
class ClientTest : public ::testing::Test {
 protected:
  ClientTest() { system_.fs().mkdir("/sync"); }

  /// Advances virtual time in small steps, ticking the system.
  void run_for(Duration duration) {
    for (Duration t = 0; t < duration; t += milliseconds(200)) {
      clock_.advance(milliseconds(200));
      system_.tick(clock_.now());
    }
  }

  void drain() {
    run_for(seconds(10));
    system_.finish(clock_.now());
  }

  void write_file(const std::string& path, ByteSpan data) {
    ASSERT_TRUE(system_.fs().write_file(path, data).is_ok());
  }

  Bytes cloud(const std::string& path) {
    Result<Bytes> content = system_.server().fetch(path);
    EXPECT_TRUE(content.is_ok()) << path;
    return content.is_ok() ? *content : Bytes{};
  }

  VirtualClock clock_;
  DeltaCfsSystem system_{clock_, CostProfile::pc(), NetProfile::pc_wan()};
};

TEST_F(ClientTest, SimpleCreateWriteSyncs) {
  write_file("/sync/f", to_bytes("hello cloud"));
  drain();
  EXPECT_EQ(as_text(cloud("/sync/f")), "hello cloud");
}

TEST_F(ClientTest, AppendsSyncIncrementally) {
  Rng rng(1);
  Result<FileHandle> handle = system_.fs().create("/sync/log");
  ASSERT_TRUE(handle.is_ok());
  std::uint64_t size = 0;
  Bytes expected;
  for (int i = 0; i < 5; ++i) {
    const Bytes chunk = rng.text(10'000);
    system_.fs().write(*handle, size, chunk);
    size += chunk.size();
    append(expected, chunk);
    run_for(seconds(5));  // node ages past the upload delay between writes
  }
  system_.fs().close(*handle);
  drain();
  EXPECT_EQ(cloud("/sync/log"), expected);
  // Several incremental uploads happened, not one big one.
  EXPECT_GE(system_.client().records_uploaded(), 4u);
}

TEST_F(ClientTest, OutOfScopePathsAreNotSynced) {
  write_file("/private", to_bytes("secret"));
  drain();
  EXPECT_FALSE(system_.server().fetch("/private").is_ok());
}

TEST_F(ClientTest, WordTransactionalUpdateUsesDelta) {
  Rng rng(2);
  Bytes content = rng.bytes(200'000);
  write_file("/sync/doc", content);
  drain();
  const std::uint64_t traffic_before = system_.traffic().up_bytes();

  // Fig. 3 Word flow: rename f t0; create-write t1; rename t1 f; delete t0.
  content.insert(content.begin() + 100'000, 42);  // small edit, shifts tail
  ASSERT_TRUE(system_.fs().rename("/sync/doc", "/sync/doc.t0").is_ok());
  Result<FileHandle> handle = system_.fs().create("/sync/doc.t1");
  ASSERT_TRUE(handle.is_ok());
  system_.fs().write(*handle, 0, content);
  system_.fs().close(*handle);
  ASSERT_TRUE(system_.fs().rename("/sync/doc.t1", "/sync/doc").is_ok());
  ASSERT_TRUE(system_.fs().unlink("/sync/doc.t0").is_ok());
  drain();

  EXPECT_EQ(cloud("/sync/doc"), content);
  EXPECT_FALSE(system_.server().fetch("/sync/doc.t0").is_ok());
  EXPECT_FALSE(system_.server().fetch("/sync/doc.t1").is_ok());
  EXPECT_EQ(system_.client().deltas_triggered(), 1u);

  // The full 200 KB rewrite crossed the wire as a small delta.
  const std::uint64_t used = system_.traffic().up_bytes() - traffic_before;
  EXPECT_LT(used, 20'000u);
  EXPECT_EQ(system_.client().conflicts_acked(), 0u);
}

TEST_F(ClientTest, WordSaveHashesOnlyTheLocalDelta) {
  // A save's only weak-checksum work is the local delta itself: one pass
  // over the base for its signature, one rolling scan of the target.
  Rng rng(4);
  const Bytes base = rng.bytes(200'000);
  write_file("/sync/doc", base);
  drain();
  Bytes target = base;
  target.insert(target.begin() + 100'000, 42);
  const std::uint64_t hashed_before =
      system_.client().meter().units_for(CostKind::rolling_hash);

  // Word save: rename to the backup, write a temp file, rename it over.
  ASSERT_TRUE(system_.fs().rename("/sync/doc", "/sync/doc.bak").is_ok());
  write_file("/sync/doc.tmp", target);
  ASSERT_TRUE(system_.fs().rename("/sync/doc.tmp", "/sync/doc").is_ok());
  drain();
  ASSERT_EQ(system_.client().deltas_triggered(), 1u);
  EXPECT_EQ(cloud("/sync/doc"), target);

  CostMeter direct(CostProfile::pc());
  (void)rsyncx::compute_delta_local(base, target,
                                    system_.client().config().delta_block_size,
                                    &direct);
  EXPECT_EQ(system_.client().meter().units_for(CostKind::rolling_hash) -
                hashed_before,
            direct.units_for(CostKind::rolling_hash));
}

TEST_F(ClientTest, GeditLinkRenameFlowUsesDelta) {
  Rng rng(3);
  Bytes content = rng.bytes(100'000);
  write_file("/sync/notes", content);
  drain();
  const std::uint64_t traffic_before = system_.traffic().up_bytes();

  // Fig. 3 gedit flow: create-write tmp; link f f~; rename tmp f.
  content[50'000] ^= 0x55;
  Result<FileHandle> handle = system_.fs().create("/sync/.tmp123");
  ASSERT_TRUE(handle.is_ok());
  system_.fs().write(*handle, 0, content);
  system_.fs().close(*handle);
  ASSERT_TRUE(system_.fs().link("/sync/notes", "/sync/notes~").is_ok());
  ASSERT_TRUE(system_.fs().rename("/sync/.tmp123", "/sync/notes").is_ok());
  drain();

  EXPECT_EQ(cloud("/sync/notes"), content);
  EXPECT_EQ(system_.client().deltas_triggered(), 1u);
  const std::uint64_t used = system_.traffic().up_bytes() - traffic_before;
  EXPECT_LT(used, 110'000u);  // backup link costs nothing contentwise
  EXPECT_EQ(system_.client().conflicts_acked(), 0u);
}

TEST_F(ClientTest, DeleteThenRecreateUsesPreservedCopy) {
  Rng rng(4);
  Bytes content = rng.bytes(80'000);
  write_file("/sync/cfg", content);
  drain();
  const std::uint64_t traffic_before = system_.traffic().up_bytes();

  // The "bad update" pattern: delete the file, then rewrite it slightly
  // changed.  The unlink interceptor preserves the old version in tmp/.
  ASSERT_TRUE(system_.fs().unlink("/sync/cfg").is_ok());
  content[7] ^= 0x01;
  Result<FileHandle> handle = system_.fs().create("/sync/cfg");
  ASSERT_TRUE(handle.is_ok());
  system_.fs().write(*handle, 0, content);
  system_.fs().close(*handle);
  drain();

  EXPECT_EQ(cloud("/sync/cfg"), content);
  EXPECT_EQ(system_.client().deltas_triggered(), 1u);
  EXPECT_LT(system_.traffic().up_bytes() - traffic_before, 10'000u);
  EXPECT_EQ(system_.client().conflicts_acked(), 0u);
}

TEST_F(ClientTest, PreservedUnlinkExpiresAndReallyDeletes) {
  write_file("/sync/gone", to_bytes("bye"));
  drain();
  ASSERT_TRUE(system_.fs().unlink("/sync/gone").is_ok());

  // The preserved copy sits under the client tmp dir until the relation
  // times out (2 s), then it is really removed from the local FS.
  const auto before = system_.local().list_dir("/.dcfs_tmp");
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before->size(), 1u);

  run_for(seconds(4));
  const auto after = system_.local().list_dir("/.dcfs_tmp");
  ASSERT_TRUE(after.is_ok());
  EXPECT_TRUE(after->empty());

  drain();
  EXPECT_FALSE(system_.server().fetch("/sync/gone").is_ok());
}

TEST_F(ClientTest, InPlaceSmallWritesShipAsWrites) {
  Rng rng(5);
  Bytes content = rng.bytes(500'000);
  write_file("/sync/db", content);
  drain();
  const std::uint64_t traffic_before = system_.traffic().up_bytes();

  // Small in-place update: NFS-like RPC, no delta machinery.
  Result<FileHandle> handle = system_.fs().open("/sync/db");
  const Bytes patch = rng.bytes(1'000);
  system_.fs().write(*handle, 123'456, patch);
  system_.fs().close(*handle);
  std::copy(patch.begin(), patch.end(), content.begin() + 123'456);
  drain();

  EXPECT_EQ(cloud("/sync/db"), content);
  EXPECT_EQ(system_.client().deltas_triggered(), 0u);
  const std::uint64_t used = system_.traffic().up_bytes() - traffic_before;
  EXPECT_LT(used, 3'000u);  // ~ the patch plus framing
}

TEST_F(ClientTest, LargeInPlaceRewriteCompressesViaLocalDelta) {
  Rng rng(6);
  Bytes content = rng.bytes(100'000);
  write_file("/sync/big", content);
  drain();
  const std::uint64_t traffic_before = system_.traffic().up_bytes();

  // Rewrite >50% of the file with content that is mostly unchanged: the
  // undo log lets the client reconstruct the old version and delta it.
  Result<FileHandle> handle = system_.fs().open("/sync/big");
  Bytes rewrite(content.begin(), content.begin() + 80'000);
  rewrite[79'999] ^= 0xFF;  // only one byte actually differs
  system_.fs().write(*handle, 0, rewrite);
  system_.fs().close(*handle);
  std::copy(rewrite.begin(), rewrite.end(), content.begin());
  drain();

  EXPECT_EQ(cloud("/sync/big"), content);
  EXPECT_EQ(system_.client().deltas_triggered(), 1u);
  EXPECT_LT(system_.traffic().up_bytes() - traffic_before, 20'000u);
}

TEST_F(ClientTest, TruncateSyncs) {
  write_file("/sync/t", to_bytes("0123456789"));
  drain();
  ASSERT_TRUE(system_.fs().truncate("/sync/t", 4).is_ok());
  drain();
  EXPECT_EQ(as_text(cloud("/sync/t")), "0123");
}

TEST_F(ClientTest, MkdirAndNestedFilesSync) {
  ASSERT_TRUE(system_.fs().mkdir("/sync/dir").is_ok());
  write_file("/sync/dir/f", to_bytes("nested"));
  drain();
  EXPECT_TRUE(system_.server().has_dir("/sync/dir"));
  EXPECT_EQ(as_text(cloud("/sync/dir/f")), "nested");
}

TEST_F(ClientTest, VersionsAdvancePerUpdate) {
  write_file("/sync/v", to_bytes("a"));
  drain();
  const auto v1 = system_.server().version("/sync/v");
  ASSERT_TRUE(v1.has_value());

  Result<FileHandle> handle = system_.fs().open("/sync/v");
  system_.fs().write(*handle, 1, to_bytes("b"));
  system_.fs().close(*handle);
  drain();
  const auto v2 = system_.server().version("/sync/v");
  ASSERT_TRUE(v2.has_value());
  EXPECT_NE(*v1, *v2);
  EXPECT_EQ(v2->client_id, 1u);
  EXPECT_GT(v2->counter, v1->counter);
}

TEST_F(ClientTest, CausalOrderPreservedDespiteDeletion) {
  // §III-E example: create a, create b, create c, delete a — the cloud must
  // never hold b without having seen a first (FIFO + tombstones).
  write_file("/sync/a", to_bytes("A"));
  write_file("/sync/b", to_bytes("B"));
  write_file("/sync/c", to_bytes("C"));
  ASSERT_TRUE(system_.fs().unlink("/sync/a").is_ok());
  drain();

  const auto& order = system_.server().arrival_order();
  const auto pos = [&](const std::string& p) {
    return std::find(order.begin(), order.end(), p) - order.begin();
  };
  EXPECT_LT(pos("/sync/a"), pos("/sync/b"));
  EXPECT_LT(pos("/sync/b"), pos("/sync/c"));
  EXPECT_FALSE(system_.server().fetch("/sync/a").is_ok());
}

}  // namespace
}  // namespace dcfs
