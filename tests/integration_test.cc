// Cross-module integration: multi-client sharing (§III-D), conflict
// handling (§III-C), and the reliability behaviours of Table IV.
#include <gtest/gtest.h>

#include "baselines/deltacfs_system.h"
#include "common/rng.h"

namespace dcfs {
namespace {

/// Two DeltaCFS clients sharing one cloud.
class MultiClientTest : public ::testing::Test {
 protected:
  MultiClientTest()
      : local_a_(clock_),
        local_b_(clock_),
        transport_a_(NetProfile::pc_wan()),
        transport_b_(NetProfile::pc_wan()),
        server_(CostProfile::pc()),
        client_a_(local_a_, transport_a_, clock_, CostProfile::pc(),
                  make_config(1)),
        client_b_(local_b_, transport_b_, clock_, CostProfile::pc(),
                  make_config(2)),
        fs_a_(local_a_, client_a_),
        fs_b_(local_b_, client_b_) {
    server_.attach(1, transport_a_);
    server_.attach(2, transport_b_);
    fs_a_.mkdir("/sync");
    fs_b_.mkdir("/sync");
    settle();
  }

  static ClientConfig make_config(std::uint32_t id) {
    ClientConfig config;
    config.client_id = id;
    return config;
  }

  /// Advances time, ticking both clients and the server until quiet.
  void settle(Duration duration = seconds(12)) {
    for (Duration t = 0; t < duration; t += milliseconds(200)) {
      clock_.advance(milliseconds(200));
      client_a_.tick(clock_.now());
      client_b_.tick(clock_.now());
      server_.pump();
      client_a_.tick(clock_.now());
      client_b_.tick(clock_.now());
    }
    client_a_.flush(clock_.now());
    client_b_.flush(clock_.now());
    server_.pump();
    client_a_.tick(clock_.now());
    client_b_.tick(clock_.now());
  }

  VirtualClock clock_;
  MemFs local_a_;
  MemFs local_b_;
  Transport transport_a_;
  Transport transport_b_;
  CloudServer server_;
  DeltaCfsClient client_a_;
  DeltaCfsClient client_b_;
  InterceptingFs fs_a_;
  InterceptingFs fs_b_;
};

TEST_F(MultiClientTest, UpdatesForwardToPeer) {
  fs_a_.write_file("/sync/shared", to_bytes("from A"));
  settle();

  // B received the forwarded create+write and applied it locally.
  Result<Bytes> at_b = local_b_.read_file("/sync/shared");
  ASSERT_TRUE(at_b.is_ok());
  EXPECT_EQ(as_text(*at_b), "from A");
  EXPECT_GT(client_b_.forwards_applied(), 0u);
}

TEST_F(MultiClientTest, IncrementalForwardingNeedsNoRecomputation) {
  Rng rng(1);
  Bytes content = rng.bytes(200'000);
  fs_a_.write_file("/sync/doc", content);
  settle();
  ASSERT_EQ(*local_b_.read_file("/sync/doc"), content);

  // A makes a transactional update; the *delta* is forwarded to B, which
  // applies it against its own base copy.
  content[100'000] ^= 0x0F;
  fs_a_.rename("/sync/doc", "/sync/doc.bak");
  fs_a_.write_file("/sync/doc.tmp", content);
  fs_a_.rename("/sync/doc.tmp", "/sync/doc");
  fs_a_.unlink("/sync/doc.bak");
  settle();

  EXPECT_EQ(*local_b_.read_file("/sync/doc"), content);
  EXPECT_EQ(*server_.fetch("/sync/doc"), content);
}

TEST_F(MultiClientTest, RenameOverSaveForwardsTheSavedBytes) {
  // gedit-style save: write a temp, rename it over f.  The rename fires the
  // "name already exists" delta, whose base is f's replaced content; by
  // the time the delta reaches B, the forwarded rename has put the temp
  // under f's name, so B must resolve the base by version.
  Rng rng(2);
  Bytes content = rng.bytes(200'000);
  fs_a_.write_file("/sync/f", content);
  settle();
  ASSERT_EQ(*local_b_.read_file("/sync/f"), content);

  for (int round = 0; round < 3; ++round) {
    content[50'000 + round * 1'000] ^= 0x3C;
    const std::uint64_t deltas = client_a_.deltas_triggered();
    fs_a_.write_file("/sync/f.tmp", content);
    fs_a_.rename("/sync/f.tmp", "/sync/f");
    ASSERT_EQ(client_a_.deltas_triggered(), deltas + 1) << "round " << round;
    settle();

    EXPECT_EQ(*server_.fetch("/sync/f"), content) << "round " << round;
    Result<Bytes> at_b = local_b_.read_file("/sync/f");
    ASSERT_TRUE(at_b.is_ok()) << "round " << round;
    EXPECT_EQ(*at_b, content) << "round " << round;
    EXPECT_FALSE(local_b_.exists("/sync/f.tmp")) << "round " << round;
  }
  EXPECT_EQ(client_b_.forward_base_missing(), 0u);
}

TEST_F(MultiClientTest, DeleteThenRecreateForwardsTheRecreatedBytes) {
  // Delete-then-recreate: A unlinks f and writes it back with one byte
  // changed.  The relation table turns the rewrite into a delta against the
  // deleted content (base_deleted); by the time it reaches B, the forwarded
  // unlink has removed that content and the forwarded create has bound the
  // name to an empty file, so B must resolve the base by version.
  Rng rng(3);
  Bytes content = rng.bytes(200'000);
  fs_a_.write_file("/sync/f", content);
  settle();
  ASSERT_EQ(*local_b_.read_file("/sync/f"), content);

  for (int round = 0; round < 2; ++round) {
    content[70'000 + round * 1'000] ^= 0x5A;
    const std::uint64_t deltas = client_a_.deltas_triggered();
    fs_a_.unlink("/sync/f");
    fs_a_.write_file("/sync/f", content);
    ASSERT_EQ(client_a_.deltas_triggered(), deltas + 1) << "round " << round;
    settle();

    EXPECT_EQ(*server_.fetch("/sync/f"), content) << "round " << round;
    Result<Bytes> at_b = local_b_.read_file("/sync/f");
    ASSERT_TRUE(at_b.is_ok()) << "round " << round;
    EXPECT_EQ(*at_b, content) << "round " << round;
  }
  EXPECT_EQ(client_b_.forward_base_missing(), 0u);
}

TEST_F(MultiClientTest, RenameAndDeleteForward) {
  fs_a_.write_file("/sync/old", to_bytes("x"));
  settle();
  fs_a_.rename("/sync/old", "/sync/new");
  settle();
  EXPECT_FALSE(local_b_.exists("/sync/old"));
  EXPECT_TRUE(local_b_.exists("/sync/new"));

  fs_a_.unlink("/sync/new");
  settle();
  EXPECT_FALSE(local_b_.exists("/sync/new"));
  // Nothing recreated /sync/new, so the peer's copy of the unlinked
  // content has expired.
  if (Result<std::vector<std::string>> stashed =
          local_b_.list_dir("/.dcfs_tmp")) {
    EXPECT_TRUE(stashed->empty());
  }
}

TEST_F(MultiClientTest, ConcurrentEditsYieldFirstWriteWinsConflict) {
  fs_a_.write_file("/sync/f", to_bytes("base----"));
  settle();
  ASSERT_TRUE(local_b_.exists("/sync/f"));

  // Both clients edit the same base concurrently (neither has synced).
  {
    Result<FileHandle> ha = fs_a_.open("/sync/f");
    fs_a_.write(*ha, 0, to_bytes("AAAA"));
    fs_a_.close(*ha);
    Result<FileHandle> hb = fs_b_.open("/sync/f");
    fs_b_.write(*hb, 0, to_bytes("BBBB"));
    fs_b_.close(*hb);
  }
  settle();

  // One writer won the main file; the other produced a conflict copy.
  Result<Bytes> main = server_.fetch("/sync/f");
  ASSERT_TRUE(main.is_ok());
  const std::string text(as_text(*main));
  EXPECT_TRUE(text.starts_with("AAAA") || text.starts_with("BBBB"));
  EXPECT_EQ(server_.conflict_paths().size(), 1u);
  EXPECT_EQ(client_a_.conflicts_acked() + client_b_.conflicts_acked(), 1u);
}

// ---------------------------------------------------------------------------
// Reliability (Table IV) on the single-client stack with checksums on.
// ---------------------------------------------------------------------------

class ReliabilityTest : public ::testing::Test {
 protected:
  ReliabilityTest() {
    ClientConfig config;
    config.enable_checksums = true;
    system_ = std::make_unique<DeltaCfsSystem>(clock_, CostProfile::pc(),
                                               NetProfile::pc_wan(), config);
    system_->fs().mkdir("/sync");
  }

  void settle(Duration duration = seconds(12)) {
    for (Duration t = 0; t < duration; t += milliseconds(200)) {
      clock_.advance(milliseconds(200));
      system_->tick(clock_.now());
    }
    system_->finish(clock_.now());
  }

  VirtualClock clock_;
  std::unique_ptr<DeltaCfsSystem> system_;
};

TEST_F(ReliabilityTest, CorruptionDetectedOnRead) {
  Rng rng(2);
  const Bytes data = rng.bytes(64 * 1024);
  system_->fs().write_file("/sync/f", data);
  settle();

  // Silent bit flip, out of band (the paper's debugfs injection).
  ASSERT_TRUE(system_->local().corrupt_bit("/sync/f", 10'000, 2).is_ok());

  // Reading through the stack detects it and fails with EIO.
  Result<Bytes> read_back = system_->fs().read_file("/sync/f");
  EXPECT_EQ(read_back.code(), Errc::corruption);
  EXPECT_FALSE(system_->client().detected_corruption().empty());
}

TEST_F(ReliabilityTest, CorruptedDataIsNeverUploaded) {
  Rng rng(3);
  Bytes data = rng.bytes(64 * 1024);
  system_->fs().write_file("/sync/f", data);
  settle();
  const Bytes clean_cloud = *system_->server().fetch("/sync/f");

  ASSERT_TRUE(system_->local().corrupt_bit("/sync/f", 20'000, 1).is_ok());

  // Table IV scenario: write 1 byte to the corrupted file.  Dropbox and
  // Seafile would now upload the corrupted content; DeltaCFS detects the
  // damaged pre-image and quarantines the file.
  Result<FileHandle> handle = system_->fs().open("/sync/f");
  ASSERT_TRUE(handle.is_ok());
  system_->fs().write(*handle, 20'000, to_bytes("x"));
  system_->fs().close(*handle);
  settle();

  EXPECT_FALSE(system_->client().detected_corruption().empty());
  // The cloud copy is unchanged — damaged data never traveled.
  EXPECT_EQ(*system_->server().fetch("/sync/f"), clean_cloud);
}

TEST_F(ReliabilityTest, CrashInconsistencyFoundByScan) {
  Rng rng(4);
  system_->fs().write_file("/sync/f", rng.bytes(64 * 1024));
  settle();

  // Touch the file so it counts as recently modified, then simulate the
  // post-crash situation: data changed on disk, metadata/checksums not.
  Result<FileHandle> handle = system_->fs().open("/sync/f");
  system_->fs().write(*handle, 0, to_bytes("last write before crash"));
  system_->fs().close(*handle);
  ASSERT_TRUE(
      system_->local().write_bypassing("/sync/f", 4096, rng.bytes(512))
          .is_ok());

  const auto damaged = system_->client().crash_scan();
  ASSERT_EQ(damaged.size(), 1u);
  EXPECT_EQ(damaged[0], "/sync/f");
  EXPECT_TRUE(system_->client().quarantined().contains("/sync/f"));
}

TEST_F(ReliabilityTest, RecoveryFromCloudRestoresFile) {
  Rng rng(5);
  const Bytes data = rng.bytes(32 * 1024);
  system_->fs().write_file("/sync/f", data);
  settle();

  ASSERT_TRUE(system_->local().corrupt_bit("/sync/f", 5'000, 0).is_ok());
  EXPECT_EQ(system_->fs().read_file("/sync/f").code(), Errc::corruption);

  // Pull the clean copy from the cloud (the paper's recovery path).
  Result<Bytes> cloud_copy = system_->server().fetch("/sync/f");
  ASSERT_TRUE(cloud_copy.is_ok());
  ASSERT_TRUE(system_->client().recover_file("/sync/f", *cloud_copy).is_ok());

  Result<Bytes> healed = system_->fs().read_file("/sync/f");
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(*healed, data);
  EXPECT_FALSE(system_->client().quarantined().contains("/sync/f"));
}

TEST_F(ReliabilityTest, ChecksummedStackStillSyncsTransactionalUpdates) {
  Rng rng(6);
  Bytes content = rng.bytes(100'000);
  system_->fs().write_file("/sync/doc", content);
  settle();

  content[1'234] ^= 0xFF;
  system_->fs().rename("/sync/doc", "/sync/doc.t0");
  system_->fs().write_file("/sync/doc.t1", content);
  system_->fs().rename("/sync/doc.t1", "/sync/doc");
  system_->fs().unlink("/sync/doc.t0");
  settle();

  EXPECT_EQ(*system_->server().fetch("/sync/doc"), content);
  EXPECT_EQ(system_->client().deltas_triggered(), 1u);
  // Local reads verify clean.
  EXPECT_TRUE(system_->fs().read_file("/sync/doc").is_ok());
}

}  // namespace
}  // namespace dcfs
