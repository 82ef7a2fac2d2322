#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "kvstore/kvstore.h"

namespace dcfs {
namespace {

TEST(KvStoreTest, PutGetErase) {
  KvStore kv(std::make_shared<MemoryWalStorage>());
  EXPECT_FALSE(kv.get("missing").has_value());

  kv.put("alpha", to_bytes("1"));
  kv.put("beta", to_bytes("2"));
  ASSERT_TRUE(kv.get("alpha").has_value());
  EXPECT_EQ(*kv.get("alpha"), to_bytes("1"));
  EXPECT_EQ(kv.size(), 2u);

  EXPECT_TRUE(kv.erase("alpha"));
  EXPECT_FALSE(kv.erase("alpha"));
  EXPECT_FALSE(kv.get("alpha").has_value());
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStoreTest, OverwriteKeepsLatest) {
  KvStore kv(std::make_shared<MemoryWalStorage>());
  kv.put("k", to_bytes("old"));
  kv.put("k", to_bytes("new"));
  EXPECT_EQ(*kv.get("k"), to_bytes("new"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStoreTest, RecoveryReplaysSyncedMutations) {
  auto storage = std::make_shared<MemoryWalStorage>();
  {
    KvStore kv(storage);
    kv.put("a", to_bytes("1"));
    kv.put("b", to_bytes("2"));
    kv.erase("a");
    kv.sync();
  }
  KvStore recovered(storage);
  EXPECT_FALSE(recovered.get("a").has_value());
  ASSERT_TRUE(recovered.get("b").has_value());
  EXPECT_EQ(*recovered.get("b"), to_bytes("2"));
}

TEST(KvStoreTest, CrashLosesUnsyncedSuffix) {
  auto storage = std::make_shared<MemoryWalStorage>();
  KvStore kv(storage);
  kv.put("durable", to_bytes("yes"));
  kv.sync();
  kv.put("volatile", to_bytes("no"));
  storage->crash();  // power cut before sync

  KvStore recovered(storage);
  EXPECT_TRUE(recovered.get("durable").has_value());
  EXPECT_FALSE(recovered.get("volatile").has_value());
}

TEST(KvStoreTest, CorruptedRecordEndsReplay) {
  auto storage = std::make_shared<MemoryWalStorage>();
  KvStore kv(storage);
  kv.put("first", to_bytes("1"));
  kv.put("second", to_bytes("2"));
  kv.sync();

  // Flip a bit inside the second record's payload region.
  storage->corrupt_bit(storage->durable_size() - 3, 2);
  KvStore recovered(storage);
  EXPECT_TRUE(recovered.get("first").has_value());
  EXPECT_FALSE(recovered.get("second").has_value());
}

TEST(KvStoreTest, CompactionShrinksLogAndPreservesData) {
  auto storage = std::make_shared<MemoryWalStorage>();
  KvStore kv(storage);
  for (int i = 0; i < 100; ++i) {
    std::string value = "v";  // appended: see proto::to_string(VersionId)
    kv.put("hot", to_bytes(value.append(std::to_string(i))));
  }
  kv.sync();
  const std::size_t before = storage->durable_size();
  kv.compact();
  EXPECT_LT(storage->durable_size(), before);

  KvStore recovered(storage);
  EXPECT_EQ(*recovered.get("hot"), to_bytes("v99"));
}

TEST(KvStoreTest, ScanPrefixIsOrderedAndFiltered) {
  KvStore kv(std::make_shared<MemoryWalStorage>());
  kv.put("cs:/a:0001", to_bytes("x"));
  kv.put("cs:/a:0000", to_bytes("y"));
  kv.put("cs:/b:0000", to_bytes("z"));
  kv.put("sz:/a", to_bytes("s"));

  std::vector<std::string> keys;
  kv.scan_prefix("cs:/a:", [&](std::string_view key, ByteSpan) {
    keys.emplace_back(key);
  });
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "cs:/a:0000");
  EXPECT_EQ(keys[1], "cs:/a:0001");
}

TEST(KvStoreTest, BinaryKeysAndValues) {
  KvStore kv(std::make_shared<MemoryWalStorage>());
  Rng rng(17);
  const Bytes value = rng.bytes(4096);
  const std::string key("\x00\x01\xff key", 8);
  kv.put(key, value);
  kv.sync();
  ASSERT_TRUE(kv.get(key).has_value());
  EXPECT_EQ(*kv.get(key), value);
}

TEST(KvStoreTest, ManyEntriesSurviveRecovery) {
  auto storage = std::make_shared<MemoryWalStorage>();
  Rng rng(18);
  {
    KvStore kv(storage);
    for (int i = 0; i < 500; ++i) {
      kv.put("key" + std::to_string(i), rng.bytes(1 + i % 64));
    }
    kv.sync();
  }
  KvStore recovered(storage);
  EXPECT_EQ(recovered.size(), 500u);
  Rng verify(18);
  for (int i = 0; i < 500; ++i) {
    const auto value = recovered.get("key" + std::to_string(i));
    ASSERT_TRUE(value.has_value()) << i;
    EXPECT_EQ(*value, verify.bytes(1 + i % 64)) << i;
  }
}


TEST(KvStoreTest, AutoCompactionBoundsWalGrowth) {
  auto storage = std::make_shared<MemoryWalStorage>();
  KvStore kv(storage);
  kv.set_auto_compaction(/*factor=*/2.0, /*min_bytes=*/1024);

  // Hammer one hot key: without compaction the WAL would grow linearly;
  // with auto-compaction it stays within factor x live size.
  Rng rng(21);
  const Bytes value = rng.bytes(256);
  for (int i = 0; i < 2'000; ++i) {
    kv.put("hot" + std::to_string(i % 4), value);
  }
  EXPECT_LE(kv.wal_bytes(), 3 * kv.live_bytes() + 2048);
  // Content survives a recovery cycle after compaction.
  kv.sync();
  KvStore recovered(storage);
  EXPECT_EQ(recovered.size(), 4u);
  EXPECT_EQ(*recovered.get("hot0"), value);
}

TEST(KvStoreTest, LiveBytesTracksTable) {
  KvStore kv(std::make_shared<MemoryWalStorage>());
  EXPECT_EQ(kv.live_bytes(), 0u);
  kv.put("k", Bytes(100, 'x'));
  const std::size_t one = kv.live_bytes();
  EXPECT_GT(one, 100u);
  kv.put("k", Bytes(10, 'y'));  // overwrite with smaller value
  EXPECT_LT(kv.live_bytes(), one);
  kv.erase("k");
  EXPECT_EQ(kv.live_bytes(), 0u);
}

}  // namespace
}  // namespace dcfs
