#include <gtest/gtest.h>

#include "common/rng.h"
#include "server/block_store.h"

namespace dcfs {
namespace {

TEST(BlockStoreTest, PutGetRoundTrip) {
  BlockStore store;
  Rng rng(1);
  const Bytes data = rng.bytes(300'000);
  const BlockHandle handle = store.put(data);
  EXPECT_EQ(handle.size, data.size());
  Result<Bytes> out = store.get(handle);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(*out, data);
}

TEST(BlockStoreTest, EmptyObject) {
  BlockStore store;
  const BlockHandle handle = store.put({});
  EXPECT_TRUE(handle.empty());
  EXPECT_EQ(store.get(handle)->size(), 0u);
}

TEST(BlockStoreTest, IdenticalContentIsStoredOnce) {
  BlockStore store;
  Rng rng(2);
  const Bytes data = rng.bytes(200'000);
  const BlockHandle a = store.put(data);
  const std::uint64_t after_first = store.unique_bytes();
  const BlockHandle b = store.put(data);
  EXPECT_EQ(store.unique_bytes(), after_first);  // no new chunks
  EXPECT_EQ(store.logical_bytes(), 2 * data.size());
  EXPECT_GE(store.dedup_ratio(), 1.9);
  EXPECT_EQ(*store.get(a), *store.get(b));
}

TEST(BlockStoreTest, NearIdenticalVersionsShareMostChunks) {
  BlockStore store;
  Rng rng(3);
  Bytes v1 = rng.bytes(1 << 20);
  const BlockHandle h1 = store.put(v1);

  Bytes v2 = v1;
  v2.insert(v2.begin() + 400'000, 0x42);  // 1-byte insertion (CDC shines)
  const std::uint64_t before = store.unique_bytes();
  const BlockHandle h2 = store.put(v2);

  // Only the chunks around the edit are new.
  EXPECT_LT(store.unique_bytes() - before, 64u * 1024);
  EXPECT_EQ(*store.get(h1), v1);
  EXPECT_EQ(*store.get(h2), v2);
}

TEST(BlockStoreTest, ReleaseReclaimsUnsharedChunks) {
  BlockStore store;
  Rng rng(4);
  const Bytes data = rng.bytes(500'000);
  const BlockHandle handle = store.put(data);
  EXPECT_GT(store.chunk_count(), 0u);

  store.release(handle);
  EXPECT_EQ(store.chunk_count(), 0u);
  EXPECT_EQ(store.unique_bytes(), 0u);
  EXPECT_EQ(store.logical_bytes(), 0u);
  EXPECT_FALSE(store.get(handle).is_ok());  // chunks gone
}

TEST(BlockStoreTest, SharedChunksSurviveUntilLastRelease) {
  BlockStore store;
  Rng rng(5);
  const Bytes data = rng.bytes(500'000);
  const BlockHandle a = store.put(data);
  const BlockHandle b = store.put(data);

  store.release(a);
  Result<Bytes> still_there = store.get(b);
  ASSERT_TRUE(still_there.is_ok());
  EXPECT_EQ(*still_there, data);

  store.release(b);
  EXPECT_EQ(store.chunk_count(), 0u);
}

TEST(BlockStoreTest, VersionHistoryDedupScenario) {
  // The motivating case: a document's 20 retained versions, each a small
  // edit apart, must cost little more than one copy.
  BlockStore store;
  Rng rng(6);
  Bytes content = rng.bytes(2 << 20);
  std::vector<BlockHandle> history;
  for (int version = 0; version < 20; ++version) {
    const Bytes patch = rng.bytes(512);
    const std::size_t at = rng.next_below(content.size() - patch.size());
    std::copy(patch.begin(), patch.end(),
              content.begin() + static_cast<std::ptrdiff_t>(at));
    history.push_back(store.put(content));
  }
  EXPECT_GT(store.dedup_ratio(), 5.0);
  EXPECT_LT(store.unique_bytes(), 2u * (2 << 20));  // << 20 full copies
  // Every retained version is still fully reconstructable.
  for (const BlockHandle& handle : history) {
    EXPECT_TRUE(store.get(handle).is_ok());
  }
}

TEST(BlockStoreTest, PutFromBasisEqualsPlainPut) {
  BlockStore incremental;
  BlockStore plain;
  Rng rng(8);
  Bytes content = rng.bytes(1 << 20);
  BlockHandle basis = incremental.put(content);
  plain.put(content);
  for (int version = 0; version < 10; ++version) {
    std::vector<rsyncx::recon::Region> changed;
    for (int w = 0; w < 3; ++w) {
      const Bytes patch = rng.bytes(200 + rng.next_below(4000));
      const std::size_t at = rng.next_below(content.size() + 2000);
      if (at + patch.size() > content.size()) {
        content.resize(at + patch.size(), 0);
      }
      std::copy(patch.begin(), patch.end(),
                content.begin() + static_cast<std::ptrdiff_t>(at));
      changed.push_back({at, patch.size()});
    }
    const BlockHandle next = incremental.put(content, &basis, changed);
    const BlockHandle reference = plain.put(content);
    EXPECT_EQ(next.chunks, reference.chunks);
    EXPECT_EQ(next.size, reference.size);
    EXPECT_EQ(*incremental.get(next), content);
    basis = next;
  }
  EXPECT_EQ(incremental.unique_bytes(), plain.unique_bytes());
  EXPECT_EQ(incremental.chunk_count(), plain.chunk_count());
}

TEST(BlockStoreTest, VisitRangeStreamsExactBytes) {
  BlockStore store;
  Rng rng(9);
  const Bytes data = rng.bytes(300'000);
  const BlockHandle handle = store.put(data);
  for (const auto& [offset, length] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 300'000},
        {12'345, 40'000},
        {299'990, 100},
        {300'000, 5}}) {
    Bytes seen;
    ASSERT_TRUE(store
                    .visit_range(handle, offset, length,
                                 [&](ByteSpan part) { append(seen, part); })
                    .is_ok());
    const std::uint64_t end = std::min<std::uint64_t>(offset + length, 300'000);
    EXPECT_EQ(seen, Bytes(data.begin() + static_cast<std::ptrdiff_t>(
                                             std::min<std::uint64_t>(offset,
                                                                     end)),
                          data.begin() + static_cast<std::ptrdiff_t>(end)));
  }
}

TEST(BlockStoreTest, ManySmallObjects) {
  BlockStore store;
  Rng rng(7);
  std::vector<std::pair<BlockHandle, Bytes>> objects;
  for (int i = 0; i < 200; ++i) {
    Bytes data = rng.bytes(1 + rng.next_below(5000));
    objects.emplace_back(store.put(data), std::move(data));
  }
  for (const auto& [handle, data] : objects) {
    ASSERT_TRUE(store.get(handle).is_ok());
    EXPECT_EQ(*store.get(handle), data);
  }
  for (const auto& [handle, data] : objects) store.release(handle);
  EXPECT_EQ(store.chunk_count(), 0u);
}

}  // namespace
}  // namespace dcfs
