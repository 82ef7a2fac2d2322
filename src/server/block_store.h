// Content-addressed block storage for the cloud side.
//
// The paper's future work sketches the server-side design: "it becomes
// possible to use wimpy servers (e.g., Intel Atom Processor) attached with
// large numbers of disks to provide cloud data sync services."  For that,
// storage cost must scale with *unique* data, not logical data: a file's
// recent versions (kept for delta bases and conflict copies, §III-C) are
// nearly identical, so storing them as content-defined chunks dedups the
// history almost entirely.
//
// The store keeps refcounted CDC chunks; `put` returns a handle (chunk id
// list), `release` decrements refcounts and garbage-collects chunks that
// reach zero.  `put_shared` wraps the handle in a shared_ptr whose deleter
// releases the chunks, so copies of server-side entries (group staging,
// tombstone revival, rename history splices) share one store reference and
// GC exactly once.
//
// This is the CloudServer's history storage engine, so the map mutations
// are guarded by a reader/writer lock (a lockdep-tracked chk::SharedMutex):
// parallel apply units put/release under the exclusive side while reads
// and accounting share.  Chunk scanning and hashing — the CPU-heavy part —
// run outside the lock.  All operations are commutative (refcount
// adds/subtracts of content-addressed chunks), so the final store state is
// independent of interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "chk/annotations.h"
#include "chk/lockdep.h"
#include "common/bytes.h"
#include "common/md5.h"
#include "common/status.h"
#include "rsyncx/recon.h"

namespace dcfs {

/// A stored object: its chunks in order.  Offsets and lengths ride along
/// so a later version can be re-chunked from this one (put's `basis`).
struct BlockHandle {
  std::vector<rsyncx::Chunk> chunks;
  std::uint64_t size = 0;

  [[nodiscard]] bool empty() const noexcept { return size == 0; }
};

class BlockStore {
 public:
  explicit BlockStore(rsyncx::CdcParams chunking = rsyncx::CdcParams::fine())
      : chunking_(chunking) {}

  /// Stores `content`, deduplicating against everything already stored.
  /// Chunks shared with existing objects only gain a reference.
  /// `basis`, when given, is a live handle whose object matches `content`
  /// on every byte outside `changed` (bytes past either end count as
  /// changed): only the changed ranges are re-chunked and hashed
  /// (rsyncx::rechunk), and the handle equals the one a plain put returns.
  BlockHandle put(ByteSpan content, const BlockHandle* basis = nullptr,
                  std::span<const rsyncx::recon::Region> changed = {})
      DCFS_EXCLUDES(mu_);

  /// `put` wrapped so the store reference follows the handle's lifetime:
  /// the last copy of the returned pointer releases the chunks.  The store
  /// must outlive every handle.
  [[nodiscard]] std::shared_ptr<const BlockHandle> put_shared(
      ByteSpan content, const BlockHandle* basis = nullptr,
      std::span<const rsyncx::recon::Region> changed = {});

  /// Reassembles an object.  Fails with corruption if a chunk is missing
  /// (a release/GC bug or an invalid handle).
  [[nodiscard]] Result<Bytes> get(const BlockHandle& handle) const
      DCFS_EXCLUDES(mu_);

  /// Streams the bytes of `handle` overlapping [offset, offset + length)
  /// through `sink`, in order, one stored chunk (or chunk suffix/prefix) at
  /// a time — the object is never materialized, so visiting a narrow
  /// region of a huge version costs O(chunk size) memory.  Recon queries
  /// answer from history through this.  Fails with corruption if a chunk
  /// is missing; a range beyond the object's size is clamped.
  [[nodiscard]] Status visit_range(
      const BlockHandle& handle, std::uint64_t offset, std::uint64_t length,
      const std::function<void(ByteSpan)>& sink) const DCFS_EXCLUDES(mu_);

  /// Releases one reference on each of the handle's chunks; chunks that
  /// reach zero references are reclaimed.
  void release(const BlockHandle& handle) DCFS_EXCLUDES(mu_);

  // ---- accounting ----

  /// Bytes of unique chunk data currently held.
  [[nodiscard]] std::uint64_t unique_bytes() const DCFS_EXCLUDES(mu_);
  /// Logical bytes across all live handles (sum of put sizes minus
  /// releases).
  [[nodiscard]] std::uint64_t logical_bytes() const DCFS_EXCLUDES(mu_);
  [[nodiscard]] std::size_t chunk_count() const DCFS_EXCLUDES(mu_);
  /// logical / unique — 1.0 means no sharing, higher means dedup wins.
  [[nodiscard]] double dedup_ratio() const DCFS_EXCLUDES(mu_);

 private:
  struct Chunk {
    Bytes data;
    std::uint64_t refs = 0;
  };

  rsyncx::CdcParams chunking_;
  /// Guards chunks_ and the byte counters: put/release take it exclusive,
  /// get() and the accounting getters share it, so parallel apply units
  /// can reassemble objects concurrently.
  mutable chk::SharedMutex mu_{"server.block_store"};
  std::map<Md5::Digest, Chunk> chunks_ DCFS_GUARDED_BY(mu_);
  std::uint64_t unique_bytes_ DCFS_GUARDED_BY(mu_) = 0;
  std::uint64_t logical_bytes_ DCFS_GUARDED_BY(mu_) = 0;
};

}  // namespace dcfs
