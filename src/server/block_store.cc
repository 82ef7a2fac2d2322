#include "server/block_store.h"

#include <algorithm>

namespace dcfs {

BlockHandle BlockStore::put(ByteSpan content, const BlockHandle* basis,
                            std::span<const rsyncx::recon::Region> changed) {
  // Boundary scan + chunk hashing are the expensive part; keep them out of
  // the critical section so parallel apply units overlap their CPU work.
  BlockHandle handle;
  handle.size = content.size();
  handle.chunks =
      basis != nullptr
          ? rsyncx::rechunk(content, basis->chunks, changed, chunking_, nullptr)
          : rsyncx::chunk_file(content, chunking_, nullptr);

  const chk::LockGuard<chk::SharedMutex> lock(mu_);
  logical_bytes_ += content.size();
  for (const rsyncx::Chunk& chunk : handle.chunks) {
    const auto [it, inserted] = chunks_.try_emplace(chunk.id);
    if (inserted) {
      it->second.data.assign(
          content.begin() + static_cast<std::ptrdiff_t>(chunk.offset),
          content.begin() +
              static_cast<std::ptrdiff_t>(chunk.offset + chunk.length));
      unique_bytes_ += chunk.length;
    }
    ++it->second.refs;
  }
  return handle;
}

std::shared_ptr<const BlockHandle> BlockStore::put_shared(
    ByteSpan content, const BlockHandle* basis,
    std::span<const rsyncx::recon::Region> changed) {
  auto handle = std::make_unique<BlockHandle>(put(content, basis, changed));
  return {handle.release(), [this](const BlockHandle* released) {
            release(*released);
            delete released;
          }};
}

Result<Bytes> BlockStore::get(const BlockHandle& handle) const {
  Bytes out;
  out.reserve(handle.size);
  const chk::SharedLock lock(mu_);
  for (const rsyncx::Chunk& chunk : handle.chunks) {
    const auto it = chunks_.find(chunk.id);
    if (it == chunks_.end()) {
      return Status{Errc::corruption, "missing chunk"};
    }
    append(out, it->second.data);
  }
  if (out.size() != handle.size) {
    return Status{Errc::corruption, "object size mismatch"};
  }
  return out;
}

Status BlockStore::visit_range(
    const BlockHandle& handle, std::uint64_t offset, std::uint64_t length,
    const std::function<void(ByteSpan)>& sink) const {
  if (offset >= handle.size || length == 0) return Status::ok();
  const std::uint64_t end =
      offset + std::min(length, handle.size - offset);  // clamped, no overflow

  // Chunk offsets are in the handle: seek straight to the first chunk
  // ending past `offset`.
  auto chunk = std::partition_point(
      handle.chunks.begin(), handle.chunks.end(),
      [&](const rsyncx::Chunk& c) { return c.offset + c.length <= offset; });
  const chk::SharedLock lock(mu_);
  for (; chunk != handle.chunks.end() && chunk->offset < end; ++chunk) {
    const auto it = chunks_.find(chunk->id);
    if (it == chunks_.end() || it->second.data.size() != chunk->length) {
      return Status{Errc::corruption, "missing chunk"};
    }
    const std::uint64_t from = std::max(chunk->offset, offset) - chunk->offset;
    const std::uint64_t to =
        std::min(chunk->offset + chunk->length, end) - chunk->offset;
    sink(ByteSpan{it->second.data.data() + from, to - from});
  }
  return Status::ok();
}

void BlockStore::release(const BlockHandle& handle) {
  const chk::LockGuard<chk::SharedMutex> lock(mu_);
  logical_bytes_ -= std::min<std::uint64_t>(logical_bytes_, handle.size);
  for (const rsyncx::Chunk& chunk : handle.chunks) {
    const auto it = chunks_.find(chunk.id);
    if (it == chunks_.end()) continue;  // double release: ignore
    if (--it->second.refs == 0) {
      unique_bytes_ -= it->second.data.size();
      chunks_.erase(it);
    }
  }
}

std::uint64_t BlockStore::unique_bytes() const {
  const chk::SharedLock lock(mu_);
  return unique_bytes_;
}

std::uint64_t BlockStore::logical_bytes() const {
  const chk::SharedLock lock(mu_);
  return logical_bytes_;
}

std::size_t BlockStore::chunk_count() const {
  const chk::SharedLock lock(mu_);
  return chunks_.size();
}

double BlockStore::dedup_ratio() const {
  const chk::SharedLock lock(mu_);
  if (unique_bytes_ == 0) return 1.0;
  return static_cast<double>(logical_bytes_) /
         static_cast<double>(unique_bytes_);
}

}  // namespace dcfs
