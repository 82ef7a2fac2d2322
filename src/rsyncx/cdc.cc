#include "rsyncx/cdc.h"

#include <algorithm>
#include <bit>

#include "common/checksum.h"
#include "rsyncx/recon.h"

namespace dcfs::rsyncx {
namespace {

/// Mask with log2(average) low bits set; boundary when (hash & mask) == 0.
std::uint64_t mask_for_average(std::size_t average) noexcept {
  const unsigned bits = average <= 1
                            ? 1
                            : static_cast<unsigned>(std::bit_width(average) - 1);
  return (std::uint64_t{1} << bits) - 1;
}

/// End of the chunk that starts at `start` (a cut, with the gear hash
/// reset): the first position where the hash of the bytes since `start`
/// meets the mask once the chunk is `minimum` long, clamped to `maximum`
/// and to the end of `data`.  Depends only on data[start, end).
std::size_t chunk_end(ByteSpan data, std::size_t start,
                      const CdcParams& params, std::uint64_t mask) noexcept {
  const std::size_t limit =
      start + std::min(params.maximum, data.size() - start);
  std::uint64_t hash = 0;
  for (std::size_t pos = start; pos < limit; ++pos) {
    hash = gear_step(hash, data[pos]);
    if (pos - start + 1 >= params.minimum && (hash & mask) == 0) {
      return pos + 1;
    }
  }
  return limit;
}

/// Sorted, disjoint, non-empty copy of `ranges`.
std::vector<recon::Region> coalesced(std::span<const recon::Region> ranges) {
  std::vector<recon::Region> sorted;
  for (const recon::Region& r : ranges) {
    if (r.length > 0) sorted.push_back(r);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const recon::Region& a, const recon::Region& b) {
              return a.offset < b.offset;
            });
  std::vector<recon::Region> out;
  for (const recon::Region& r : sorted) {
    if (!out.empty() && r.offset <= out.back().end()) {
      out.back().length =
          std::max(out.back().end(), r.end()) - out.back().offset;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

std::uint64_t boundary_mask(std::size_t average) noexcept {
  return mask_for_average(average);
}

CdcParams normalized(const CdcParams& raw) noexcept {
  CdcParams p = raw;
  if (p.minimum < 1) p.minimum = 1;
  if (p.maximum < p.minimum) p.maximum = p.minimum;
  if (p.average < p.minimum) p.average = p.minimum;
  if (p.average > p.maximum) p.average = p.maximum;
  return p;
}

std::vector<Chunk> chunk_boundaries(ByteSpan data, const CdcParams& raw,
                                    CostMeter* meter) {
  std::vector<Chunk> chunks;
  if (data.empty()) return chunks;
  if (meter != nullptr) meter->charge(CostKind::cdc_scan, data.size());

  const CdcParams params = normalized(raw);
  const std::uint64_t mask = mask_for_average(params.average);
  for (std::size_t start = 0; start < data.size();) {
    const std::size_t end = chunk_end(data, start, params, mask);
    chunks.push_back({start, end - start, {}});
    start = end;
  }
  return chunks;
}

std::vector<Chunk> chunk_cdc(ByteSpan data, const CdcParams& params,
                             CostMeter* meter) {
  std::vector<Chunk> chunks = chunk_boundaries(data, params, meter);
  for (Chunk& chunk : chunks) {
    if (meter != nullptr) meter->charge(CostKind::strong_hash, chunk.length);
    chunk.id = Md5::hash(data.subspan(chunk.offset, chunk.length));
  }
  return chunks;
}

std::vector<Chunk> rechunk(ByteSpan data, std::span<const Chunk> previous,
                           std::span<const recon::Region> changed,
                           const CdcParams& raw, CostMeter* meter) {
  const CdcParams params = normalized(raw);
  const std::uint64_t mask = mask_for_average(params.average);
  const std::uint64_t previous_size =
      previous.empty() ? 0 : previous.back().offset + previous.back().length;
  // Bytes at or past the shorter version's end count as changed.
  const std::uint64_t common =
      std::min<std::uint64_t>(data.size(), previous_size);
  const std::vector<recon::Region> dirty = coalesced(changed);
  std::size_t next_dirty = 0;  // first dirty range ending past the scan

  // A previous chunk can be kept when the scan stands at its start (a cut
  // in both versions) and none of its bytes changed: the cut that ended it
  // depends only on those bytes.  The last chunk ended at the old data's
  // end, not necessarily at a cut, so it is kept only where the new data
  // ends at the same place.
  const auto reusable = [&](const Chunk& chunk) {
    const std::uint64_t end = chunk.offset + chunk.length;
    if (end > common) return false;
    if (end == previous_size && data.size() != previous_size) return false;
    while (next_dirty < dirty.size() &&
           dirty[next_dirty].end() <= chunk.offset) {
      ++next_dirty;
    }
    return next_dirty == dirty.size() || dirty[next_dirty].offset >= end;
  };

  std::vector<Chunk> chunks;
  chunks.reserve(previous.size() + 4);
  std::size_t p = 0;  // first previous chunk not starting before `pos`
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (p < previous.size() && previous[p].offset == pos &&
        reusable(previous[p])) {
      chunks.push_back(previous[p]);
      pos += previous[p].length;
      ++p;
      continue;
    }
    const std::size_t end = chunk_end(data, pos, params, mask);
    const ByteSpan bytes = data.subspan(pos, end - pos);
    if (meter != nullptr) {
      meter->charge(CostKind::cdc_scan, bytes.size());
      meter->charge(CostKind::strong_hash, bytes.size());
    }
    chunks.push_back({pos, bytes.size(), Md5::hash(bytes)});
    pos = end;
    while (p < previous.size() && previous[p].offset < pos) ++p;
  }
  return chunks;
}

}  // namespace dcfs::rsyncx
