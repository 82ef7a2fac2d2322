// Content-defined chunking (the LBFS/Seafile algorithm, §II-A).
//
// Boundaries are picked by a gear rolling hash: a cut happens where
// (hash & mask) == 0, giving an expected chunk size of `average`, clamped
// to [minimum, maximum].  Because boundaries depend on content, an insert
// or delete only disturbs the chunks around the edit — the property that
// lets Seafile skip re-checksumming untouched chunks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/md5.h"
#include "metrics/cost.h"

namespace dcfs::rsyncx {

struct Chunk {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  Md5::Digest id{};  ///< content hash used for deduplication

  friend bool operator==(const Chunk&, const Chunk&) = default;
};

struct CdcParams {
  std::size_t minimum = 256 * 1024;
  std::size_t average = 1024 * 1024;  ///< Seafile's default 1 MB
  std::size_t maximum = 4 * 1024 * 1024;

  static CdcParams seafile() noexcept { return {}; }
  /// Ori-style fine-grained chunking (4 KB average).
  static CdcParams fine() noexcept { return {1024, 4096, 16384}; }
};

/// Clamps params into a shape the chunkers can honor:
///   minimum >= 1, maximum >= minimum, minimum <= average <= maximum.
/// Applied internally by chunk_boundaries/chunk_cdc, so arbitrary
/// (e.g. recursively halved) parameter sets are safe to pass directly.
[[nodiscard]] CdcParams normalized(const CdcParams& params) noexcept;

// Boundary-cut invariants (hold for any input and any params after
// normalization — the recursive reconciliation planner depends on them
// to terminate):
//   1. Exact tiling: chunks cover [0, data.size()) contiguously, in
//      order, with no gaps or overlap; empty input yields no chunks.
//   2. Every chunk length is in [1, maximum]; every chunk except
//      possibly the last is >= minimum.  In particular an input shorter
//      than `minimum` yields exactly one chunk (the whole input).
//   3. Cuts are deterministic functions of content: the same bytes with
//      the same params always produce the same boundaries.
//   4. Degenerate content (e.g. all-zero pages, where the gear hash
//      never satisfies the mask) still cuts: the `maximum` clamp forces
//      a boundary every `maximum` bytes, so chunk count is always
//      >= ceil(size / maximum) and the scan cannot produce an unbounded
//      chunk.

/// Splits `data` into content-defined chunks and hashes each.
/// Charges cdc_scan per byte scanned and strong_hash per byte hashed.
std::vector<Chunk> chunk_cdc(ByteSpan data, const CdcParams& params,
                             CostMeter* meter);

/// Splits without hashing (boundary detection only).
std::vector<Chunk> chunk_boundaries(ByteSpan data, const CdcParams& params,
                                    CostMeter* meter);

/// The cut mask for a given (normalized) average: log2(average) low bits
/// set; a boundary falls where (gear_hash & mask) == 0.  Exposed so
/// streaming scanners (rsyncx/recon.h) cut at exactly the same places as
/// chunk_boundaries.
[[nodiscard]] std::uint64_t boundary_mask(std::size_t average) noexcept;

}  // namespace dcfs::rsyncx
