// Parallel versions of the hot rsyncx kernels, built on WorkerPool.
//
// Every function is a drop-in for its serial counterpart in rsyncx/delta.h:
// same output bytes and the same CostMeter totals at any thread count.  A
// null pool (or parallelism 1, or an input below the parallel threshold)
// falls through to the serial kernel, so `threads=1` is exactly the
// pre-existing code path.
//
// Delta parallelism shards the *target* into regions of kRegionBlocks
// blocks.  Each region is scanned speculatively against the shared weak
// index; a sequential stitch then splices the region deltas, re-running a
// region only when a match in its predecessor jumped past the region's
// assumed start.  Region boundaries depend only on the target size and
// block size — never on the worker count — which is what keeps the output
// deterministic (see docs/PERFORMANCE.md for the equivalence argument).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "metrics/cost.h"
#include "par/worker_pool.h"
#include "rsyncx/delta.h"

namespace dcfs::par {

/// Blocks per speculative delta region.  Fixed: changing it changes where
/// stitch boundaries fall (still equivalent, but re-scan rates shift).
inline constexpr std::size_t kRegionBlocks = 64;
/// Targets smaller than this many blocks are not worth sharding.
inline constexpr std::size_t kMinParallelBlocks = 4 * kRegionBlocks;
/// Blocks per claim when parallelising signature / checksum-store sweeps.
inline constexpr std::size_t kSignatureGrainBlocks = 64;

/// Parallel rsyncx::compute_signature: base blocks are checksummed across
/// the pool.  Charges are identical to serial (one rolling-hash charge over
/// the base, plus one strong-hash charge when `with_strong`).
rsyncx::Signature compute_signature(WorkerPool* pool, ByteSpan base,
                                    std::uint32_t block_size, bool with_strong,
                                    CostMeter* meter);

/// Parallel rsyncx::compute_delta (remote mode, MD5 confirmation).
rsyncx::Delta compute_delta(WorkerPool* pool,
                            const rsyncx::Signature& base_signature,
                            ByteSpan target, CostMeter* meter);

/// Parallel rsyncx::compute_delta_local (weak-only signature + bitwise
/// confirmation), signature computed here.
rsyncx::Delta compute_delta_local(WorkerPool* pool, ByteSpan base,
                                  ByteSpan target, std::uint32_t block_size,
                                  CostMeter* meter);

/// Parallel local-mode delta with the base signature already in hand.
rsyncx::Delta compute_delta_local(WorkerPool* pool,
                                  const rsyncx::Signature& base_signature,
                                  ByteSpan base, ByteSpan target,
                                  CostMeter* meter);

}  // namespace dcfs::par
