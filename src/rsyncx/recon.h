// Recursive multi-round reconciliation (rsyncx::recon).
//
// The classic rsync exchange is one-shot: the receiver ships a signature of
// the *entire* base (O(filesize / block) bytes) and gets a delta back.  On a
// multi-GB file with one dirty region, that signature dominates the wire.
// Following RCDS ("Scalable String Reconciliation by Recursive
// Content-Dependent Shingling"), this module narrows the dirty region first:
//
//   round 0   exchange coarse content-defined shingle hashes (gear CDC with
//             a large average chunk size — a few hundred hashes even for a
//             huge file);
//   round r   spans whose shingles did not match are re-shingled with the
//             average shrunk by `fanout`, recursively;
//   final     once a span is narrow enough, a classic block signature is
//             fetched for it alone and rsyncx::compute_delta runs inside the
//             narrowed window.
//
// Traffic becomes proportional to the *changed* region plus a few coarse
// hashes per round, at the cost of one RTT per round.  The Planner below is
// pure (no transport, no protocol): it consumes answers and produces the
// next query, so unit tests drive it against a local oracle and the client
// drives it across the wire.  Termination rests on the chunk_cdc boundary
// invariants documented in rsyncx/cdc.h.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/md5.h"
#include "metrics/cost.h"
#include "rsyncx/cdc.h"
#include "rsyncx/delta.h"

namespace dcfs::rsyncx {

/// Sanctioned CDC entry point for code outside src/rsyncx.  Normalizes the
/// params first so arbitrary (recursively derived) parameter sets are safe;
/// tools/dcfs_lint.py rejects direct chunk_cdc calls elsewhere so every
/// chunking decision flows through one place.
inline std::vector<Chunk> chunk_file(ByteSpan data, const CdcParams& params,
                                     CostMeter* meter) {
  return chunk_cdc(data, normalized(params), meter);
}

namespace recon {

/// Half-open byte range [offset, offset + length) of the *base* file.
struct Region {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::uint64_t end() const noexcept { return offset + length; }
  friend bool operator==(const Region&, const Region&) = default;
};

/// One coarse chunk: where it sits, how long it is, and a 64-bit content
/// hash (low half of the chunk's MD5).  A match requires equal hash AND
/// equal length — the length check is a free second collision guard.
struct Shingle {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t hash = 0;
};

/// Block signature of one narrowed base region (strong column included:
/// the base is remote, so candidates cannot be confirmed bitwise).
struct RegionSignature {
  Region region;
  Signature signature;  ///< file_size == region.length, offsets region-local
};

/// Tuning for the recursive descent.  Averages shrink by `fanout` each
/// round until `min_average`, below which spans go final (block
/// signatures).  Every derived CdcParams set is normalized, so any
/// combination of knobs terminates.
struct ReconParams {
  std::size_t coarse_average = 1024 * 1024;  ///< round-0 chunk size
  std::size_t fanout = 16;                   ///< per-round shrink factor
  std::size_t min_average = 16 * 1024;       ///< finest shingle level
  std::uint32_t block_size = kDefaultBlockSize;  ///< final-delta blocks
  std::uint32_t max_rounds = 6;              ///< hard depth cap

  /// CDC params for a given average: [average/4, average, average*4],
  /// normalized.  Tight min/max keep shingle lengths predictable so the
  /// gap-narrowing actually converges.
  [[nodiscard]] CdcParams level(std::size_t average) const noexcept {
    return normalized({average / 4, average, average * 4});
  }
};

/// Low 64 bits of an MD5 digest — the shingle hash.
[[nodiscard]] std::uint64_t shingle_hash(const Md5::Digest& digest) noexcept;

/// Streaming shingle producer: feed() the region's bytes in any pieces,
/// finish() returns the shingles with *absolute* offsets
/// (base_offset + region-local position).  Bounded memory: one MD5 state,
/// no chunk buffering — which is what lets the server answer from
/// BlockStore-backed history without materializing a full version.
/// Charges cdc_scan + strong_hash per byte.
class ShingleScanner {
 public:
  ShingleScanner(std::uint64_t base_offset, const CdcParams& params,
                 CostMeter* meter);

  void feed(ByteSpan data);
  [[nodiscard]] std::vector<Shingle> finish();

 private:
  void cut();

  CdcParams params_;
  std::uint64_t mask_ = 0;
  std::uint64_t chunk_start_ = 0;  ///< absolute offset of current chunk
  std::uint64_t chunk_length_ = 0;
  std::uint64_t hash_ = 0;
  Md5 md5_;
  CostMeter* meter_ = nullptr;
  std::vector<Shingle> shingles_;
};

/// Streaming block-signature producer for one region: same contract as
/// compute_signature(region bytes, block_size, /*with_strong=*/true) but
/// incremental, so the server can stream BlockStore chunks through it.
/// Charges rolling_hash + strong_hash per byte.
class SignatureScanner {
 public:
  SignatureScanner(std::uint32_t block_size, CostMeter* meter);

  void feed(ByteSpan data);
  [[nodiscard]] Signature finish();

 private:
  void seal_block();

  std::uint32_t block_size_ = kDefaultBlockSize;
  std::uint32_t block_fill_ = 0;
  std::uint32_t weak_a_ = 0;  ///< incremental rsync weak checksum
  std::uint32_t weak_b_ = 0;
  Md5 md5_;
  CostMeter* meter_ = nullptr;
  Signature signature_;
};

/// Client-side state machine for one file's reconciliation.
///
///   Planner p(target, params, meter, mode);
///   while (auto q = p.next_query()) {
///     // ship *q, get the server's answer for exactly those regions:
///     if (q->want_signatures) p.on_signatures(sigs);
///     else                    p.on_shingles(base_size, shingles);
///   }
///   Delta d = p.take_delta();   // against the server's base, absolute
///
/// Mode::classic is the one-round reference: a single whole-file signature
/// query followed by a plain compute_delta — byte-traffic-wise identical to
/// what a signature-download rsync would do, and the equivalence baseline
/// the recursive mode is measured against.
class Planner {
 public:
  enum class Mode : std::uint8_t { classic, recursive };

  struct Query {
    bool want_signatures = false;
    CdcParams cdc;                 ///< shingle level (when !want_signatures)
    std::uint32_t block_size = 0;  ///< when want_signatures
    /// Base regions to scan; empty means "the whole file" (round 0, when
    /// the base size is not yet known on this side).
    std::vector<Region> regions;
  };

  Planner(ByteSpan target, const ReconParams& params, CostMeter* meter,
          Mode mode = Mode::recursive);

  /// Next round's query, or nullopt once planning is complete.
  [[nodiscard]] std::optional<Query> next_query();

  /// Answer to a shingle query: the server's base size plus the shingles
  /// of every requested region, concatenated in region order (absolute
  /// offsets).  Unmatched spans spawn finer pending regions or go final.
  void on_shingles(std::uint64_t base_size,
                   std::span<const Shingle> shingles);

  /// Answer to a signature query: one RegionSignature per requested
  /// region, in order.  Runs compute_delta inside each narrowed window.
  void on_signatures(std::span<const RegionSignature> sigs);

  [[nodiscard]] bool done() const noexcept;
  [[nodiscard]] std::uint32_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t base_size() const noexcept { return base_size_; }

  /// The assembled delta (absolute base offsets).  Valid once done().
  [[nodiscard]] Delta take_delta();

 private:
  struct Piece {
    enum class Kind : std::uint8_t {
      copy,      ///< target span == base span, verbatim
      literal,   ///< target span has no base counterpart
      pending,   ///< needs finer shingles of [base_offset, +base_length)
      final,     ///< needs a block signature of [base_offset, +base_length)
      resolved,  ///< delta commands computed for this span
    };
    Kind kind = Kind::literal;
    std::uint64_t target_offset = 0;
    std::uint64_t target_length = 0;
    std::uint64_t base_offset = 0;
    std::uint64_t base_length = 0;
    std::vector<Command> commands;  ///< resolved only (absolute offsets)
  };

  /// Splits a pending piece against its base shingles; appends the
  /// replacement pieces (copy/literal/pending/final) to `out`.
  void match_piece(const Piece& piece, std::span<const Shingle> base,
                   std::size_t next_average, std::vector<Piece>& out);
  void classify_gap(std::uint64_t target_offset, std::uint64_t target_length,
                    std::uint64_t base_offset, std::uint64_t base_length,
                    std::size_t next_average, std::vector<Piece>& out);

  ByteSpan target_;
  ReconParams params_;
  CostMeter* meter_ = nullptr;
  Mode mode_ = Mode::recursive;
  std::vector<Piece> pieces_;
  std::size_t average_ = 0;      ///< current shingle level
  std::uint64_t base_size_ = 0;
  bool base_size_known_ = false;
  std::uint32_t rounds_ = 0;
  bool started_ = false;

  enum class Outstanding : std::uint8_t { none, shingles, signatures };
  Outstanding outstanding_ = Outstanding::none;
};

}  // namespace recon

/// chunk_file for a new version of data already chunked: `previous` is the
/// chunking of an earlier version (same params) that matches `data` on
/// every byte outside `changed`; bytes past either version's end count as
/// changed without being listed.  Returns exactly chunk_file(data, params),
/// ids included, but scans and hashes only from the cut before each changed
/// range until a new cut lands on a cut of `previous` again — every other
/// chunk is reused with its id.  Charges cdc_scan and strong_hash for the
/// bytes actually scanned and hashed.
std::vector<Chunk> rechunk(ByteSpan data, std::span<const Chunk> previous,
                           std::span<const recon::Region> changed,
                           const CdcParams& params, CostMeter* meter);

}  // namespace dcfs::rsyncx
