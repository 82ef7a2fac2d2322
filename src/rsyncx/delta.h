// Delta encoding (rsync) — signature, delta computation, patch.
//
// Two matching modes, mirroring the paper:
//  - remote (classic rsync / librsync): candidate blocks found by the weak
//    rolling checksum are confirmed with a *strong* MD5 checksum, because
//    the base file lives on another machine;
//  - local (DeltaCFS's librsync modification, §III-A): both versions are
//    local, so candidates are confirmed by direct *bitwise comparison* and
//    no strong checksums are ever computed.
// Every byte processed is charged to an optional CostMeter, which is how
// Table II's CPU numbers are produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/md5.h"
#include "common/status.h"
#include "metrics/cost.h"

namespace dcfs::rsyncx {

inline constexpr std::uint32_t kDefaultBlockSize = 4096;  // librsync default

/// Per-file signature, stored column-wise: one weak checksum per block and —
/// only in remote mode — one strong digest per block.  Local mode carries no
/// strong column at all (`strong` stays empty), so a weak-only signature
/// neither allocates nor accounts for MD5 bytes anywhere.
/// Block lengths are derived from file_size: every block is `block_size`
/// long except a possibly short final one.
struct Signature {
  std::uint32_t block_size = kDefaultBlockSize;
  std::uint64_t file_size = 0;
  bool has_strong = true;
  std::vector<std::uint32_t> weak;   ///< one per block
  std::vector<Md5::Digest> strong;   ///< one per block, empty in local mode

  [[nodiscard]] std::size_t block_count() const noexcept {
    return weak.size();
  }

  [[nodiscard]] std::uint32_t block_length(std::size_t block) const noexcept {
    const std::uint64_t offset =
        static_cast<std::uint64_t>(block) * block_size;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(block_size, file_size - offset));
  }

  /// Bytes this signature would occupy on the wire (weak 4B + strong 16B
  /// when present, per block, plus a small header).
  [[nodiscard]] std::uint64_t wire_size() const noexcept {
    return 16 + weak.size() * (has_strong ? 20u : 4u);
  }
};

/// One delta instruction: copy a base range or insert literal bytes.
struct Command {
  enum class Kind : std::uint8_t { copy, literal };
  Kind kind = Kind::literal;
  std::uint64_t src_offset = 0;  // copy
  std::uint64_t length = 0;      // copy
  Bytes data;                    // literal
};

struct Delta {
  std::uint64_t base_size = 0;
  std::uint64_t target_size = 0;
  std::vector<Command> commands;

  [[nodiscard]] std::uint64_t literal_bytes() const noexcept;
  [[nodiscard]] std::uint64_t copied_bytes() const noexcept;
  /// Serialized size (what crosses the network).
  [[nodiscard]] std::uint64_t wire_size() const noexcept;
};

/// Computes a block signature of `base`.
/// With `with_strong` false (local mode) MD5 is skipped entirely.
Signature compute_signature(ByteSpan base, std::uint32_t block_size,
                            bool with_strong, CostMeter* meter);

/// Classic rsync: matches `target` against a remote base's signature.
/// Charges rolling-hash per byte and strong-hash per candidate confirmation.
Delta compute_delta(const Signature& base_signature, ByteSpan target,
                    CostMeter* meter);

/// DeltaCFS local mode: both versions in hand; weak-only signature plus
/// bitwise confirmation against the actual base bytes.
Delta compute_delta_local(ByteSpan base, ByteSpan target,
                          std::uint32_t block_size, CostMeter* meter);

/// Local mode with the base's (weak) signature already in hand; only the
/// matching pass is charged.
Delta compute_delta_local(const Signature& base_signature, ByteSpan base,
                          ByteSpan target, CostMeter* meter);

/// Reconstructs the target from `base` + `delta`.
/// Fails with corruption if a copy range exceeds the base.
Result<Bytes> apply_delta(ByteSpan base, const Delta& delta);

/// Wire serialization of a delta.
Bytes encode_delta(const Delta& delta);
Result<Delta> decode_delta(ByteSpan wire);

}  // namespace dcfs::rsyncx
