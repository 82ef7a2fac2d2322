// Block-matching core shared by the serial kernels (delta.cc) and the
// parallel kernels (par/parallel_delta.cc).
//
// The confirm callback is a template parameter (not std::function): it sits
// in the innermost loop, and both confirm flavours (MD5 for remote mode,
// memcmp for local mode) are small enough to inline.  Confirm receives the
// CostMeter to charge explicitly so region scans can charge a region-local
// meter while the serial path charges the caller's meter directly.
//
// scan_blocks() generalizes the original match_blocks loop to a half-open
// region of match-start positions [start, limit).  The serial matcher is
// scan_blocks over the whole target; the parallel matcher runs one
// scan_blocks per region speculatively and stitches the results (see
// par/parallel_delta.cc for the exact splice/recompute rules that make the
// stitched output and charges identical to one serial scan).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "rsyncx/delta.h"

namespace dcfs::rsyncx::detail {

inline void charge(CostMeter* meter, CostKind kind, std::uint64_t bytes) {
  if (meter != nullptr) meter->charge(kind, bytes);
}

/// Appends a copy command, merging with a preceding contiguous copy.
inline void emit_copy(Delta& delta, std::uint64_t src_offset,
                      std::uint64_t length) {
  if (!delta.commands.empty()) {
    Command& last = delta.commands.back();
    if (last.kind == Command::Kind::copy &&
        last.src_offset + last.length == src_offset) {
      last.length += length;
      return;
    }
  }
  Command cmd;
  cmd.kind = Command::Kind::copy;
  cmd.src_offset = src_offset;
  cmd.length = length;
  delta.commands.push_back(std::move(cmd));
}

inline void emit_literal(Delta& delta, ByteSpan bytes) {
  if (bytes.empty()) return;
  if (!delta.commands.empty() &&
      delta.commands.back().kind == Command::Kind::literal) {
    append(delta.commands.back().data, bytes);
    return;
  }
  Command cmd;
  cmd.kind = Command::Kind::literal;
  cmd.data.reserve(bytes.size());
  cmd.data.assign(bytes.begin(), bytes.end());
  delta.commands.push_back(std::move(cmd));
}

/// Re-emits a region-local command into `delta`, applying the same
/// copy/literal merge rules as emit_copy/emit_literal (the stitch step of
/// the parallel matcher).  Literal payloads are moved when possible.
inline void splice_command(Delta& delta, Command&& cmd) {
  if (cmd.kind == Command::Kind::copy) {
    emit_copy(delta, cmd.src_offset, cmd.length);
    return;
  }
  if (cmd.data.empty()) return;
  if (!delta.commands.empty() &&
      delta.commands.back().kind == Command::Kind::literal) {
    append(delta.commands.back().data, cmd.data);
    return;
  }
  delta.commands.push_back(std::move(cmd));
}

/// Weak-checksum index over a signature's full-sized blocks; the short tail
/// block (if any) is kept aside for the end-of-target match.  Built once and
/// shared read-only by every region scan.
///
/// Most rolled positions match no block, so a lookup first tests one bit of
/// an 8 KiB filter (it stays in L1) keyed on the digest's two halves folded
/// together.  Only a set bit goes on to the flat entry array, sorted by weak
/// value, through a directory with at least one bucket per entry keyed on
/// the weak value's top bits: a bucket is a contiguous run of the array, so
/// a lookup costs two directory loads and a search of one short run at any
/// base size.  Entries with equal weak values are kept in descending block order
/// (newest first): the greedy scan takes the first candidate that confirms,
/// so this order decides which of several identical base blocks a copy
/// names, and with it the delta's bytes.
class WeakIndex {
 public:
  struct Entry {
    std::uint32_t weak;
    std::uint32_t block;
  };

  static WeakIndex build(const Signature& signature) {
    WeakIndex index;
    index.entries_.reserve(signature.block_count());
    for (std::uint32_t block = 0; block < signature.block_count(); ++block) {
      if (signature.block_length(block) == signature.block_size) {
        index.entries_.push_back({signature.weak[block], block});
        const std::uint32_t key = filter_key(signature.weak[block]);
        index.filter_[key / 64] |= std::uint64_t{1} << (key % 64);
      } else {
        index.tail = block;
      }
    }
    std::sort(index.entries_.begin(), index.entries_.end(),
              [](const Entry& x, const Entry& y) {
                return x.weak != y.weak ? x.weak < y.weak : x.block > y.block;
              });
    // At least one bucket per entry (2^bits > entries).
    const int bits = std::clamp<int>(
        static_cast<int>(std::bit_width(index.entries_.size())), 1, 24);
    index.shift_ = 32 - bits;
    index.buckets_.assign((std::size_t{1} << bits) + 1, 0);
    for (const Entry& entry : index.entries_) {
      ++index.buckets_[(entry.weak >> index.shift_) + 1];
    }
    for (std::size_t b = 1; b < index.buckets_.size(); ++b) {
      index.buckets_[b] += index.buckets_[b - 1];
    }
    return index;
  }

  /// False when no block has weak value `weak`; true may be a false hit.
  [[nodiscard]] bool may_contain(std::uint32_t weak) const noexcept {
    const std::uint32_t key = filter_key(weak);
    return ((filter_[key / 64] >> (key % 64)) & 1) != 0;
  }

  /// The blocks whose weak value is `weak`, newest first.
  [[nodiscard]] std::span<const Entry> candidates(
      std::uint32_t weak) const noexcept {
    if (!may_contain(weak)) return {};
    const std::uint32_t bucket = weak >> shift_;
    const Entry* const run_end = entries_.data() + buckets_[bucket + 1];
    const Entry* const first = std::lower_bound(
        entries_.data() + buckets_[bucket], run_end, weak,
        [](const Entry& entry, std::uint32_t w) { return entry.weak < w; });
    const Entry* last = first;
    while (last != run_end && last->weak == weak) ++last;
    return {first, last};
  }

  std::optional<std::uint32_t> tail;  ///< index of the short final block

 private:
  static std::uint32_t filter_key(std::uint32_t weak) noexcept {
    return (weak ^ (weak >> 16)) & 0xFFFF;
  }

  std::vector<Entry> entries_;  ///< sorted by weak, then block descending
  /// Bucket b (weak >> shift_ == b) is entries_[buckets_[b], buckets_[b+1]).
  std::vector<std::uint32_t> buckets_;
  int shift_ = 31;
  std::array<std::uint64_t, 1024> filter_{};  ///< 2^16 bits
};

/// How a region scan handed control to its successor.
enum class RegionExit : std::uint8_t {
  jump,    ///< a match jumped to exit_pos (>= limit); successor starts with
           ///< a fresh window whose reset charge serial would also pay
  rolled,  ///< the scan rolled up to exit_pos == limit; the window digest at
           ///< limit was already paid for byte-by-byte, so the successor's
           ///< fresh-reset charge must be dropped at stitch time
  end,     ///< the scan reached the end of the target (last region only)
};

struct RegionScanResult {
  Delta delta;  ///< commands covering [start, exit_pos), region-local
  std::uint64_t exit_pos = 0;
  RegionExit exit = RegionExit::end;
};

inline constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

/// Greedy rsync scan over match-start positions [start, limit) of `target`.
///
/// Preconditions: target.size() >= 1; `limit == kNoLimit` for the last
/// region (the scan then runs to the end of the target and applies the
/// short-tail match).  `entry_meter` receives only the initial window reset
/// charge; `meter` receives everything else.  The serial matcher passes the
/// same meter for both.
///
/// Confirm is `bool(std::uint32_t block, ByteSpan window, CostMeter*)`.
template <typename Confirm>
RegionScanResult scan_blocks(const Signature& signature, ByteSpan target,
                             const WeakIndex& index, std::size_t start,
                             std::size_t limit, CostMeter* entry_meter,
                             CostMeter* meter, Confirm&& confirm) {
  const std::uint32_t block_size = signature.block_size;
  const bool is_last = limit == kNoLimit;
  RegionScanResult result;

  std::size_t pos = start;
  std::size_t literal_start = start;
  RollingChecksum rolling;
  if (pos + block_size <= target.size()) {
    rolling.reset(target.subspan(pos, block_size));
    charge(entry_meter, CostKind::rolling_hash, block_size);
  }

  // Each one-byte roll costs charge(rolling_hash, 1); the rolls are counted
  // here and charged once on the way out.
  std::uint64_t rolls = 0;
  const auto settle_rolls = [&] {
    if (meter != nullptr) {
      meter->charge_repeated(CostKind::rolling_hash, 1, rolls);
    }
  };

  // Positions below `fast_end` have a next byte inside the target and lie
  // before the region boundary, so a position the filter rejects just rolls.
  const std::size_t last_start =
      target.size() >= block_size ? target.size() - block_size : 0;
  const std::size_t fast_end = is_last ? last_start
                                       : std::min(last_start, limit);

  while (pos + block_size <= target.size()) {
    while (pos < fast_end && !index.may_contain(rolling.digest())) {
      rolling.roll(target[pos], target[pos + block_size]);
      ++rolls;
      ++pos;
    }
    if (!is_last && pos >= limit) {
      // Rolled across the region boundary: the successor region owns
      // everything from `limit` on.
      result.exit = RegionExit::rolled;
      result.exit_pos = pos;
      emit_literal(result.delta, target.subspan(literal_start,
                                                pos - literal_start));
      settle_rolls();
      return result;
    }
    const std::uint32_t weak = rolling.digest();
    std::uint32_t matched = 0;
    bool found = false;
    for (const WeakIndex::Entry& entry : index.candidates(weak)) {
      if (confirm(entry.block, target.subspan(pos, block_size), meter)) {
        matched = entry.block;
        found = true;
        break;
      }
    }

    if (found) {
      emit_literal(result.delta,
                   target.subspan(literal_start, pos - literal_start));
      emit_copy(result.delta,
                static_cast<std::uint64_t>(matched) * block_size, block_size);
      pos += block_size;
      literal_start = pos;
      if (!is_last && pos >= limit) {
        // The match jumped past the boundary: the successor's assumed
        // entry (a fresh reset at `limit`) is only valid when the jump
        // landed exactly on it; the stitcher checks exit_pos.
        result.exit = RegionExit::jump;
        result.exit_pos = pos;
        settle_rolls();
        return result;
      }
      if (pos + block_size <= target.size()) {
        rolling.reset(target.subspan(pos, block_size));
        charge(meter, CostKind::rolling_hash, block_size);
      }
    } else {
      rolling.roll(target[pos], pos + block_size < target.size()
                                    ? target[pos + block_size]
                                    : 0);
      ++rolls;
      ++pos;
    }
  }
  settle_rolls();

  // Natural end of the target: only the last region gets here (earlier
  // regions end >= one region length before the target's end).
  result.exit = RegionExit::end;
  result.exit_pos = target.size();

  // Tail: try to match the base's short final block exactly.
  const std::size_t remaining = target.size() - pos;
  if (index.tail.has_value() &&
      remaining == signature.block_length(*index.tail) && remaining > 0) {
    const ByteSpan tail = target.subspan(pos, remaining);
    charge(meter, CostKind::rolling_hash, remaining);
    if (weak_checksum(tail) == signature.weak[*index.tail] &&
        confirm(*index.tail, tail, meter)) {
      emit_literal(result.delta,
                   target.subspan(literal_start, pos - literal_start));
      emit_copy(result.delta,
                static_cast<std::uint64_t>(*index.tail) * block_size,
                signature.block_length(*index.tail));
      return result;
    }
  }
  emit_literal(result.delta, target.subspan(literal_start));
  return result;
}

/// Serial block matcher: one scan over the whole target, plus the
/// degenerate small-target path.  Behavior (output bytes and CostMeter
/// charges) is identical to the original std::function-based match_blocks.
template <typename Confirm>
Delta match_blocks(const Signature& signature, ByteSpan target,
                   CostMeter* meter, Confirm&& confirm) {
  Delta delta;
  delta.base_size = signature.file_size;
  delta.target_size = target.size();

  const std::uint32_t block_size = signature.block_size;
  if (target.empty()) return delta;
  if (signature.block_count() == 0 || target.size() < block_size) {
    // No full window fits (or empty base): check a possible whole-tail
    // match, otherwise everything is literal.
    if (signature.block_count() != 0) {
      const std::uint32_t tail =
          static_cast<std::uint32_t>(signature.block_count() - 1);
      if (signature.block_length(tail) == target.size()) {
        charge(meter, CostKind::rolling_hash, target.size());
        if (weak_checksum(target) == signature.weak[tail] &&
            confirm(tail, target, meter)) {
          emit_copy(delta,
                    static_cast<std::uint64_t>(tail) * block_size,
                    signature.block_length(tail));
          return delta;
        }
      }
    }
    emit_literal(delta, target);
    return delta;
  }

  const WeakIndex index = WeakIndex::build(signature);
  RegionScanResult scan = scan_blocks(signature, target, index, 0, kNoLimit,
                                      meter, meter,
                                      std::forward<Confirm>(confirm));
  delta.commands = std::move(scan.delta.commands);
  return delta;
}

/// The remote-mode confirm: MD5 the window and compare with the stored
/// strong digest.  With a weak-only signature nothing can confirm.
inline auto strong_confirm(const Signature& signature) {
  return [&signature](std::uint32_t block, ByteSpan window, CostMeter* meter) {
    if (!signature.has_strong) return false;  // weak-only: never confirm
    charge(meter, CostKind::strong_hash, window.size());
    return Md5::hash(window) == signature.strong[block];
  };
}

/// The local-mode confirm: bitwise comparison against the base bytes.
inline auto bitwise_confirm(const Signature& signature, ByteSpan base) {
  return [&signature, base](std::uint32_t block, ByteSpan window,
                            CostMeter* meter) {
    const std::uint64_t offset =
        static_cast<std::uint64_t>(block) * signature.block_size;
    if (offset + window.size() > base.size()) return false;
    if (signature.block_length(block) != window.size()) return false;
    charge(meter, CostKind::byte_compare, window.size());
    return std::memcmp(base.data() + offset, window.data(), window.size()) ==
           0;
  };
}

}  // namespace dcfs::rsyncx::detail
