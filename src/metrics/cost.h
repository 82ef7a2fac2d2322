// Deterministic CPU cost accounting.
//
// The paper reports CPU in "ticks" (Linux: 10 ms of CPU) measured on a Xeon
// (PC) and a Galaxy Note3 (mobile).  We cannot measure those hosts, so each
// primitive operation is charged a calibrated *unit* cost per byte (rolling
// hash = 1 unit/byte as the reference) and a profile converts units to ticks.
// This keeps every bench bit-for-bit reproducible while preserving the
// paper's relative ordering; benches additionally print real process CPU
// time for sanity.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace dcfs {

/// The primitive operations that consume CPU in a sync client/server.
enum class CostKind : std::uint8_t {
  rolling_hash,   ///< rsync weak checksum over a byte stream (reference: 1/B)
  strong_hash,    ///< MD5 over a byte stream
  byte_compare,   ///< memcmp-style bitwise comparison
  byte_copy,      ///< memcpy (undo-log copies, buffer assembly)
  compress,       ///< LZ compression (Dropbox baseline)
  decompress,
  encrypt,        ///< TLS-style frame encryption
  cdc_scan,       ///< gear-hash boundary scan (Seafile baseline)
  disk_read,      ///< file scan I/O CPU cost
  disk_write,
  net_frame,      ///< per-byte send/recv processing
  kv_op,          ///< checksum-store KV operations (per-op fixed cost)
  syscall,        ///< per-op fixed cost of a file operation round trip
  kCount,
};

constexpr std::size_t kCostKindCount = static_cast<std::size_t>(CostKind::kCount);

std::string_view to_string(CostKind kind) noexcept;

/// Per-byte unit costs (scaled by 16 for sub-unit resolution) and per-op
/// fixed costs, plus the units-per-tick conversion for a host class.
struct CostProfile {
  /// Cost of processing one byte with each primitive, in 1/16 units.
  std::array<std::uint32_t, kCostKindCount> per_byte_x16{};
  /// Fixed cost per invocation, in units.
  std::array<std::uint32_t, kCostKindCount> per_op{};
  /// How many units make up one reported CPU tick.
  std::uint64_t units_per_tick = 1;

  /// Xeon-class host (the paper's EC2 m4.xlarge).
  static const CostProfile& pc() noexcept;
  /// Galaxy-Note3-class host: same algorithmic costs, ~10x fewer units per
  /// tick (wimpier core), pricier syscalls and I/O.
  static const CostProfile& mobile() noexcept;
};

/// Point-in-time copy of a CostMeter's per-kind breakdown, in whole units.
/// The one source of truth for breakdown tables and the metrics registry.
struct CostSnapshot {
  std::array<std::uint64_t, kCostKindCount> units_by_kind{};
  std::uint64_t total_units = 0;
  std::uint64_t ticks = 0;
};

/// Accumulates charged costs; one meter per accounted component
/// (e.g. client CPU vs server CPU).
class CostMeter {
 public:
  explicit CostMeter(const CostProfile& profile) noexcept
      : profile_(&profile) {}

  /// Charges processing `bytes` bytes with primitive `kind` (plus the
  /// primitive's fixed per-op cost).
  void charge(CostKind kind, std::uint64_t bytes) noexcept {
    const auto i = static_cast<std::size_t>(kind);
    units_x16_[i] += bytes * profile_->per_byte_x16[i] +
                     static_cast<std::uint64_t>(profile_->per_op[i]) * 16;
  }

  /// Same units as `times` calls of charge(kind, bytes), in one add (hot
  /// loops count their charges and settle them once).
  void charge_repeated(CostKind kind, std::uint64_t bytes,
                       std::uint64_t times) noexcept {
    const auto i = static_cast<std::size_t>(kind);
    units_x16_[i] += times * (bytes * profile_->per_byte_x16[i] +
                              static_cast<std::uint64_t>(profile_->per_op[i]) *
                                  16);
  }

  /// Charges only the fixed per-op cost (e.g. a syscall with no payload).
  void charge_op(CostKind kind) noexcept { charge(kind, 0); }

  /// Total cost in units.
  [[nodiscard]] std::uint64_t units() const noexcept {
    std::uint64_t total = 0;
    for (auto u : units_x16_) total += u;
    return total / 16;
  }

  /// Total cost converted to the profile's CPU ticks.
  [[nodiscard]] std::uint64_t ticks() const noexcept {
    return units() / profile_->units_per_tick;
  }

  /// Units attributable to one primitive (for breakdown tables).
  [[nodiscard]] std::uint64_t units_for(CostKind kind) const noexcept {
    return units_x16_[static_cast<std::size_t>(kind)] / 16;
  }

  /// Per-kind breakdown, totals and ticks in one consistent copy.
  [[nodiscard]] CostSnapshot snapshot() const noexcept {
    CostSnapshot snap;
    for (std::size_t i = 0; i < kCostKindCount; ++i) {
      snap.units_by_kind[i] = units_x16_[i] / 16;
    }
    snap.total_units = units();
    snap.ticks = snap.total_units / profile_->units_per_tick;
    return snap;
  }

  /// Folds another meter's raw accumulator into this one (parallel kernels
  /// charge region-local meters and merge at join).  Charges are commutative
  /// sums, so merge order never changes the totals; both meters must use the
  /// same profile for the result to be meaningful.
  void merge(const CostMeter& other) noexcept {
    for (std::size_t i = 0; i < kCostKindCount; ++i) {
      units_x16_[i] += other.units_x16_[i];
    }
  }

  void reset() noexcept { units_x16_.fill(0); }

  [[nodiscard]] const CostProfile& profile() const noexcept { return *profile_; }

 private:
  const CostProfile* profile_;
  std::array<std::uint64_t, kCostKindCount> units_x16_{};
};

}  // namespace dcfs
