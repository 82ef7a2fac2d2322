// Per-sync stage ledger: where does each transaction's time go?
//
// The DeltaCFS pipeline decomposes into the stages below (the paper's
// signature → delta → wire → apply breakdown plus queueing).  Client and
// server record the per-transaction cost of each stage, in microseconds,
// into one QuantileSketch per stage; `syncctl critpath` and the BENCH_*
// reports read the p50/p95/p99 out.  CPU-bound stages convert CostMeter
// units via `units_to_us` (1 tick = 10 ms of CPU); wall-bound stages
// (transport, queue-wait, ack round-trip) come from the virtual clock.
//
// Like QuantileSketch, a ledger is single-writer but mergeable: worker
// lanes fold private ledgers at join, and the critical-path analyzer
// merges per-NetProfile ledgers into an overall report.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "metrics/cost.h"
#include "obs/quantile.h"

namespace dcfs::obs {

enum class Stage : std::uint8_t {
  signature,   ///< base-signature pass
  delta,       ///< local bitwise-compare delta encoding
  compress,    ///< record-payload compression (compress_uploads)
  transport,   ///< modeled wire time of the upload frame
  queue_wait,  ///< sync-queue residency (enqueue -> upload)
  apply,       ///< server-side apply CPU
  ack,         ///< upload -> ack-processed round trip
  recon,       ///< recursive-reconciliation rounds (query -> answer)
  kCount,
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);

std::string_view to_string(Stage stage) noexcept;

/// CostMeter units to microseconds of CPU: one tick is 10 ms.
constexpr std::uint64_t units_to_us(std::uint64_t units,
                                    const CostProfile& profile) noexcept {
  return units * 10'000 / profile.units_per_tick;
}

class StageLedger {
 public:
  void record(Stage stage, std::uint64_t us) noexcept {
    sketches_[static_cast<std::size_t>(stage)].record(us);
  }

  void merge(const StageLedger& other) noexcept {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      sketches_[i].merge(other.sketches_[i]);
    }
  }

  [[nodiscard]] const QuantileSketch& sketch(Stage stage) const noexcept {
    return sketches_[static_cast<std::size_t>(stage)];
  }

  /// Per-stage table: count, total µs, p50/p95/p99.  Stages with no
  /// recordings are omitted; an all-empty ledger yields a one-line note.
  [[nodiscard]] std::string to_string() const;

  void clear() noexcept {
    for (QuantileSketch& sketch : sketches_) sketch.clear();
  }

 private:
  std::array<QuantileSketch, kStageCount> sketches_{};
};

}  // namespace dcfs::obs
