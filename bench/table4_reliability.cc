// Table IV: reliability tests — data corruption, crash inconsistency, and
// causal upload order, for Dropbox / Seafile / DeltaCFS.
//
// Paper result:                corrupted   inconsistent   causal order
//   Dropbox                    upload      upload/omit    N
//   Seafile                    upload      upload/omit    N
//   DeltaCFS                   detect      detect         Y
//
// --trace-out=<file> records the three DeltaCFS runs, one trace process
// each, and writes their Chrome trace JSON at exit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/deltacfs_system.h"
#include "baselines/dropbox_sim.h"
#include "baselines/seafile_sim.h"
#include "common/rng.h"
#include "harness.h"
#include "trace/workloads.h"

namespace {

using namespace dcfs;

/// Records one DeltaCFS run into the bench-wide tracer as its own trace
/// process, from construction to destruction; a no-op without --trace-out.
/// Declare it before the system it traces, so tracing stops after the
/// system is gone.
class TracedRun {
 public:
  TracedRun(const Clock& clock, const char* name) {
    if (obs_ == nullptr) return;
    static std::uint32_t next_pid = 1;
    obs_->tracer.set_process(next_pid++,
                             std::string("DeltaCFS / ").append(name));
    obs_->tracer.enable(clock);
  }
  ~TracedRun() {
    if (obs_ != nullptr) obs_->tracer.disable();
  }
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  [[nodiscard]] obs::Obs* obs() const noexcept { return obs_; }

 private:
  obs::Obs* obs_ = bench::shared_obs();
};

void pump(SyncSystem& system, VirtualClock& clock, Duration duration) {
  for (Duration t = 0; t < duration; t += milliseconds(200)) {
    clock.advance(milliseconds(200));
    system.tick(clock.now());
  }
  system.finish(clock.now());
}

// --- corruption: flip a bit, then write 1 byte; is the damage uploaded? ---

const char* corruption_verdict_watcherbased(SyncSystem& system, MemFs& local,
                                            VirtualClock& clock) {
  Rng rng(1);
  const Bytes data = rng.bytes(64 * 1024);
  system.fs().write_file("/sync/f", data);
  pump(system, clock, seconds(3));

  local.corrupt_bit("/sync/f", 30'000, 1);
  Result<FileHandle> handle = system.fs().open("/sync/f");
  system.fs().write(*handle, 30'000, to_bytes("x"));
  system.fs().close(*handle);
  const std::uint64_t up_before = system.traffic().up_bytes();
  pump(system, clock, seconds(3));

  // Watcher-based systems cannot tell corruption from a user edit: they
  // sync the damaged block.
  return system.traffic().up_bytes() > up_before ? "upload" : "omit";
}

const char* corruption_verdict_deltacfs(DeltaCfsSystem& system,
                                        VirtualClock& clock) {
  Rng rng(1);
  const Bytes data = rng.bytes(64 * 1024);
  system.fs().write_file("/sync/f", data);
  pump(system, clock, seconds(3));
  const Bytes clean = *system.server().fetch("/sync/f");

  system.local().corrupt_bit("/sync/f", 30'000, 1);
  Result<FileHandle> handle = system.fs().open("/sync/f");
  system.fs().write(*handle, 30'000, to_bytes("x"));
  system.fs().close(*handle);
  pump(system, clock, seconds(3));

  const bool detected = !system.client().detected_corruption().empty();
  const bool cloud_clean = *system.server().fetch("/sync/f") == clean;
  return (detected && cloud_clean) ? "detect" : "upload";
}

// --- crash inconsistency: out-of-band data change after a "crash" ---

const char* inconsistency_verdict_watcherbased(SyncSystem& system,
                                               MemFs& local,
                                               VirtualClock& clock) {
  Rng rng(2);
  system.fs().write_file("/sync/f", rng.bytes(64 * 1024));
  pump(system, clock, seconds(3));

  // Data written bypassing the FS (ordered-journaling crash artifact).
  local.write_bypassing("/sync/f", 4096, rng.bytes(512));
  // Whether a watcher-based client notices depends on it seeing *any*
  // change event; the bypass emits none, so the damaged file may be
  // uploaded later (on the next genuine event) or silently kept ("omit").
  Result<FileHandle> handle = system.fs().open("/sync/f");
  system.fs().write(*handle, 60'000, to_bytes("y"));
  system.fs().close(*handle);
  const std::uint64_t up_before = system.traffic().up_bytes();
  pump(system, clock, seconds(3));
  return system.traffic().up_bytes() > up_before ? "upload" : "omit";
}

const char* inconsistency_verdict_deltacfs(DeltaCfsSystem& system,
                                           VirtualClock& clock) {
  Rng rng(2);
  system.fs().write_file("/sync/f", rng.bytes(64 * 1024));
  pump(system, clock, seconds(3));
  const Bytes clean = *system.server().fetch("/sync/f");

  system.local().write_bypassing("/sync/f", 4096, rng.bytes(512));
  const auto damaged = system.client().crash_scan();  // post-crash check
  Result<FileHandle> handle = system.fs().open("/sync/f");
  if (handle) {
    system.fs().write(*handle, 60'000, to_bytes("y"));
    system.fs().close(*handle);
  }
  pump(system, clock, seconds(3));

  const bool cloud_clean = *system.server().fetch("/sync/f") == clean;
  return (!damaged.empty() && cloud_clean) ? "detect" : "upload";
}

// --- causal order: photos before thumbnails, in sequence ---

bool order_is_causal(const std::vector<std::string>& arrivals,
                     const std::vector<std::string>& expected) {
  // Every expected path must appear, in the expected relative order.
  std::size_t cursor = 0;
  for (const std::string& path : arrivals) {
    if (cursor < expected.size() && path == expected[cursor]) ++cursor;
  }
  return cursor == expected.size();
}

const char* causal_verdict_deltacfs() {
  VirtualClock clock;
  const TracedRun traced(clock, "causal order");
  DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(), {},
                        CostProfile::pc(), traced.obs());
  system.fs().mkdir("/sync");
  PhotoThumbWorkload workload{PhotoThumbParams{}};
  run_workload(workload, system, clock);
  return order_is_causal(system.server().arrival_order(),
                         workload.expected_order())
             ? "Y"
             : "N";
}

template <typename Sim>
const char* causal_verdict_watcherbased(Sim& sim, VirtualClock& clock) {
  sim.fs().mkdir("/sync");
  PhotoThumbWorkload workload{PhotoThumbParams{}};
  run_workload(workload, sim, clock);
  return order_is_causal(sim.upload_order(), workload.expected_order())
             ? "Y"
             : "N";
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_common_flags(argc, argv);
  std::printf("=== Table IV: reliability tests ===\n\n");
  std::printf("%-10s %12s %14s %8s\n", "Service", "Corrupted", "Inconsistent",
              "Causal");

  {
    VirtualClock clock;
    DropboxSim sim(clock, CostProfile::pc(), NetProfile::pc_wan());
    sim.fs().mkdir("/sync");
    const char* corrupted =
        corruption_verdict_watcherbased(sim, sim.local(), clock);
    VirtualClock clock2;
    DropboxSim sim2(clock2, CostProfile::pc(), NetProfile::pc_wan());
    sim2.fs().mkdir("/sync");
    const char* inconsistent =
        inconsistency_verdict_watcherbased(sim2, sim2.local(), clock2);
    VirtualClock clock3;
    DropboxSim sim3(clock3, CostProfile::pc(), NetProfile::pc_wan());
    const char* causal = causal_verdict_watcherbased(sim3, clock3);
    std::printf("%-10s %12s %14s %8s\n", "Dropbox", corrupted, inconsistent,
                causal);
  }
  {
    VirtualClock clock;
    SeafileSim sim(clock, CostProfile::pc(), CostProfile::pc());
    sim.fs().mkdir("/sync");
    const char* corrupted =
        corruption_verdict_watcherbased(sim, sim.local(), clock);
    VirtualClock clock2;
    SeafileSim sim2(clock2, CostProfile::pc(), CostProfile::pc());
    sim2.fs().mkdir("/sync");
    const char* inconsistent =
        inconsistency_verdict_watcherbased(sim2, sim2.local(), clock2);
    VirtualClock clock3;
    SeafileSim sim3(clock3, CostProfile::pc(), CostProfile::pc());
    const char* causal = causal_verdict_watcherbased(sim3, clock3);
    std::printf("%-10s %12s %14s %8s\n", "Seafile", corrupted, inconsistent,
                causal);
  }
  {
    ClientConfig config;
    config.enable_checksums = true;
    const char* corrupted = nullptr;
    {
      VirtualClock clock;
      const TracedRun traced(clock, "corruption");
      DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                            config, CostProfile::pc(), traced.obs());
      system.fs().mkdir("/sync");
      corrupted = corruption_verdict_deltacfs(system, clock);
    }
    const char* inconsistent = nullptr;
    {
      VirtualClock clock;
      const TracedRun traced(clock, "crash inconsistency");
      DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                            config, CostProfile::pc(), traced.obs());
      system.fs().mkdir("/sync");
      inconsistent = inconsistency_verdict_deltacfs(system, clock);
    }

    std::printf("%-10s %12s %14s %8s\n", "DeltaCFS", corrupted, inconsistent,
                causal_verdict_deltacfs());
  }

  std::printf(
      "\nExpected (paper Table IV): Dropbox/Seafile upload corrupted and\n"
      "inconsistent data and do not preserve update order (small files\n"
      "first); DeltaCFS detects both damage classes, quarantines the file,\n"
      "and uploads strictly in causal order.\n");
  return 0;
}
