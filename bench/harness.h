// Shared bench harness: builds each sync solution fresh, replays a
// workload through it in virtual time, and collects the metrics the
// paper's tables and figures report.
//
// Default parameters are the scaled-down variants (same shapes, faster
// runs); pass --paper to any bench binary for the paper's exact trace
// sizes.  All numbers are deterministic (seeded workloads + tick cost
// model); real process-CPU per run is printed as a sanity column.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/deltacfs_system.h"
#include "baselines/dropbox_sim.h"
#include "baselines/nfs_sim.h"
#include "baselines/seafile_sim.h"
#include "common/clock.h"
#include "obs/obs.h"
#include "trace/workload.h"
#include "trace/workloads.h"

namespace dcfs::bench {

enum class Solution {
  dropbox,
  seafile,
  nfs,
  deltacfs,
  dropsync,          ///< mobile Dropbox (no rsync, serialized uploads)
  deltacfs_mobile,
};

inline const char* to_string(Solution solution) {
  switch (solution) {
    case Solution::dropbox: return "Dropbox";
    case Solution::seafile: return "Seafile";
    case Solution::nfs: return "NFSv4";
    case Solution::deltacfs: return "DeltaCFS";
    case Solution::dropsync: return "Dropsync";
    case Solution::deltacfs_mobile: return "DeltaCFS(m)";
  }
  return "?";
}

inline bool is_mobile(Solution solution) {
  return solution == Solution::dropsync ||
         solution == Solution::deltacfs_mobile;
}

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

struct TraceSet {
  std::string name;
  WorkloadFactory factory;
};

/// The four canonical traces of §IV-A.
inline std::vector<TraceSet> canonical_traces(bool paper_scale) {
  const auto append = paper_scale ? AppendParams::paper()
                                  : AppendParams::scaled();
  const auto random = paper_scale ? RandomWriteParams::paper()
                                  : RandomWriteParams::scaled();
  const auto word = paper_scale ? WordParams::paper() : WordParams::scaled();
  const auto wechat = paper_scale ? WeChatParams::paper()
                                  : WeChatParams::scaled();
  return {
      {"Append write",
       [append] { return std::make_unique<AppendWorkload>(append); }},
      {"Random write",
       [random] { return std::make_unique<RandomWriteWorkload>(random); }},
      {"Word trace",
       [word] { return std::make_unique<WordWorkload>(word); }},
      {"WeChat trace",
       [wechat] { return std::make_unique<WeChatWorkload>(wechat); }},
  };
}

struct RunResult {
  std::string solution;
  std::string trace;
  std::uint64_t client_ticks = 0;
  std::uint64_t server_ticks = 0;
  bool server_measured = true;   ///< Dropbox's server is opaque
  bool client_measured = true;   ///< NFS client runs in kernel callbacks
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  std::uint64_t update_bytes = 0;
  double tue = 0.0;
  std::int64_t real_cpu_us = 0;
  std::uint64_t deltas_triggered = 0;
};

inline std::unique_ptr<SyncSystem> make_system(Solution solution,
                                               const Clock& clock,
                                               obs::Obs* obs = nullptr) {
  switch (solution) {
    case Solution::dropbox:
      return std::make_unique<DropboxSim>(clock, CostProfile::pc(),
                                          NetProfile::pc_wan());
    case Solution::seafile:
      return std::make_unique<SeafileSim>(clock, CostProfile::pc(),
                                          CostProfile::pc());
    case Solution::nfs:
      return std::make_unique<NfsSim>(clock, CostProfile::pc());
    case Solution::deltacfs:
      return std::make_unique<DeltaCfsSystem>(clock, CostProfile::pc(),
                                              NetProfile::pc_wan(),
                                              ClientConfig{},
                                              CostProfile::pc(), obs);
    case Solution::dropsync: {
      DropboxConfig config;
      config.use_rsync = false;
      config.use_dedup = false;
      config.serialize_uploads = true;
      return std::make_unique<DropboxSim>(clock, CostProfile::mobile(),
                                          NetProfile::mobile_wan(), config);
    }
    case Solution::deltacfs_mobile:
      return std::make_unique<DeltaCfsSystem>(clock, CostProfile::mobile(),
                                              NetProfile::mobile_wan(),
                                              ClientConfig{},
                                              CostProfile::pc(), obs);
  }
  return nullptr;
}

/// --trace-out=<file> support, shared by every bench binary.  When the flag
/// is present, each DeltaCFS run records spans into one shared tracer; the
/// Chrome trace_event JSON is written (and a span summary printed) at exit.
struct TraceOptions {
  bool parsed = false;
  std::string trace_out;  ///< empty = tracing disabled
};

inline TraceOptions& trace_options() {
  static TraceOptions options;
  return options;
}

/// The bench-wide observability context; null unless --trace-out was given.
inline obs::Obs* shared_obs() {
  if (trace_options().trace_out.empty()) return nullptr;
  static obs::Obs obs;
  return &obs;
}

inline void write_trace_at_exit() {
  obs::Obs* obs = shared_obs();
  if (obs == nullptr) return;
  const std::string& path = trace_options().trace_out;
  const std::string json = obs->tracer.to_chrome_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "trace-out: cannot open %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("\n%s", obs->tracer.summary().c_str());
  std::printf("trace written to %s (%zu events)\n", path.c_str(),
              obs->tracer.events().size());
}

/// Parses flags shared by every bench binary.  Idempotent; called from
/// paper_scale_requested so individual bench mains need no changes.
inline void parse_common_flags(int argc, char** argv) {
  TraceOptions& options = trace_options();
  if (options.parsed) return;
  options.parsed = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kTraceOut = "--trace-out=";
    if (arg.substr(0, kTraceOut.size()) == kTraceOut) {
      options.trace_out = std::string(arg.substr(kTraceOut.size()));
    }
  }
  if (!options.trace_out.empty()) {
    // Construct the shared Obs *before* registering the exit writer so its
    // (atexit-registered) destructor runs after the writer, not before.
    shared_obs();
    std::atexit(write_trace_at_exit);
  }
}

/// Replays `factory()` against a fresh instance of `solution`.
inline RunResult run_one(Solution solution, const TraceSet& trace) {
  VirtualClock clock;
  obs::Obs* obs = shared_obs();
  std::unique_ptr<SyncSystem> system = make_system(solution, clock, obs);
  if (obs != nullptr) {
    // One pid per run keeps successive virtual-time runs (which all start
    // at t=0) on separate tracks in the trace viewer.
    static std::uint32_t next_pid = 1;
    obs->tracer.set_process(next_pid++, std::string(to_string(solution)) +
                                            " / " + trace.name);
    obs->tracer.enable(clock);
  }
  system->fs().mkdir("/sync");

  std::unique_ptr<Workload> workload = trace.factory();
  const std::int64_t cpu_before = process_cpu_micros();
  const RunStats stats = run_workload(*workload, *system, clock);
  const std::int64_t cpu_after = process_cpu_micros();
  if (obs != nullptr) obs->tracer.disable();

  RunResult result;
  result.solution = to_string(solution);
  result.trace = trace.name;
  result.client_ticks = system->client_cpu_ticks();
  result.server_ticks = system->server_cpu_ticks();
  result.server_measured = solution != Solution::dropbox &&
                           solution != Solution::dropsync;
  result.client_measured = solution != Solution::nfs;
  result.up_bytes = system->traffic().up_bytes();
  result.down_bytes = system->traffic().down_bytes();
  result.update_bytes = stats.update_bytes;
  result.tue = system->traffic().tue(stats.update_bytes);
  result.real_cpu_us = cpu_after - cpu_before;
  if (auto* dcfs = dynamic_cast<DeltaCfsSystem*>(system.get())) {
    result.deltas_triggered = dcfs->client().deltas_triggered();
  }
  return result;
}

inline bool paper_scale_requested(int argc, char** argv) {
  parse_common_flags(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--paper") return true;
  }
  return false;
}

inline std::string fmt_mb(std::uint64_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buffer;
}

inline std::string fmt_ticks(const RunResult& r, bool server) {
  if (server && !r.server_measured) return "-";
  if (!server && !r.client_measured) return "-";
  return std::to_string(server ? r.server_ticks : r.client_ticks);
}

/// --json-out=<file>: the rows behind a paper figure's printed cells, at
/// full precision (byte counts, not rounded MB).  tools/bench_compare.py
/// joins fig8, fig9 and table2's files into BENCH_paper.json and gates
/// every field exactly.
class PaperJson {
 public:
  PaperJson(int argc, char** argv, std::string bench)
      : bench_(std::move(bench)) {
    constexpr std::string_view kJsonOut = "--json-out=";
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (arg.substr(0, kJsonOut.size()) == kJsonOut) {
        path_ = std::string(arg.substr(kJsonOut.size()));
      }
    }
  }

  /// Upload and download bytes of one system x trace run.
  void add_traffic(const char* host, const RunResult& r) {
    add(host, r, "\"up_bytes\": " + std::to_string(r.up_bytes) +
                     ", \"down_bytes\": " + std::to_string(r.down_bytes));
  }

  /// Client and server CPU ticks of one run; an unmeasured side is left
  /// out, as the table prints "-" for it.
  void add_ticks(const char* host, const RunResult& r) {
    std::string fields;
    if (r.client_measured) {
      fields += "\"client_ticks\": " + std::to_string(r.client_ticks);
    }
    if (r.server_measured) {
      if (!fields.empty()) fields += ", ";
      fields += "\"server_ticks\": " + std::to_string(r.server_ticks);
    }
    add(host, r, fields);
  }

  /// Writes the rows when --json-out was given.  Returns false (after
  /// reporting on stderr) when the file cannot be written.
  [[nodiscard]] bool write() const {
    if (path_.empty()) return true;
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "json-out: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(file, "[\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(file, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(file, "]\n");
    return std::fclose(file) == 0;
  }

 private:
  void add(const char* host, const RunResult& r, const std::string& fields) {
    std::string row = "{\"bench\": \"" + bench_ + "\", \"host\": \"" +
                      host + "\", \"system\": \"" + r.solution +
                      "\", \"trace\": \"" + r.trace + "\"";
    if (!fields.empty()) row += ", " + fields;
    rows_.push_back(row + "}");
  }

  std::string bench_;
  std::string path_;  ///< empty = no JSON
  std::vector<std::string> rows_;
};

inline void print_scale_banner(bool paper_scale) {
  std::printf("scale: %s (pass --paper for the paper's exact trace sizes)\n",
              paper_scale ? "PAPER" : "SCALED-DOWN");
}

}  // namespace dcfs::bench
