// wallbench — wall-clock two-client sync benchmark (metrics: METRICS.md).
//
//   wallbench --workload office_save|db_commit|small_files --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// One process composes the full DeltaCFS stack twice over one server:
// MemFs + InterceptingFs + DeltaCfsClient for client A (id 1) and client B
// (id 2), one pc_wan Transport each, one CloudServer, all on the shipped
// ClientConfig{}/ServerConfig{} defaults.  Saves run in a closed loop with
// one save in flight: the writer issues one save's file-system calls, then
// virtual time advances in 200 ms steps (writer tick, server pump, writer
// tick, reader tick) until the save has converged.  Virtual time only fires
// the debounce timers; what is counted is wall time spent inside calls into
// the stack (layers.h).  After each save the oracle compares the saved
// files on A, the server and B against the workload's model.
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same saves
// twice, untraced and traced (spans on a tracer the benchmark owns),
// interleaved save by save, and prints the per-layer metrics.  Either way
// the last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the exit code is non-zero when any save failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/client.h"
#include "layers.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "rsyncx/delta.h"
#include "server/block_store.h"
#include "server/cloud_server.h"
#include "vfs/intercept.h"
#include "vfs/memfs.h"
#include "workloads.h"

namespace wallbench {
namespace {

using dcfs::Bytes;

constexpr dcfs::Duration kStep = dcfs::milliseconds(200);
/// A save that has not converged after this many steps (40 s of virtual
/// time, over ten upload delays) counts as failed.
constexpr int kMaxSteps = 200;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Every run has at least this many saves, so p95 has ten samples above it.
constexpr std::uint64_t kMinSaves = 200;
/// The traced run's saves are capped so its trace stays a few tens of MB.
constexpr std::uint64_t kMaxTracedSaves = 400;

/// Saves per second of --seconds.  A run replays a fixed number of saves
/// (the same work on every commit, and exact metrics that repeat bit for
/// bit), sized so an untraced run lasts about --seconds on a 4-core x86
/// server.
double saves_per_second(std::string_view workload) {
  if (workload == "office_save") return 44.0;
  if (workload == "db_commit") return 28.0;
  return 200.0;  // small_files
}

/// num / den, or 0 when nothing was counted.
template <typename Num, typename Den>
double ratio(Num num, Den den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// The stack under test
// ---------------------------------------------------------------------------

dcfs::ClientConfig client_config(std::uint32_t id) {
  dcfs::ClientConfig config;
  config.client_id = id;
  return config;
}

/// One device: local disk, the client in the FUSE position, and its link.
/// The client sees the disk through `local`; the application through `app`.
struct Device {
  Device(std::uint32_t id, const dcfs::Clock& clock, LayerClock& layers)
      : disk(clock),
        local(disk, layers, Layer::memfs),
        link(dcfs::NetProfile::pc_wan()),
        client(local, link, clock, dcfs::CostProfile::pc(), client_config(id),
               nullptr, &obs),
        intercept(local, client, &obs),
        app(intercept, layers, Layer::app_fs) {}

  [[nodiscard]] std::uint64_t counter(std::string_view name) {
    return obs.registry.counter(name).value();
  }

  /// The program's own counters (its tracer stays disabled).
  dcfs::obs::Obs obs;
  dcfs::MemFs disk;
  TimedFs local;
  dcfs::Transport link;
  dcfs::DeltaCfsClient client;
  dcfs::InterceptingFs intercept;
  TimedFs app;
};

struct Stack {
  explicit Stack(LayerClock& layers)
      : server(dcfs::CostProfile::pc(), dcfs::ServerConfig{}, &server_obs) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      devices[i] = std::make_unique<Device>(i + 1, clock, layers);
      server.attach(i + 1, devices[i]->link);
    }
  }

  dcfs::VirtualClock clock;
  dcfs::obs::Obs server_obs;
  dcfs::CloudServer server;
  std::array<std::unique_ptr<Device>, 2> devices;
};

bool settled(Device& d) {
  return d.client.queue().empty() && d.client.deferred_pending() == 0 &&
         d.client.recon_in_flight() == 0 && d.client.streams_in_flight() == 0 &&
         d.client.relations().size() == 0 && d.link.idle();
}

/// Drives the stack until client `writer`'s save has reached the server and
/// the other client: the writer's queue and deferred list are empty, both
/// links are idle and no recon session, stream or relation entry is open.
bool converge(Stack& s, LayerClock& layers, int writer) {
  Device& w = *s.devices[writer];
  Device& r = *s.devices[1 - writer];
  for (int step = 0; step < kMaxSteps; ++step) {
    s.clock.advance(kStep);
    const dcfs::TimePoint now = s.clock.now();
    {
      LayerClock::Scope scope(layers, Layer::writer_tick);
      w.client.tick(now);
    }
    {
      LayerClock::Scope scope(layers, Layer::pump);
      s.server.pump();
    }
    {
      LayerClock::Scope scope(layers, Layer::writer_tick);
      w.client.tick(now);
    }
    {
      LayerClock::Scope scope(layers, Layer::reader_tick);
      r.client.tick(now);
    }
    if (settled(w) && settled(r) && s.server.streams_active() == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Correctness oracle
// ---------------------------------------------------------------------------

// The oracle holds at most one file copy at a time, so its share of
// peak_rss_mb stays one file's size.

/// `path` holds the model's bytes on the server, on A and on B.
bool file_matches(Stack& s, const std::string& path, const Bytes& want) {
  if (const dcfs::Result<Bytes> cloud = s.server.fetch(path);
      !cloud || *cloud != want) {
    return false;
  }
  for (const auto& device : s.devices) {
    if (const dcfs::Result<Bytes> local = device->disk.read_file(path);
        !local || *local != want) {
      return false;
    }
  }
  return true;
}

/// Every saved file holds the model's bytes on A, on the server and on B.
bool saved_bytes_match(Stack& s, const Workload& wl, const Save& save) {
  for (const std::string& path : save.paths) {
    if (!file_matches(s, path, wl.expected().at(path))) return false;
  }
  return true;
}

/// Appends the path of every file under `dir` to `out`.
void collect_paths(dcfs::MemFs& fs, const std::string& dir,
                   std::vector<std::string>& out) {
  const dcfs::Result<std::vector<std::string>> names = fs.list_dir(dir);
  if (!names) return;
  for (const std::string& name : *names) {
    const std::string path = dir + "/" + name;
    const dcfs::Result<dcfs::FileStat> st = fs.stat(path);
    if (!st) continue;
    if (st->type == dcfs::NodeType::directory) {
      collect_paths(fs, path, out);
    } else {
      out.push_back(path);
    }
  }
}

/// The whole namespace under the sync root matches the model on A, on the
/// server and on B: same paths, same bytes, nothing extra (no conflict
/// copies, no leftover temporaries).
bool namespace_matches(Stack& s, const Workload& wl) {
  const std::map<std::string, Bytes>& want = wl.expected();
  std::vector<std::vector<std::string>> listings = {s.server.paths()};
  for (const auto& device : s.devices) {
    collect_paths(device->disk, "/sync", listings.emplace_back());
  }
  for (std::vector<std::string>& paths : listings) {
    std::sort(paths.begin(), paths.end());
    if (!std::equal(paths.begin(), paths.end(), want.begin(), want.end(),
                    [](const std::string& path, const auto& entry) {
                      return path == entry.first;
                    })) {
      return false;
    }
  }
  for (const auto& [path, content] : want) {
    if (!file_matches(s, path, content)) return false;
  }
  return true;
}

/// Bytes of the workload's model, which the benchmark itself holds and
/// which peak_rss_mb therefore includes.
double model_mib(const Workload& wl) {
  std::uint64_t bytes = 0;
  for (const auto& [path, content] : wl.expected()) bytes += content.size();
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Error acks, conflicts and rejections anywhere in the stack; any increase
/// during a save fails it.
std::uint64_t trouble(Stack& s) {
  std::uint64_t n = s.server.rejections().size() + s.server.conflicts_seen();
  for (const auto& device : s.devices) {
    n += device->client.errors_acked() + device->client.conflicts_acked();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Kernel {
  std::uint64_t bytes = 0;
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  void add(std::uint64_t n, std::int64_t elapsed) {
    bytes += n;
    ns += elapsed;
    ++calls;
  }
  [[nodiscard]] double mb_per_s() const {
    return ratio(static_cast<double>(bytes) / 1e6,
                 static_cast<double>(ns) / 1e9);
  }
};

/// The program's own counters, summed over both clients.
struct ClientCounters {
  std::uint64_t relation_hits = 0;
  std::uint64_t relation_misses = 0;
  std::uint64_t delta_replaced = 0;
  std::uint64_t delta_kept_rpc = 0;
  std::uint64_t queue_merges = 0;
  std::uint64_t sigcache_hits = 0;
  std::uint64_t sigcache_misses = 0;

  static ClientCounters read(Stack& s) {
    ClientCounters c;
    for (const auto& d : s.devices) {
      c.relation_hits += d->counter("client.relation.hit");
      c.relation_misses += d->counter("client.relation.miss");
      c.delta_replaced += d->counter("client.delta.replaced");
      c.delta_kept_rpc += d->counter("client.delta.kept_rpc");
      c.queue_merges += d->counter("queue.write_merges");
      c.sigcache_hits += d->client.signature_cache_hits();
      c.sigcache_misses += d->client.signature_cache_misses();
    }
    return c;
  }
  ClientCounters operator-(const ClientCounters& b) const {
    return {relation_hits - b.relation_hits,
            relation_misses - b.relation_misses,
            delta_replaced - b.delta_replaced,
            delta_kept_rpc - b.delta_kept_rpc,
            queue_merges - b.queue_merges,
            sigcache_hits - b.sigcache_hits,
            sigcache_misses - b.sigcache_misses};
  }
};

/// Everything measured over one sequence of saves.
struct Phase {
  std::uint64_t saves = 0;
  std::uint64_t failed = 0;
  std::vector<double> sync_ms;  ///< per save: time inside every call
  std::vector<double> fg_ms;    ///< per save: time inside intercepted calls
  LayerTotals layers;           ///< summed over the saves
  double wall_s = 0;            ///< summed first-call-to-convergence walls
  std::uint64_t update_bytes = 0;
  std::uint64_t writer_up_bytes = 0;
  std::uint64_t writer_down_bytes = 0;
  std::uint64_t writer_up_frames = 0;
  std::uint64_t reader_down_bytes = 0;
  std::uint64_t client_modeled_us = 0;
  std::uint64_t server_modeled_us = 0;
  std::uint64_t records_uploaded = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t forwards = 0;
  ClientCounters counters;  ///< both clients, over these saves
  Kernel signature, delta_local, apply_delta, block_put;
};

/// Times the public rsyncx calls on each recorded (old, new) pair the way
/// the client and the peer run them; false if the replay disagrees.
bool replay_rsyncx(const Save& save, Phase& p) {
  const std::uint32_t block = dcfs::ClientConfig{}.delta_block_size;
  for (const auto& [old_content, new_content] : save.pairs) {
    const std::int64_t t0 = now_ns();
    const dcfs::rsyncx::Signature sig = dcfs::rsyncx::compute_signature(
        old_content, block, /*with_strong=*/false, nullptr);
    const std::int64_t t1 = now_ns();
    const dcfs::rsyncx::Delta delta = dcfs::rsyncx::compute_delta_local(
        sig, old_content, new_content, nullptr);
    const std::int64_t t2 = now_ns();
    const dcfs::Result<Bytes> rebuilt =
        dcfs::rsyncx::apply_delta(old_content, delta);
    const std::int64_t t3 = now_ns();
    p.signature.add(old_content.size(), t1 - t0);
    p.delta_local.add(new_content.size(), t2 - t1);
    p.apply_delta.add(new_content.size(), t3 - t2);
    if (!rebuilt || *rebuilt != new_content) return false;
  }
  return true;
}

/// Replays the server's history write: BlockStore::put of each saved
/// file's post-save server content into a store that, like the server's,
/// already holds the previous version.
class StoreReplay {
 public:
  bool run(Stack& s, const Save& save, Phase& p) {
    const dcfs::Result<Bytes> content = s.server.fetch(save.paths.front());
    if (!content) return false;
    const std::int64_t t0 = now_ns();
    dcfs::BlockHandle handle = store_.put(*content);
    p.block_put.add(content->size(), now_ns() - t0);
    if (previous_) store_.release(*previous_);
    previous_ = std::move(handle);
    return true;
  }

 private:
  dcfs::BlockStore store_{dcfs::ServerConfig{}.chunking};
  std::optional<dcfs::BlockHandle> previous_;
};

struct Built {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Stack> stack;
  double setup_s = 0;
  bool ok = false;
};

/// Workload set-up plus the initial sync to convergence.  The initial
/// content is generated before the clock starts.
Built build(std::string_view name, std::uint64_t seed, LayerClock& layers) {
  Built b;
  b.workload = make_workload(name, seed);
  const std::int64_t t0 = now_ns();
  b.stack = std::make_unique<Stack>(layers);
  b.ok = true;
  for (int c = 0; c < b.workload->setup_clients(); ++c) {
    b.ok = b.workload->setup(c, b.stack->devices[c]->app) && b.ok;
    b.ok = converge(*b.stack, layers, c) && b.ok;
  }
  b.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  b.ok = b.ok && trouble(*b.stack) == 0 &&
         namespace_matches(*b.stack, *b.workload);
  return b;
}

/// A built stack running saves in a closed loop, one at a time, and what
/// they measured.  With a tracer a save is one "save.<i>" span around its
/// layer spans, and its kernels are replayed after it converged (outside
/// the save).
class Session {
 public:
  Session(Built built, LayerClock& layers)
      : b_(std::move(built)),
        layers_(layers),
        counters_before_(ClientCounters::read(*b_.stack)) {}

  void save(std::uint64_t i, dcfs::obs::Tracer* tracer, bool replay_store);

  /// The phase so far, with the client counters it covers.
  [[nodiscard]] const Phase& phase() {
    p_.counters = ClientCounters::read(*b_.stack) - counters_before_;
    return p_;
  }
  [[nodiscard]] Built& built() noexcept { return b_; }

 private:
  Built b_;
  LayerClock& layers_;
  Phase p_;
  StoreReplay store_replay_;
  ClientCounters counters_before_;
};

void Session::save(std::uint64_t i, dcfs::obs::Tracer* tracer,
                   bool replay_store) {
  Stack& s = *b_.stack;
  Workload& wl = *b_.workload;
  Phase& p = p_;
  const Save save = wl.plan(/*record_pairs=*/tracer != nullptr);
  Device& w = *s.devices[save.writer];
  Device& r = *s.devices[1 - save.writer];
  const LayerTotals before = layers_.totals();
  const dcfs::TrafficMeter w_link = w.link.meter();
  const dcfs::TrafficMeter r_link = r.link.meter();
  const std::uint64_t w_units = w.client.meter().units();
  const std::uint64_t s_units = s.server.meter().units();
  const std::uint64_t uploaded = w.client.records_uploaded();
  const std::uint64_t applied = s.server.records_applied();
  const std::uint64_t forwarded = r.client.forwards_applied();
  const std::uint64_t trouble_before = trouble(s);

  std::optional<dcfs::obs::Span> save_span;
  if (tracer != nullptr) {
    save_span.emplace(tracer, tracer->intern("save." + std::to_string(i)),
                      tracer->intern("save"));
  }
  const std::int64_t t0 = now_ns();
  bool ok = wl.issue(save, w.app);
  ok = converge(s, layers_, save.writer) && ok;
  const std::int64_t wall = now_ns() - t0;
  save_span.reset();

  const LayerTotals d = layers_.totals() - before;
  const std::int64_t sync_ns = d.incl(Layer::app_fs) +
                               d.incl(Layer::writer_tick) +
                               d.incl(Layer::pump) + d.incl(Layer::reader_tick);
  p.sync_ms.push_back(static_cast<double>(sync_ns) / 1e6);
  p.fg_ms.push_back(static_cast<double>(d.incl(Layer::app_fs)) / 1e6);
  p.layers += d;
  p.wall_s += static_cast<double>(wall) / 1e9;
  p.update_bytes += save.update_bytes;
  p.writer_up_bytes += w.link.meter().up_bytes() - w_link.up_bytes();
  p.writer_down_bytes += w.link.meter().down_bytes() - w_link.down_bytes();
  p.writer_up_frames += w.link.meter().up_messages() - w_link.up_messages();
  p.reader_down_bytes += r.link.meter().down_bytes() - r_link.down_bytes();
  const dcfs::CostProfile& pc = dcfs::CostProfile::pc();
  p.client_modeled_us +=
      dcfs::obs::units_to_us(w.client.meter().units() - w_units, pc);
  p.server_modeled_us +=
      dcfs::obs::units_to_us(s.server.meter().units() - s_units, pc);
  p.records_uploaded += w.client.records_uploaded() - uploaded;
  p.records_applied += s.server.records_applied() - applied;
  p.forwards += r.client.forwards_applied() - forwarded;

  ok = ok && trouble(s) == trouble_before && saved_bytes_match(s, wl, save);
  if (tracer != nullptr) {
    ok = replay_rsyncx(save, p) && ok;
    if (replay_store) ok = store_replay_.run(s, save, p) && ok;
  }
  ++p.saves;
  if (!ok) ++p.failed;
}

// ---------------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WALLBENCH_HAS_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
#define WALLBENCH_HAS_SANITIZER 1
#endif
#endif
#if defined(WALLBENCH_SANITIZED) && !defined(WALLBENCH_HAS_SANITIZER)
#define WALLBENCH_HAS_SANITIZER 1
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    std::array<unsigned, 12> regs{};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs.data()),
                      sizeof(unsigned) * regs.size());
    brand = brand.c_str();  // up to the first NUL
    const auto first = brand.find_first_not_of(' ');
    const auto last = brand.find_last_not_of(' ');
    if (first != std::string::npos) {
      return brand.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

struct Host {
  std::string build_type = WALLBENCH_BUILD_TYPE;
#if defined(WALLBENCH_HAS_SANITIZER)
  bool sanitized = true;
#else
  bool sanitized = false;
#endif
#if defined(DCFS_CHK_ENABLED)
  std::string chk = "lockdep";
#else
  std::string chk = "off";
#endif
#if defined(__clang__)
  std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  std::string compiler = "gcc " __VERSION__;
#else
  std::string compiler = "unknown";
#endif

  [[nodiscard]] bool timings_valid() const {
    return build_type == "Release" && !sanitized;
  }
  [[nodiscard]] std::string json() const {
    return "{\"nproc\": " + std::to_string(nproc()) +
           ", \"cpu\": " + json_string(cpu_model()) +
           ", \"compiler\": " + json_string(compiler) +
           ", \"build_type\": " + json_string(build_type) +
           ", \"sanitizer\": " + json_string(sanitized ? "on" : "none") +
           ", \"chk\": " + json_string(chk) + "}";
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("%-36s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g  %-6s %llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string line = "{\"correct\": ";
  line += std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.name == "fail_ratio") continue;  // carried by attempted/failed
    line += (first ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

std::vector<Metric> end_to_end(const Phase& p, Stack& s,
                               std::vector<double> setups, double rss_mb) {
  const auto ms_per_save = [&](Layer l) {
    return ratio(static_cast<double>(p.layers.incl(l)) / 1e6, p.saves);
  };
  std::uint64_t live = 0;
  for (const std::string& path : s.server.paths()) {
    if (const dcfs::Result<Bytes> content = s.server.fetch(path)) {
      live += content->size();
    }
  }
  std::sort(setups.begin(), setups.end());
  const std::uint64_t n = p.saves;
  return {
      {"setup_s", setups[setups.size() / 2], "s", setups.size()},
      {"sync_ms_p50", percentile(p.sync_ms, 0.50), "ms", n},
      {"sync_ms_p95", percentile(p.sync_ms, 0.95), "ms", n},
      {"fg_ms_p50", percentile(p.fg_ms, 0.50), "ms", n},
      {"fg_ms_p95", percentile(p.fg_ms, 0.95), "ms", n},
      {"saves_per_s", ratio(n, p.wall_s), "1/s", n},
      {"client_ms_per_save",
       ms_per_save(Layer::app_fs) + ms_per_save(Layer::writer_tick), "ms", n},
      {"server_ms_per_save", ms_per_save(Layer::pump), "ms", n},
      {"peer_ms_per_save", ms_per_save(Layer::reader_tick), "ms", n},
      {"tue", ratio(p.writer_up_bytes + p.writer_down_bytes, p.update_bytes),
       "ratio", n},
      {"peer_tue", ratio(p.reader_down_bytes, p.update_bytes), "ratio", n},
      {"stored_bytes_per_live_byte",
       ratio(s.server.store().unique_bytes() + live, live), "ratio", 1},
      {"peak_rss_mb", rss_mb, "MiB", 1},
      {"fail_ratio", ratio(p.failed, n), "ratio", n},
  };
}

/// Share of the save spans' time covered by the layer spans directly
/// inside them, from the tracer's own events.
double layer_coverage(const std::vector<dcfs::obs::TraceEvent>& events) {
  int depth = 0;
  dcfs::TimePoint save_begin = 0;
  dcfs::TimePoint layer_begin = 0;
  double covered = 0;
  double wall = 0;
  for (const dcfs::obs::TraceEvent& e : events) {
    if (e.phase == 'B') {
      if (depth == 0) save_begin = e.ts;
      if (depth == 1) layer_begin = e.ts;
      ++depth;
    } else if (e.phase == 'E') {
      --depth;
      if (depth == 1) covered += static_cast<double>(e.ts - layer_begin);
      if (depth == 0) wall += static_cast<double>(e.ts - save_begin);
    }
  }
  return ratio(covered, wall);
}

std::vector<Metric> per_layer(const Phase& p, const Phase& untraced,
                              Stack& s, double coverage) {
  const LayerTotals& t = p.layers;
  const std::uint64_t n = p.saves;
  const std::int64_t sync_ns = t.incl(Layer::app_fs) +
                               t.incl(Layer::writer_tick) +
                               t.incl(Layer::pump) + t.incl(Layer::reader_tick);
  const double writer_us =
      static_cast<double>(t.incl(Layer::app_fs) + t.incl(Layer::writer_tick)) /
      1e3;
  const double pump_us = static_cast<double>(t.incl(Layer::pump)) / 1e3;
  const auto per_save = [&](auto v) { return ratio(v, n); };
  const auto us_per_save = [&](std::int64_t ns) {
    return ratio(static_cast<double>(ns) / 1e3, n);
  };
  const ClientCounters& c = p.counters;
  const std::uint64_t relation = c.relation_hits + c.relation_misses;
  const std::uint64_t deltas = c.delta_replaced + c.delta_kept_rpc;
  const std::uint64_t sigcache = c.sigcache_hits + c.sigcache_misses;
  return {
      {"vfs.memfs_us_per_save", us_per_save(t.incl(Layer::memfs)), "us",
       t.count(Layer::memfs)},
      {"vfs.intercept_self_us_per_save", us_per_save(t.self(Layer::app_fs)),
       "us", t.count(Layer::app_fs)},
      {"vfs.ops_per_save", per_save(t.count(Layer::app_fs)), "count", n},
      {"vfs.fg_share", ratio(t.incl(Layer::app_fs), sync_ns), "ratio", n},
      {"core.tick_us_per_save", us_per_save(t.incl(Layer::writer_tick)), "us",
       t.count(Layer::writer_tick)},
      {"core.records_per_save", per_save(p.records_uploaded), "count", n},
      {"core.queue_merges_per_save", per_save(c.queue_merges), "count", n},
      {"core.relation_hit_ratio", ratio(c.relation_hits, relation), "ratio",
       relation},
      {"core.delta_accept_ratio", ratio(c.delta_replaced, deltas), "ratio",
       deltas},
      {"core.sigcache_hit_ratio", ratio(c.sigcache_hits, sigcache), "ratio",
       sigcache},
      {"core.modeled_over_measured", ratio(p.client_modeled_us, writer_us),
       "ratio", n},
      {"rsyncx.signature_mb_per_s", p.signature.mb_per_s(), "MB/s",
       p.signature.calls},
      {"rsyncx.delta_local_mb_per_s", p.delta_local.mb_per_s(), "MB/s",
       p.delta_local.calls},
      {"rsyncx.apply_delta_mb_per_s", p.apply_delta.mb_per_s(), "MB/s",
       p.apply_delta.calls},
      {"rsyncx.share_of_intercept",
       ratio(p.signature.ns + p.delta_local.ns, t.self(Layer::app_fs)), "ratio",
       p.signature.calls},
      {"net.up_bytes_per_save", per_save(p.writer_up_bytes), "bytes", n},
      {"net.down_bytes_per_save", per_save(p.writer_down_bytes), "bytes", n},
      {"net.up_frames_per_save", per_save(p.writer_up_frames), "count", n},
      {"net.peer_down_bytes_per_save", per_save(p.reader_down_bytes), "bytes",
       n},
      {"server.pump_us_per_save", us_per_save(t.incl(Layer::pump)), "us",
       t.count(Layer::pump)},
      {"server.pump_share", ratio(t.incl(Layer::pump), sync_ns), "ratio", n},
      {"server.us_per_record", ratio(pump_us, p.records_applied), "us",
       p.records_applied},
      {"server.records_per_save", per_save(p.records_applied), "count", n},
      {"server.block_put_mb_per_s", p.block_put.mb_per_s(), "MB/s",
       p.block_put.calls},
      {"server.block_put_share", ratio(p.block_put.ns, t.incl(Layer::pump)),
       "ratio", p.block_put.calls},
      {"server.store_dedup_ratio", s.server.store().dedup_ratio(), "ratio", 1},
      {"server.modeled_over_measured", ratio(p.server_modeled_us, pump_us),
       "ratio", n},
      {"peer.tick_us_per_save", us_per_save(t.incl(Layer::reader_tick)), "us",
       t.count(Layer::reader_tick)},
      {"peer.forwards_per_save", per_save(p.forwards), "count", n},
      {"trace.overhead_pct",
       100.0 * ratio(p.wall_s - untraced.wall_s, untraced.wall_s), "%", n},
      {"trace.layer_coverage", coverage, "ratio", n},
  };
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return make_workload(o.workload, 0) != nullptr && o.seconds > 0 &&
         o.seconds <= 600;
}

int run(const Options& o) {
  const Host host;
  std::printf("host %s\n", host.json().c_str());
  if (!host.timings_valid()) {
    std::fprintf(stderr,
                 "wallbench: refusing to report timings from a %s%s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 host.build_type.c_str(), host.sanitized ? " sanitizer" : "");
    return 3;
  }
  const std::uint64_t saves = std::max<std::uint64_t>(
      kMinSaves, static_cast<std::uint64_t>(
                     std::ceil(o.seconds * saves_per_second(o.workload))));
  const bool replay_store = o.workload == "db_commit";
  LayerClock layers;

  if (!o.trace) {
    std::vector<double> setups;
    Built b;
    bool setup_ok = true;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      b = {};  // release the previous stack before building the next
      b = build(o.workload, o.seed, layers);
      setups.push_back(b.setup_s);
      setup_ok = setup_ok && b.ok;
    }
    Session session(std::move(b), layers);
    for (std::uint64_t i = 0; i < saves; ++i) session.save(i, nullptr, false);
    // Read before the final checks copy any file.
    const double rss_mb = peak_rss_mb();
    const Phase& p = session.phase();
    Built& done = session.built();
    const std::vector<Metric> metrics =
        end_to_end(p, *done.stack, setups, rss_mb);
    const bool converged = namespace_matches(*done.stack, *done.workload);
    const bool correct = setup_ok && converged && p.failed == 0;
    std::printf("workload %s seed %llu saves %llu setup_ok %d "
                "namespace_ok %d model_mib %.2f\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(p.saves), setup_ok, converged,
                model_mib(*done.workload));
    // A failed set-up or final namespace check fails the run even when
    // every save passed.
    const std::uint64_t failed =
        correct ? 0 : std::max<std::uint64_t>(p.failed, 1);
    print_result(correct, p.saves, failed, metrics);
    return correct ? 0 : 1;
  }

  // The same saves replayed twice, interleaved save by save so that drift
  // in the host's speed hits both alike: untraced (the base of
  // trace.overhead_pct) and traced (every per-layer number).
  const std::uint64_t traced_saves = std::min(saves, kMaxTracedSaves);
  Session plain(build(o.workload, o.seed, layers), layers);
  Session traced(build(o.workload, o.seed, layers), layers);
  dcfs::SteadyClock steady;
  dcfs::obs::Tracer tracer;
  tracer.enable(steady);
  for (std::uint64_t i = 0; i < traced_saves; ++i) {
    plain.save(i, nullptr, false);
    layers.set_tracer(&tracer);
    traced.save(i, &tracer, replay_store);
    layers.set_tracer(nullptr);
  }
  tracer.disable();
  const Phase& untraced = plain.phase();
  const Phase& p = traced.phase();
  bool ok = true;
  for (Session* session : {&plain, &traced}) {
    Built& b = session->built();
    ok = ok && b.ok && namespace_matches(*b.stack, *b.workload);
  }

  const std::string chrome = tracer.to_chrome_json();
  std::string error;
  std::size_t events = 0;
  const bool trace_valid =
      tracer.dropped() == 0 &&
      dcfs::obs::validate_chrome_trace(chrome, &error, &events);
  if (!trace_valid) {
    std::fprintf(stderr, "wallbench: invalid trace: %s\n", error.c_str());
  }
  if (!o.trace_out.empty()) {
    std::ofstream(o.trace_out, std::ios::binary) << chrome;
  }
  const double coverage = layer_coverage(tracer.events());
  const bool correct =
      ok && trace_valid && p.failed == 0 && untraced.failed == 0;
  std::printf("workload %s seed %llu traced_saves %llu trace_events %zu%s%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(p.saves), events,
              o.trace_out.empty() ? "" : " trace ", o.trace_out.c_str());
  const std::uint64_t failed =
      correct ? 0 : std::max<std::uint64_t>(p.failed + untraced.failed, 1);
  print_result(correct, p.saves + untraced.saves, failed,
               per_layer(p, untraced, *traced.built().stack, coverage));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  wallbench::Options options;
  if (!wallbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload "
                 "office_save|db_commit|small_files --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return wallbench::run(options);
}
