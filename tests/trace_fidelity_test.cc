// Trace fidelity: the workload generators must reproduce the operation
// patterns and the published statistics of §IV-A / Fig. 3 — and the
// tracer's cross-wire export must stay structurally valid (balanced B/E,
// bindable flow events) when a real sync pipeline runs under it.
#include <gtest/gtest.h>

#include "baselines/deltacfs_system.h"
#include "common/rng.h"
#include "obs/critpath.h"
#include "obs/obs.h"
#include "trace/workloads.h"
#include "vfs/intercept.h"
#include "vfs/memfs.h"

namespace dcfs {
namespace {

/// Records the raw op stream a workload produces (what LibFuse would see).
struct OpRecorder final : OpSink {
  std::vector<std::string> ops;

  void note_create(std::string_view path) override {
    ops.push_back("create " + std::string(path));
  }
  void note_write(std::string_view path, std::uint64_t offset, ByteSpan data,
                  ByteSpan, std::uint64_t) override {
    ops.push_back("write " + std::string(path) + " @" +
                  std::to_string(offset) + " +" +
                  std::to_string(data.size()));
  }
  void note_truncate(std::string_view path, std::uint64_t new_size,
                     std::uint64_t, ByteSpan) override {
    ops.push_back("truncate " + std::string(path) + " " +
                  std::to_string(new_size));
  }
  void note_rename(std::string_view from, std::string_view to,
                   bool) override {
    ops.push_back("rename " + std::string(from) + " " + std::string(to));
  }
  void note_unlink(std::string_view path) override {
    ops.push_back("unlink " + std::string(path));
  }

  [[nodiscard]] std::size_t count(const std::string& prefix) const {
    std::size_t n = 0;
    for (const std::string& op : ops) {
      if (op.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }
};

struct Harness {
  Harness() : fs(clock), recorder(), intercepted(fs, recorder) {
    fs.mkdir("/sync");
  }
  VirtualClock clock;
  MemFs fs;
  OpRecorder recorder;
  InterceptingFs intercepted;

  void run(Workload& workload) {
    workload.setup(intercepted);
    recorder.ops.clear();  // measure only the trace body, like the benches
    while (workload.step(intercepted)) {
      clock.advance(seconds(1));
    }
  }
};

// ---------------------------------------------------------------------------

TEST(TraceFidelityTest, PaperParametersMatchSectionIVA) {
  // §IV-A: append = 40 ops of ~800 KB, final 32 MB.
  const AppendParams append = AppendParams::paper();
  EXPECT_EQ(append.appends, 40u);
  EXPECT_EQ(append.append_bytes, 800u * 1024);
  EXPECT_EQ(append.appends * append.append_bytes, 32'768'000u);
  EXPECT_EQ(append.interval, seconds(15));

  // random = 40 writes of 1010 bytes on a 20 MB file.
  const RandomWriteParams random = RandomWriteParams::paper();
  EXPECT_EQ(random.writes, 40u);
  EXPECT_EQ(random.write_bytes, 1010u);
  EXPECT_EQ(random.file_bytes, 20ull << 20);

  // Word = 61 saves, 12.1 -> 16.7 MB.
  const WordParams word = WordParams::paper();
  EXPECT_EQ(word.saves, 61u);
  EXPECT_NEAR(static_cast<double>(word.initial_bytes) / 1e6, 12.7, 0.7);
  EXPECT_NEAR(static_cast<double>(word.final_bytes) / 1e6, 17.5, 0.9);

  // WeChat = 373 updates, 131 -> 137 MB.
  const WeChatParams wechat = WeChatParams::paper();
  EXPECT_EQ(wechat.updates, 373u);
  EXPECT_EQ(wechat.initial_bytes, 131ull << 20);
  EXPECT_EQ(wechat.final_bytes, 137ull << 20);
}

TEST(TraceFidelityTest, WordTraceFollowsFig3Sequence) {
  Harness harness;
  WordParams params = WordParams::scaled();
  params.saves = 3;
  params.initial_bytes = 200'000;
  params.final_bytes = 230'000;
  WordWorkload workload(params);
  harness.run(workload);

  // Per save: rename f->backup, create temp, writes, rename temp->f,
  // unlink backup (Fig. 3, Microsoft Word row).
  EXPECT_EQ(harness.recorder.count("rename /sync/report.doc /sync/report"),
            3u);  // rename f -> backup
  EXPECT_EQ(harness.recorder.count("create /sync/report.doc.dft"), 3u);
  EXPECT_EQ(harness.recorder.count(
                "rename /sync/report.doc.dft /sync/report.doc"),
            3u);
  EXPECT_EQ(harness.recorder.count("unlink "), 3u);

  // The op ordering within the first save.
  std::vector<std::string> kinds;
  for (const std::string& op : harness.recorder.ops) {
    const std::string kind = op.substr(0, op.find(' '));
    if (kinds.empty() || kinds.back() != kind) kinds.push_back(kind);
    if (kinds.size() == 5) break;
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{"rename", "create", "write",
                                             "rename", "unlink"}));
}

TEST(TraceFidelityTest, WeChatTraceFollowsFig3Sequence) {
  Harness harness;
  WeChatParams params = WeChatParams::scaled();
  params.updates = 4;
  params.initial_bytes = 1 << 20;
  params.final_bytes = (1 << 20) + 64 * 1024;
  WeChatWorkload workload(params);
  harness.run(workload);

  // Fig. 3, WeChat row: create-write journal, write db, truncate journal.
  // SQLite's TRUNCATE journal mode (which Fig. 3's "truncate f_journal 0"
  // implies) creates the journal once and truncates it on every commit.
  EXPECT_EQ(harness.recorder.count("create /sync/chat.db-journal"), 1u);
  EXPECT_EQ(harness.recorder.count("truncate /sync/chat.db-journal 0"), 4u);
  EXPECT_GT(harness.recorder.count("write /sync/chat.db "), 0u);

  // The db writes are small relative to the file (in-place updates); the
  // header write at offset 24 is sub-page (non-aligned).
  EXPECT_GT(harness.recorder.count("write /sync/chat.db @24 +"), 0u);
}

TEST(TraceFidelityTest, WordContentShiftsAcrossSaves) {
  // The generator must actually shift content (the dedup-defeating
  // property): after a save, a suffix of the old content appears at a
  // strictly greater offset.
  WordParams params = WordParams::scaled();
  params.initial_bytes = 100'000;
  params.final_bytes = 110'000;
  params.saves = 2;
  WordWorkload workload(params);

  VirtualClock clock;
  MemFs fs(clock);
  fs.mkdir("/sync");
  workload.setup(fs);
  const Bytes before = *fs.read_file(params.doc);
  workload.step(fs);
  const Bytes after = *fs.read_file(params.doc);

  EXPECT_GT(after.size(), before.size());
  // The last 1 KB of the old content exists in the new content, shifted.
  const Bytes tail(before.end() - 1024, before.end());
  const auto it = std::search(after.begin(), after.end(), tail.begin(),
                              tail.end());
  ASSERT_NE(it, after.end());
  EXPECT_GT(it - after.begin(),
            static_cast<std::ptrdiff_t>(before.size()) - 1024);
}

TEST(TraceFidelityTest, AppendGrowsMonotonically) {
  AppendParams params = AppendParams::scaled();
  params.appends = 5;
  AppendWorkload workload(params);
  VirtualClock clock;
  MemFs fs(clock);
  fs.mkdir("/sync");
  std::uint64_t last_size = 0;
  while (workload.step(fs)) {
    const std::uint64_t size = fs.stat(params.path)->size;
    EXPECT_GT(size, last_size);
    last_size = size;
  }
  EXPECT_EQ(fs.stat(params.path)->size,
            static_cast<std::uint64_t>(params.appends) * params.append_bytes);
}

// ---------------------------------------------------------------------------
// Cross-wire trace fidelity: a traced end-to-end sync must export a Chrome
// trace whose begin/end pairs balance on every track and whose flow events
// bind each server-side apply back to the originating client transaction —
// across the threading matrix (delta workers × apply shards).

TEST(TraceFidelityTest, TracedSyncValidatesAcrossThreadingMatrix) {
  for (const std::size_t delta_threads : {1u, 4u}) {
    for (const std::size_t apply_shards : {1u, 2u}) {
      SCOPED_TRACE("delta_threads=" + std::to_string(delta_threads) +
                   " apply_shards=" + std::to_string(apply_shards));
      VirtualClock clock;
      obs::Obs obs;
      obs.tracer.enable(clock);
      ClientConfig config;
      config.delta_threads = delta_threads;
      ServerConfig server_config;
      server_config.apply_shards = apply_shards;
      DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                            config, CostProfile::pc(), &obs, server_config);
      system.fs().mkdir("/sync");

      // A small but multi-op workload: creates, overwrites, a rename — then
      // enough virtual time for every upload and ack to complete.
      for (int round = 0; round < 3; ++round) {
        for (int file = 0; file < 4; ++file) {
          const std::string path =
              "/sync/f" + std::to_string(file) + ".txt";
          const std::string body(1'500 + 700 * round + 31 * file,
                                 static_cast<char>('a' + round));
          ASSERT_TRUE(system.fs().write_file(path, to_bytes(body)).is_ok());
        }
        for (int i = 0; i < 15; ++i) {
          clock.advance(milliseconds(200));
          system.tick(clock.now());
        }
      }
      system.fs().rename("/sync/f0.txt", "/sync/g0.txt");
      system.finish(clock.now());
      for (int i = 0; i < 50; ++i) {
        clock.advance(milliseconds(200));
        system.tick(clock.now());
      }

      // Balanced B/E on every track, and every flow event bindable.
      EXPECT_TRUE(obs::well_nested(obs.tracer.events()));
      EXPECT_EQ(obs.tracer.open_spans(), 0u);
      const std::string json = obs.tracer.to_chrome_json();
      std::string error;
      std::size_t event_count = 0;
      EXPECT_TRUE(obs::validate_chrome_trace(json, &error, &event_count))
          << error;
      EXPECT_GT(event_count, 0u);

      // Every server apply reachable from its client txn: the critical-path
      // analyzer sees only complete four-endpoint transactions.
      obs::ParsedTrace parsed;
      ASSERT_TRUE(obs::parse_chrome_trace(json, parsed, &error)) << error;
      const obs::CritPathReport report = obs::analyze_critical_path(parsed);
      EXPECT_GT(report.overall.txns, 0u);
      EXPECT_EQ(report.overall.incomplete, 0u);

      // The stage decomposition partitions traced wall time: per-stage sums
      // must add up to the total (the CI acceptance bound is 5%).
      const std::uint64_t stage_sum = report.overall.transport.sum() +
                                      report.overall.apply.sum() +
                                      report.overall.ack.sum();
      const std::uint64_t total = report.overall.total.sum();
      EXPECT_LE(stage_sum, total + total / 20);
      EXPECT_GE(stage_sum + total / 20, total);

      // The stage ledger saw the same pipeline.
      EXPECT_GT(obs.stages.sketch(obs::Stage::apply).count(), 0u);
      EXPECT_GT(obs.stages.sketch(obs::Stage::queue_wait).count(), 0u);
    }
  }
}

}  // namespace
}  // namespace dcfs
