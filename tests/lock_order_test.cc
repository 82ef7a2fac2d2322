// The declared lock order (src/chk/lock_order.h) vs. reality:
//
//   * the declaration itself must be acyclic and must match the
//     machine-readable manifest (tools/lock_order.json) token for token —
//     editing one without the other fails here;
//   * a real parallel client/server workload (delta threads, sharded
//     apply, kvstore auto-compaction, tracing) must run
//     with zero lockdep violations, and every cross-class nesting the
//     runtime graph observed must be covered by the declared order;
//   * the observed DOT is exported to lockdep_runtime.dot so CI can run
//     tools/lockdep_check.py — the out-of-process twin of the in-process
//     assertions — over the same graph.
//
// With DCFS_CHK=OFF the runtime graph is empty and the workload half is
// vacuous; the manifest/acyclicity half still runs.
#include "chk/lock_order.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "baselines/deltacfs_system.h"
#include "chk/lockdep.h"
#include "common/rng.h"
#include "kvstore/kvstore.h"
#include "obs/obs.h"
#include "par/worker_pool.h"

namespace dcfs {
namespace {

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Extracts the edge set from a lockdep DOT export:  "a" -> "b" [...].
std::set<std::pair<std::string, std::string>> dot_edges(
    const std::string& dot) {
  std::set<std::pair<std::string, std::string>> edges;
  std::istringstream lines(dot);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t arrow = line.find("\" -> \"");
    if (arrow == std::string::npos) continue;
    const std::size_t from_begin = line.find('"');
    if (from_begin == std::string::npos || from_begin >= arrow) continue;
    const std::string from = line.substr(from_begin + 1, arrow - from_begin - 1);
    const std::size_t to_begin = arrow + 6;
    const std::size_t to_end = line.find('"', to_begin);
    if (to_end == std::string::npos) continue;
    edges.emplace(from, line.substr(to_begin, to_end - to_begin));
  }
  return edges;
}

TEST(LockOrderTest, DeclaredOrderIsAcyclic) {
  EXPECT_TRUE(chk::lock_order_acyclic());
}

TEST(LockOrderTest, AllowsFollowsTransitiveClosure) {
  // Direct edge.
  EXPECT_TRUE(chk::lock_order_allows("par.pool", "par.batch"));
  // Two hops: pool -> batch -> batch_error.
  EXPECT_TRUE(chk::lock_order_allows("par.pool", "par.batch_error"));
  // Three hops into the obs leaves.
  EXPECT_TRUE(chk::lock_order_allows("par.pool", "obs.logger"));
  // Inversions and unrelated pairs are rejected.
  EXPECT_FALSE(chk::lock_order_allows("par.batch", "par.pool"));
  EXPECT_FALSE(chk::lock_order_allows("obs.logger", "kvstore.table"));
  EXPECT_FALSE(chk::lock_order_allows("kvstore.table", "server.block_store"));
  // Unknown classes are never allowed — new mutexes must be declared.
  EXPECT_FALSE(chk::lock_order_allows("nosuch.class", "obs.logger"));
  // Test fixtures are exempt (chk_test builds deliberate cycles).
  EXPECT_TRUE(chk::lock_order_allows("test.inv_a", "test.inv_b"));
  EXPECT_TRUE(chk::lock_order_allows("test.inv_b", "test.inv_a"));
}

TEST(LockOrderTest, ManifestMatchesDeclaration) {
#if !defined(DCFS_SOURCE_DIR)
  GTEST_SKIP() << "DCFS_SOURCE_DIR not defined";
#else
  const std::string path = std::string(DCFS_SOURCE_DIR) +
                           "/tools/lock_order.json";
  const std::string on_disk = read_file_or_empty(path);
  ASSERT_FALSE(on_disk.empty()) << "missing " << path;
  EXPECT_EQ(on_disk, chk::lock_order_json())
      << "tools/lock_order.json is out of sync with src/chk/lock_order.h — "
         "regenerate it from lock_order_json() (the expected content is the "
         "right-hand side above)";
#endif
}

// Drives every lock-owning subsystem at once — parallel delta kernels,
// sharded server apply, tracing + metrics + logging, and a kvstore with
// auto-compaction under a worker pool — then checks the lockdep graph this
// produced against the declared order and exports it for
// tools/lockdep_check.py.
TEST(LockOrderTest, WorkloadObeysDeclaredOrderAndExportsDot) {
#if defined(DCFS_CHK_ENABLED)
  const std::uint64_t violations_before = chk::violation_count();
#endif
  {
    obs::Obs obs;
    VirtualClock clock;
    obs.tracer.enable(clock);
    obs.tracer.set_process(1, "lock_order_test");

    ClientConfig config;
    config.client_id = 1;
    config.delta_threads = 2;
    ServerConfig server_config;
    server_config.apply_shards = 2;

    DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                          config, CostProfile::pc(), &obs, server_config);
    system.fs().mkdir("/sync");

    Rng rng(7);
    Bytes content = rng.bytes(300'000);
    system.fs().write_file("/sync/doc", content);
    for (int round = 0; round < 4; ++round) {
      for (Duration t = 0; t < seconds(12); t += milliseconds(200)) {
        clock.advance(milliseconds(200));
        system.tick(clock.now());
      }
      // Transactional rewrite: exercises signature cache, delta kernels on
      // the pool, sharded apply and block-store history on the server.
      content[static_cast<std::size_t>(rng.next_u32()) % content.size()] ^= 1;
      system.fs().rename("/sync/doc", "/sync/doc.bak");
      system.fs().write_file("/sync/doc.tmp", content);
      system.fs().rename("/sync/doc.tmp", "/sync/doc");
      system.fs().unlink("/sync/doc.bak");
    }
    system.finish(clock.now());
    obs.tracer.disable();

    // A kvstore compacting under concurrent pool traffic: the self-deadlock
    // class PR 5 caught ran kvstore.table recursively; here compaction and
    // puts interleave with pool-lane metrics, populating kvstore edges.
    auto storage = std::make_shared<MemoryWalStorage>();
    KvStore kv(storage);
    kv.set_auto_compaction(1.5, 1024);
    par::WorkerPool pool(3, &obs);
    pool.parallel_for(64, 4, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::string key = "key" + std::to_string(i % 8);
        const Bytes value = Bytes(200, static_cast<std::uint8_t>(i));
        kv.put(key, value);
        (void)kv.get(key);
      }
    });
    EXPECT_EQ(kv.size(), 8u);
  }

#if defined(DCFS_CHK_ENABLED)
  EXPECT_EQ(chk::violation_count(), violations_before)
      << "the workload tripped runtime lockdep";
#endif

  const std::string dot = chk::lockdep_dot();
  for (const auto& [from, to] : dot_edges(dot)) {
    EXPECT_TRUE(chk::lock_order_allows(from, to))
        << "observed nesting " << from << " -> " << to
        << " is not covered by the declared order (src/chk/lock_order.h)";
  }

  // Exported for CI: python3 tools/lockdep_check.py lockdep_runtime.dot
  std::ofstream out("lockdep_runtime.dot", std::ios::binary);
  ASSERT_TRUE(out.good());
  out << dot;
}

}  // namespace
}  // namespace dcfs
