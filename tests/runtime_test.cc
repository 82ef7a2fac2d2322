// dcfs::rt — timer wheel / reactor / driver unit behavior, plus the
// tentpole guarantee of the async runtime: with bounded-window chunk
// streaming on, server state, version histories, peer views and ack
// effects are byte-identical to the serial one-record pump at every
// thread count and shard count — while client memory for a
// streamed file stays O(window), and small interactive ops keep flowing
// around an in-flight bulk stream.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "net/transport.h"
#include "rt/credit.h"
#include "rt/driver.h"
#include "rt/reactor.h"
#include "rt/timer_wheel.h"
#include "server/cloud_server.h"
#include "vfs/intercept.h"
#include "vfs/memfs.h"

namespace dcfs {
namespace {

// ---------------------------------------------------------------------------
// TimerWheel
// ---------------------------------------------------------------------------

TEST(TimerWheel, FiresInDeadlineOrder) {
  rt::TimerWheel wheel;
  std::vector<int> fired;
  wheel.schedule(milliseconds(30), [&] { fired.push_back(3); });
  wheel.schedule(milliseconds(10), [&] { fired.push_back(1); });
  wheel.schedule(milliseconds(20), [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_EQ(wheel.next_deadline(), std::optional<TimePoint>(milliseconds(10)));

  EXPECT_EQ(wheel.advance_until(milliseconds(25)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(wheel.next_deadline(), std::optional<TimePoint>(milliseconds(30)));

  EXPECT_EQ(wheel.advance_until(milliseconds(40)), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(wheel.next_deadline().has_value());
}

TEST(TimerWheel, SameInstantFiresInScheduleOrder) {
  rt::TimerWheel wheel;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    wheel.schedule(milliseconds(10), [&fired, i] { fired.push_back(i); });
  }
  wheel.advance_until(milliseconds(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, CancelDisarms) {
  rt::TimerWheel wheel;
  int fired = 0;
  const rt::TimerWheel::TimerId keep =
      wheel.schedule(milliseconds(10), [&] { ++fired; });
  const rt::TimerWheel::TimerId drop =
      wheel.schedule(milliseconds(10), [&] { fired += 100; });
  EXPECT_TRUE(wheel.cancel(drop));
  EXPECT_FALSE(wheel.cancel(drop));  // already gone
  wheel.advance_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.cancel(keep));  // already fired
}

TEST(TimerWheel, PastDueDeadlineFiresOnNextAdvance) {
  rt::TimerWheel wheel;
  wheel.advance_until(milliseconds(100));
  int fired = 0;
  wheel.schedule(milliseconds(50), [&] { ++fired; });  // already overdue
  EXPECT_EQ(wheel.advance_until(milliseconds(110)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, DeadlineBeyondOneRevolutionWaitsItsTurn) {
  // 8 slots x 1 ms: a 20 ms deadline shares a slot with earlier windows
  // but must not fire until its own revolution.
  rt::TimerWheel wheel(0, milliseconds(1), 8);
  int fired = 0;
  wheel.schedule(milliseconds(20), [&] { ++fired; });
  for (TimePoint t = milliseconds(1); t <= milliseconds(19);
       t += milliseconds(1)) {
    wheel.advance_until(t);
    EXPECT_EQ(fired, 0) << "at " << t;
  }
  wheel.advance_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CallbackMayArmTimerDueInSameWindow) {
  rt::TimerWheel wheel;
  std::vector<int> fired;
  wheel.schedule(milliseconds(10), [&] {
    fired.push_back(1);
    wheel.schedule(milliseconds(15), [&] { fired.push_back(2); });
  });
  wheel.advance_until(milliseconds(20));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// CreditGate / MemLedger
// ---------------------------------------------------------------------------

TEST(CreditGate, ConsumeGrantAndStalls) {
  rt::CreditGate gate(100);
  EXPECT_EQ(gate.consume(60), 60u);
  EXPECT_EQ(gate.consume(60), 40u);  // partial grant
  EXPECT_EQ(gate.consume(60), 0u);   // starved -> stall
  EXPECT_EQ(gate.stalls(), 1u);
  gate.grant(30);
  EXPECT_EQ(gate.available(), 30u);
  EXPECT_EQ(gate.consume(10), 10u);
  EXPECT_EQ(gate.stalls(), 1u);
  EXPECT_EQ(gate.consume(0), 0u);  // a zero-byte draw is not a stall
  EXPECT_EQ(gate.stalls(), 1u);
}

TEST(MemLedger, TracksHighwater) {
  rt::MemLedger ledger;
  ledger.acquire(100);
  ledger.acquire(50);
  ledger.release(120);
  ledger.acquire(10);
  EXPECT_EQ(ledger.current(), 40u);
  EXPECT_EQ(ledger.highwater(), 150u);
  ledger.release(1000);  // clamped, never underflows
  EXPECT_EQ(ledger.current(), 0u);
}

// ---------------------------------------------------------------------------
// Reactor QoS
// ---------------------------------------------------------------------------

TEST(Reactor, InteractivePreemptsBulk) {
  rt::Reactor reactor;
  const rt::ConnId conn = reactor.add_connection("cloud");
  std::vector<std::string> order;
  reactor.make_ready(conn, rt::TaskClass::bulk,
                     [&] { order.push_back("bulk0"); });
  reactor.make_ready(conn, rt::TaskClass::interactive,
                     [&] { order.push_back("meta0"); });
  reactor.make_ready(conn, rt::TaskClass::bulk,
                     [&] { order.push_back("bulk1"); });
  reactor.make_ready(conn, rt::TaskClass::interactive,
                     [&] { order.push_back("meta1"); });
  EXPECT_EQ(reactor.queue_depth(), 4u);
  EXPECT_EQ(reactor.poll(0), 4u);
  EXPECT_EQ(order, (std::vector<std::string>{"meta0", "meta1", "bulk0",
                                             "bulk1"}));
  EXPECT_EQ(reactor.queue_depth(), 0u);
}

TEST(Reactor, InteractiveWorkEnqueuedByBulkTaskRunsBeforeNextBulk) {
  rt::Reactor reactor;
  const rt::ConnId conn = reactor.add_connection("cloud");
  std::vector<std::string> order;
  reactor.make_ready(conn, rt::TaskClass::bulk, [&] {
    order.push_back("bulk0");
    reactor.make_ready(conn, rt::TaskClass::interactive,
                       [&] { order.push_back("meta-late"); });
  });
  reactor.make_ready(conn, rt::TaskClass::bulk,
                     [&] { order.push_back("bulk1"); });
  reactor.poll(0);
  EXPECT_EQ(order,
            (std::vector<std::string>{"bulk0", "meta-late", "bulk1"}));
}

TEST(Reactor, RoundRobinAcrossConnectionsWithinClass) {
  rt::Reactor reactor;
  const rt::ConnId a = reactor.add_connection("a");
  const rt::ConnId b = reactor.add_connection("b");
  std::vector<std::string> order;
  reactor.make_ready(a, rt::TaskClass::bulk, [&] { order.push_back("a0"); });
  reactor.make_ready(a, rt::TaskClass::bulk, [&] { order.push_back("a1"); });
  reactor.make_ready(b, rt::TaskClass::bulk, [&] { order.push_back("b0"); });
  reactor.make_ready(b, rt::TaskClass::bulk, [&] { order.push_back("b1"); });
  EXPECT_EQ(reactor.queue_depth(a), 2u);
  reactor.poll(0);
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1", "b1"}));
  EXPECT_EQ(reactor.connection_name(b), "b");
  EXPECT_EQ(reactor.tasks_run(), 4u);
}

TEST(Reactor, PollAdvancesTimersFirst) {
  rt::Reactor reactor;
  const rt::ConnId conn = reactor.add_connection("cloud");
  std::vector<std::string> order;
  reactor.timers().schedule(milliseconds(5), [&] {
    order.push_back("timer");
    reactor.make_ready(conn, rt::TaskClass::bulk,
                       [&] { order.push_back("timer-armed"); });
  });
  reactor.make_ready(conn, rt::TaskClass::interactive,
                     [&] { order.push_back("meta"); });
  reactor.poll(milliseconds(10));
  EXPECT_EQ(order,
            (std::vector<std::string>{"timer", "meta", "timer-armed"}));
}

// ---------------------------------------------------------------------------
// Driver: serial sum vs reactor makespan
// ---------------------------------------------------------------------------

TEST(Driver, ReactorMakespanBeatsSerialSum) {
  auto make_step = [](VirtualClock& clock, int* left) {
    return [&clock, left] {
      clock.advance(milliseconds(10));
      return --*left > 0;
    };
  };
  Duration serial = 0;
  {
    VirtualClock ca, cb;
    int la = 5, lb = 5;
    rt::Driver driver;
    driver.add("a", ca, make_step(ca, &la));
    driver.add("b", cb, make_step(cb, &lb));
    serial = driver.run_serial();
  }
  Duration makespan = 0;
  {
    VirtualClock ca, cb;
    int la = 5, lb = 5;
    rt::Driver driver;
    driver.add("a", ca, make_step(ca, &la));
    driver.add("b", cb, make_step(cb, &lb));
    makespan = driver.run_reactor();
  }
  EXPECT_EQ(serial, milliseconds(100));  // 2 timelines x 50 ms, summed
  EXPECT_EQ(makespan, milliseconds(50));  // overlapped: the slowest one
}

// ---------------------------------------------------------------------------
// Streaming end-to-end equivalence matrix
// ---------------------------------------------------------------------------

struct StreamE2eConfig {
  bool streaming = false;
  std::uint32_t delta_threads = 1;
  std::size_t apply_shards = 1;
};

struct E2eDigest {
  std::string state;  ///< server files, versions, histories, counters
  std::string peer;   ///< client B's forwarded view of the namespace
  std::uint64_t uploaded = 0;
  std::uint64_t forwards = 0;
  std::uint64_t errors = 0;
  std::uint64_t streams = 0;
};

/// Two clients share one cloud: client A imports two large files (streamed
/// when streaming is on), moves a third into scope, edits one in place and
/// sprays small metadata ops; client B contributes its own file.  The
/// observable outcome must not depend on the transfer mechanism.
E2eDigest run_stream_e2e(const StreamE2eConfig& cfg) {
  VirtualClock clock;
  MemFs local_a(clock);
  MemFs local_b(clock);
  Transport transport_a(NetProfile::pc_wan());
  Transport transport_b(NetProfile::pc_wan());

  ServerConfig server_config;
  server_config.apply_shards = cfg.apply_shards;
  CloudServer server(CostProfile::pc(), server_config);

  auto client_config = [&cfg](std::uint32_t id) {
    ClientConfig config;
    config.client_id = id;
    config.delta_threads = cfg.delta_threads;
    if (cfg.streaming) {
      config.stream_window_bytes = 16 * 1024;
      config.stream_chunk_bytes = 4 * 1024;
      config.stream_min_bytes = 48 * 1024;
    }
    return config;
  };
  DeltaCfsClient client_a(local_a, transport_a, clock, CostProfile::pc(),
                          client_config(1));
  DeltaCfsClient client_b(local_b, transport_b, clock, CostProfile::pc(),
                          client_config(2));
  InterceptingFs fs_a(local_a, client_a);
  InterceptingFs fs_b(local_b, client_b);
  server.attach(1, transport_a);
  server.attach(2, transport_b);

  auto settle = [&](Duration duration = seconds(12)) {
    for (Duration t = 0; t < duration; t += milliseconds(200)) {
      clock.advance(milliseconds(200));
      client_a.tick(clock.now());
      client_b.tick(clock.now());
      server.pump();
      client_a.tick(clock.now());
      client_b.tick(clock.now());
    }
    client_a.flush(clock.now());
    client_b.flush(clock.now());
    server.pump();
    client_a.tick(clock.now());
    client_b.tick(clock.now());
  };

  fs_a.mkdir("/sync");
  fs_b.mkdir("/sync");
  settle(seconds(4));

  Rng rng(99);

  // Two large files enter via import (full_file nodes — the streaming
  // path), one small one rides along.
  local_a.write_file("/sync/big.dat", rng.bytes(160 * 1024));
  local_a.write_file("/sync/album.bin", rng.bytes(96 * 1024));
  local_a.write_file("/sync/readme.txt", rng.text(2 * 1024));
  client_a.import_tree();
  fs_b.write_file("/sync/peer.log", rng.text(8 * 1024));
  settle();

  // A large file moves into scope (the other full_file producer).
  local_a.mkdir("/outside");
  local_a.write_file("/outside/moved.dat", rng.bytes(80 * 1024));
  fs_a.rename("/outside/moved.dat", "/sync/moved.dat");
  settle();

  // In-place patch of a streamed file (write node on a once-streamed
  // path), metadata churn, and a burst of small files.
  {
    Result<FileHandle> h = fs_a.open("/sync/big.dat");
    if (h) {
      fs_a.write(*h, 4096, rng.bytes(512));
      fs_a.close(*h);
    }
  }
  fs_a.rename("/sync/album.bin", "/sync/album2.bin");
  for (int i = 0; i < 5; ++i) {
    fs_a.write_file("/sync/small" + std::to_string(i),
                    rng.text(200 + 37 * static_cast<std::uint64_t>(i)));
  }
  fs_b.unlink("/sync/peer.log");
  settle(seconds(16));

  E2eDigest digest;
  std::ostringstream state;
  for (const std::string& path : server.paths()) {
    Result<Bytes> content = server.fetch(path);
    state << path << " #" << (content ? fnv1a(*content) : 0) << " @";
    if (auto v = server.version(path)) {
      state << v->client_id << ":" << v->counter;
    }
    state << " [";
    for (const proto::VersionId& v : server.history(path)) {
      Result<Bytes> old = server.fetch_version(path, v);
      state << v.client_id << ":" << v.counter << "#"
            << (old ? fnv1a(*old) : 0) << " ";
    }
    state << "]\n";
  }
  for (const std::string& path : server.conflict_paths()) {
    state << "conflict " << path << "\n";
  }
  state << "applied=" << server.records_applied()
        << " conflicts=" << server.conflicts_seen()
        << " txn=" << server.txn_groups_applied()
        << " rejected=" << server.rejections().size();
  digest.state = state.str();

  std::ostringstream peer;
  for (const std::string& path : server.paths()) {
    Result<Bytes> at_b = local_b.read_file(path);
    peer << path << " #" << (at_b ? fnv1a(*at_b) : 0) << "\n";
  }
  digest.peer = peer.str();

  digest.uploaded = client_a.records_uploaded() + client_b.records_uploaded();
  digest.forwards = client_a.forwards_applied() + client_b.forwards_applied();
  digest.errors = client_a.errors_acked() + client_b.errors_acked();
  digest.streams = client_a.streams_started() + client_b.streams_started();
  EXPECT_EQ(client_a.streams_in_flight(), 0u);
  EXPECT_EQ(client_a.deferred_pending(), 0u);
  return digest;
}

TEST(StreamingEndToEnd, IdenticalToSerialPumpAcrossTheMatrix) {
  const E2eDigest baseline = run_stream_e2e({});
  ASSERT_EQ(baseline.errors, 0u);
  ASSERT_EQ(baseline.streams, 0u);  // streaming off: the reference pump
  ASSERT_GT(baseline.forwards, 0u);
  ASSERT_FALSE(baseline.state.empty());

  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      StreamE2eConfig cfg;
      cfg.streaming = true;
      cfg.delta_threads = threads;
      cfg.apply_shards = shards;
      const E2eDigest streamed = run_stream_e2e(cfg);
      const std::string label = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      EXPECT_GT(streamed.streams, 0u) << label;
      EXPECT_EQ(streamed.state, baseline.state) << label;
      EXPECT_EQ(streamed.peer, baseline.peer) << label;
      EXPECT_EQ(streamed.uploaded, baseline.uploaded) << label;
      EXPECT_EQ(streamed.forwards, baseline.forwards) << label;
      EXPECT_EQ(streamed.errors, 0u) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// O(window) memory and backpressure
// ---------------------------------------------------------------------------

TEST(StreamingEndToEnd, MemoryStaysWithinWindowBound) {
  VirtualClock clock;
  MemFs local(clock);
  Transport transport(NetProfile::pc_wan());
  CloudServer server(CostProfile::pc());

  ClientConfig config;
  config.stream_window_bytes = 16 * 1024;
  config.stream_chunk_bytes = 4 * 1024;
  config.stream_min_bytes = 64 * 1024;
  config.upload_delay = seconds(1);
  DeltaCfsClient client(local, transport, clock, CostProfile::pc(), config);
  InterceptingFs fs(local, client);
  server.attach(1, transport);

  fs.mkdir("/sync");
  Rng rng(7);
  const Bytes content = rng.bytes(1024 * 1024);  // 64x the window
  local.write_file("/sync/huge.dat", content);
  ASSERT_EQ(client.import_tree(), 1u);

  for (int i = 0; i < 600; ++i) {
    clock.advance(milliseconds(200));
    client.tick(clock.now());
    server.pump();
    client.tick(clock.now());
    if (i > 10 && client.streams_in_flight() == 0) break;
  }
  ASSERT_EQ(client.streams_in_flight(), 0u);
  ASSERT_EQ(client.streams_started(), 1u);
  for (int i = 0; i < 5; ++i) {  // let the commit frame cross the wire
    clock.advance(milliseconds(200));
    server.pump();
    client.tick(clock.now());
  }

  Result<Bytes> uploaded = server.fetch("/sync/huge.dat");
  ASSERT_TRUE(uploaded.is_ok());
  EXPECT_EQ(fnv1a(*uploaded), fnv1a(content));

  // The whole 1 MiB file crossed while tracked buffers never exceeded a
  // few windows — the O(window) guarantee, with real backpressure stalls.
  EXPECT_LE(client.stream_mem_highwater(), 4 * config.stream_window_bytes);
  EXPECT_GT(client.stream_stalls(), 0u);
}

TEST(StreamingEndToEnd, SmallOpsFlowWhileStreamInFlight) {
  VirtualClock clock;
  MemFs local(clock);
  Transport transport(NetProfile::mobile_wan());
  CloudServer server(CostProfile::pc());

  ClientConfig config;
  config.stream_window_bytes = 8 * 1024;
  config.stream_chunk_bytes = 2 * 1024;
  config.stream_min_bytes = 32 * 1024;
  config.upload_delay = seconds(1);
  DeltaCfsClient client(local, transport, clock, CostProfile::pc(), config);
  InterceptingFs fs(local, client);
  server.attach(1, transport);

  fs.mkdir("/sync");
  Rng rng(11);
  const Bytes big = rng.bytes(256 * 1024);
  local.write_file("/sync/big.dat", big);
  ASSERT_EQ(client.import_tree(), 1u);

  // Mature the import node and open the stream.
  clock.advance(seconds(2));
  client.tick(clock.now());
  server.pump();
  client.tick(clock.now());
  ASSERT_EQ(client.streams_in_flight(), 1u);

  // A small interactive op written mid-stream must not wait for the bulk
  // transfer: the per-class QoS scopes blocking to the stream's own path.
  fs.write_file("/sync/note.txt", rng.text(512));
  // An update to the streamed path itself must park until commit.
  {
    Result<FileHandle> h = fs.open("/sync/big.dat");
    ASSERT_TRUE(h.is_ok());
    fs.write(*h, 1000, rng.bytes(256));
    fs.close(*h);
  }

  bool note_arrived_mid_stream = false;
  bool big_write_deferred = false;
  for (int i = 0; i < 600 && client.streams_in_flight() > 0; ++i) {
    clock.advance(milliseconds(200));
    client.tick(clock.now());
    server.pump();
    client.tick(clock.now());
    if (client.streams_in_flight() > 0) {
      if (server.fetch("/sync/note.txt").is_ok()) {
        note_arrived_mid_stream = true;
      }
      if (client.deferred_pending() > 0) big_write_deferred = true;
    }
  }
  EXPECT_TRUE(note_arrived_mid_stream);
  EXPECT_TRUE(big_write_deferred);

  for (int i = 0; i < 100; ++i) {
    clock.advance(milliseconds(200));
    client.tick(clock.now());
    server.pump();
    client.tick(clock.now());
  }
  client.flush(clock.now());
  server.pump();
  client.tick(clock.now());
  server.pump();

  // The deferred same-path write applied after the stream committed.
  Result<Bytes> final_local = local.read_file("/sync/big.dat");
  Result<Bytes> final_cloud = server.fetch("/sync/big.dat");
  ASSERT_TRUE(final_local.is_ok());
  ASSERT_TRUE(final_cloud.is_ok());
  EXPECT_EQ(fnv1a(*final_cloud), fnv1a(*final_local));
  EXPECT_NE(fnv1a(*final_cloud), fnv1a(big));  // the patch landed
  EXPECT_EQ(client.deferred_pending(), 0u);
  EXPECT_EQ(client.errors_acked(), 0u);
}

}  // namespace
}  // namespace dcfs
