// dcfs::wire — codec behavior, BufferPool correctness under concurrency,
// and the tentpole guarantee: with wire compression on, decoded frames,
// server state, version histories and ack effects are byte-identical to
// the uncompressed pipeline at every thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "compress/lz.h"
#include "core/client.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "par/worker_pool.h"
#include "server/cloud_server.h"
#include "vfs/intercept.h"
#include "vfs/memfs.h"
#include "wire/buffer_pool.h"
#include "wire/wire.h"

namespace dcfs {
namespace {

// ---------------------------------------------------------------------------
// Entropy probe
// ---------------------------------------------------------------------------

TEST(SampledEntropy, SeparatesTextFromRandom) {
  Rng rng(7);
  const Bytes random = rng.bytes(64 * 1024);
  const Bytes text = rng.text(64 * 1024);

  const double random_bits = wire::sampled_entropy_bits(random, 1024);
  const double text_bits = wire::sampled_entropy_bits(text, 1024);

  // Random bytes sit near 8 bits/byte even on a 1 KiB sample; generated
  // log-lines come in far below the default 7.0 threshold.
  EXPECT_GT(random_bits, 7.0);
  EXPECT_LT(text_bits, 7.0);
  EXPECT_LT(text_bits, random_bits);
}

TEST(SampledEntropy, DegenerateInputs) {
  EXPECT_EQ(wire::sampled_entropy_bits(ByteSpan{}, 1024), 0.0);
  const Bytes uniform(4096, 0x42);
  EXPECT_EQ(wire::sampled_entropy_bits(uniform, 1024), 0.0);
  // sample_bytes == 0 histograms everything.
  Rng rng(9);
  const Bytes random = rng.bytes(4096);
  EXPECT_GT(wire::sampled_entropy_bits(random, 0), 7.0);
}

// ---------------------------------------------------------------------------
// Codec: single-frame encode/decode
// ---------------------------------------------------------------------------

TEST(WireCodec, CompressibleFrameRoundTrips) {
  wire::Codec codec;
  Rng rng(1);
  const Bytes body = rng.text(32 * 1024);

  wire::EncodedFrame frame = codec.encode(Bytes(body));
  EXPECT_TRUE(frame.attempted);
  EXPECT_TRUE(frame.compressed);
  EXPECT_EQ(frame.raw_size, body.size());
  ASSERT_FALSE(frame.wire.empty());
  EXPECT_EQ(frame.wire.front(), wire::kTagLz);
  EXPECT_LT(frame.wire.size(), body.size());

  wire::DecodeInfo info;
  Result<Bytes> decoded = codec.decode(std::move(frame.wire), &info);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, body);
  EXPECT_TRUE(info.was_compressed);
  EXPECT_EQ(info.raw_size, body.size());
}

TEST(WireCodec, IncompressibleFrameShipsRaw) {
  wire::Codec codec;
  Rng rng(2);
  const Bytes body = rng.bytes(32 * 1024);

  wire::EncodedFrame frame = codec.encode(Bytes(body));
  // The entropy probe fires before the compressor runs.
  EXPECT_FALSE(frame.attempted);
  EXPECT_FALSE(frame.compressed);
  ASSERT_EQ(frame.wire.size(), body.size() + 1);
  EXPECT_EQ(frame.wire.front(), wire::kTagRaw);

  wire::DecodeInfo info;
  Result<Bytes> decoded = codec.decode(std::move(frame.wire), &info);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, body);
  EXPECT_FALSE(info.was_compressed);
}

TEST(WireCodec, TinyFrameSkipsBelowFloor) {
  wire::Codec codec;  // default min_bytes = 128
  const Bytes body = to_bytes("ack ack ack ack ack ack");
  ASSERT_LT(body.size(), codec.config().min_bytes);

  wire::EncodedFrame frame = codec.encode(Bytes(body));
  EXPECT_FALSE(frame.attempted);
  ASSERT_EQ(frame.wire.size(), body.size() + 1);
  EXPECT_EQ(frame.wire.front(), wire::kTagRaw);

  Result<Bytes> decoded = codec.decode(std::move(frame.wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, body);
}

TEST(WireCodec, EmptyBodyRoundTrips) {
  wire::Codec codec;
  wire::EncodedFrame frame = codec.encode(Bytes{});
  ASSERT_EQ(frame.wire.size(), 1u);
  Result<Bytes> decoded = codec.decode(std::move(frame.wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireCodec, DecodeRejectsMalformedFrames) {
  wire::Codec codec;

  Result<Bytes> empty = codec.decode(Bytes{});
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.code(), Errc::corruption);

  Bytes unknown{0x7F, 1, 2, 3};
  Result<Bytes> bad_tag = codec.decode(std::move(unknown));
  ASSERT_FALSE(bad_tag.is_ok());
  EXPECT_EQ(bad_tag.code(), Errc::corruption);

  // A token promising 15 literal bytes that are not there.
  Result<Bytes> short_literals = codec.decode(Bytes{wire::kTagLz, 0xF0});
  ASSERT_FALSE(short_literals.is_ok());
  EXPECT_EQ(short_literals.code(), Errc::corruption);

  // A match whose offset (0) points before the start of the output.
  Result<Bytes> bad_offset =
      codec.decode(Bytes{wire::kTagLz, 0x04, 0x00, 0x00});
  ASSERT_FALSE(bad_offset.is_ok());
  EXPECT_EQ(bad_offset.code(), Errc::corruption);

  // Truncating a real stream may land on a legal sequence boundary (the
  // final sequence has no match), so decode is allowed to succeed — but it
  // must never crash, and a "success" must not reproduce the original.
  Rng rng(3);
  const Bytes body = rng.text(16 * 1024);
  wire::EncodedFrame frame = codec.encode(Bytes(body));
  ASSERT_TRUE(frame.compressed);
  for (std::size_t keep : {2u, 17u, 1000u}) {
    Bytes truncated(frame.wire.begin(),
                    frame.wire.begin() + static_cast<std::ptrdiff_t>(keep));
    Result<Bytes> cut = codec.decode(std::move(truncated));
    if (cut.is_ok()) {
      EXPECT_NE(*cut, body) << "kept " << keep;
    }
  }
}

TEST(WireCodec, MetricsAccountForSkipAndCompression) {
  obs::Obs obs;
  wire::Codec codec({}, &obs);
  Rng rng(4);

  const Bytes text = rng.text(8 * 1024);
  const Bytes random = rng.bytes(8 * 1024);
  wire::EncodedFrame a = codec.encode(Bytes(text));
  wire::EncodedFrame b = codec.encode(Bytes(random));
  ASSERT_TRUE(a.compressed);
  ASSERT_FALSE(b.compressed);

  obs::Snapshot snap = obs.registry.snapshot();
  EXPECT_EQ(snap.counter("net.wire.raw_bytes"), text.size() + random.size());
  EXPECT_EQ(snap.counter("net.wire.wire_bytes"),
            a.wire.size() + b.wire.size());
  EXPECT_EQ(snap.counter("net.wire.skipped_frames"), 1u);
  EXPECT_LT(snap.counter("net.wire.wire_bytes"),
            snap.counter("net.wire.raw_bytes"));
}

// ---------------------------------------------------------------------------
// Codec: batch determinism across worker counts
// ---------------------------------------------------------------------------

std::vector<Bytes> batch_bodies() {
  Rng rng(11);
  std::vector<Bytes> bodies;
  for (int i = 0; i < 24; ++i) {
    switch (i % 4) {
      case 0: bodies.push_back(rng.text(4096 + 513 * i)); break;
      case 1: bodies.push_back(rng.bytes(4096 + 257 * i)); break;
      case 2: bodies.push_back(to_bytes("tiny control frame")); break;
      default: bodies.push_back(rng.text(64 * 1024)); break;
    }
  }
  return bodies;
}

TEST(WireCodec, BatchOutputIdenticalAtEveryWorkerCount) {
  wire::Codec codec;
  std::vector<wire::EncodedFrame> serial =
      codec.encode_batch(batch_bodies(), nullptr);

  for (std::uint32_t lanes : {1u, 2u, 4u}) {
    par::WorkerPool pool(lanes);
    std::vector<wire::EncodedFrame> parallel =
        codec.encode_batch(batch_bodies(), &pool);
    ASSERT_EQ(parallel.size(), serial.size()) << lanes << " lanes";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].wire, serial[i].wire) << "frame " << i;
      EXPECT_EQ(parallel[i].compressed, serial[i].compressed) << "frame " << i;
      EXPECT_EQ(parallel[i].raw_size, serial[i].raw_size) << "frame " << i;
    }
    // Every frame decodes back to its original body regardless of lanes.
    std::vector<Bytes> bodies = batch_bodies();
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      Result<Bytes> decoded = codec.decode(std::move(parallel[i].wire));
      ASSERT_TRUE(decoded.is_ok()) << "frame " << i;
      EXPECT_EQ(*decoded, bodies[i]) << "frame " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, ReleaseThenAcquireHits) {
  wire::BufferPool pool;
  bool hit = true;
  Bytes b = pool.acquire(4096, &hit);
  EXPECT_FALSE(hit);
  EXPECT_GE(b.capacity(), 4096u);
  EXPECT_TRUE(b.empty());

  const std::uint8_t* data = b.data();
  pool.release(std::move(b));
  EXPECT_EQ(pool.idle_buffers(), 1u);

  Bytes again = pool.acquire(4096, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.data(), data);  // literally the same storage
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(pool.idle_buffers(), 0u);

  wire::BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BufferPoolTest, SmallAndOversizeBuffersAreNeverPooled) {
  wire::BufferPool pool;
  Bytes tiny;
  tiny.reserve(16);  // below kMinClassBytes
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.idle_buffers(), 0u);

  bool hit = true;
  Bytes huge = pool.acquire((64ull << 20), &hit);  // above the largest class
  EXPECT_FALSE(hit);
  pool.release(std::move(huge));
  // Filed under the largest class it fully covers — a 64 MiB buffer still
  // serves any smaller request, so the pool keeps it under the top class.
  EXPECT_EQ(pool.idle_buffers(), 1u);
  EXPECT_EQ(pool.stats().dropped, 1u);
}

TEST(BufferPoolTest, PerClassCapBoundsIdleMemory) {
  wire::BufferPool pool;
  std::vector<Bytes> held;
  for (std::size_t i = 0; i < wire::BufferPool::kMaxPerClass + 5; ++i) {
    held.push_back(pool.acquire(2048));
  }
  for (Bytes& b : held) pool.release(std::move(b));
  EXPECT_EQ(pool.idle_buffers(), wire::BufferPool::kMaxPerClass);
  EXPECT_EQ(pool.stats().dropped, 5u);
}

TEST(BufferPoolTest, LeaseReleasesUnlessTaken) {
  wire::BufferPool pool;
  {
    wire::Lease lease(&pool, pool.acquire(1024));
    (*lease).push_back(1);
  }
  EXPECT_EQ(pool.idle_buffers(), 1u);

  Bytes taken;
  {
    wire::Lease lease(&pool, pool.acquire(1024));
    taken = std::move(lease).take();
  }
  EXPECT_EQ(pool.idle_buffers(), 0u);  // the hit consumed the parked buffer
  EXPECT_GE(taken.capacity(), 1024u);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  wire::BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t size = 1024u << ((i + t) % 4);
        Bytes b = pool.acquire(size);
        b.assign(64, static_cast<std::uint8_t>(i));
        pool.release(std::move(b));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  wire::BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_LE(pool.idle_buffers(),
            wire::BufferPool::kClasses * wire::BufferPool::kMaxPerClass);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: wire on/off x thread counts
// ---------------------------------------------------------------------------

struct E2eConfig {
  bool wire = false;
  std::uint32_t delta_threads = 1;
  std::size_t apply_shards = 1;
};

/// Everything observable about a finished run that must not depend on
/// wire compression or thread counts.
struct E2eDigest {
  std::string state;       ///< server files, versions, histories, counters
  std::string peer;        ///< client B's forwarded view of the namespace
  std::uint64_t uploaded = 0;
  std::uint64_t forwards = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t errors = 0;
};

/// Two clients sharing one cloud run a fixed mixed workload (compressible
/// text, incompressible blobs, transactional rewrites, renames, unlinks)
/// and the run's observable outcome is digested for comparison.
E2eDigest run_e2e(const E2eConfig& cfg) {
  VirtualClock clock;
  MemFs local_a(clock);
  MemFs local_b(clock);
  Transport transport_a(NetProfile::pc_wan());
  Transport transport_b(NetProfile::pc_wan());

  ServerConfig server_config;
  server_config.apply_shards = cfg.apply_shards;
  server_config.wire_compression = cfg.wire;
  CloudServer server(CostProfile::pc(), server_config);

  auto client_config = [&cfg](std::uint32_t id) {
    ClientConfig config;
    config.client_id = id;
    config.delta_threads = cfg.delta_threads;
    config.wire_compression = cfg.wire;
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
  settle();

  Rng rng(99);

  // Compressible text and incompressible binary, from both sides.
  fs_a.write_file("/sync/notes.txt", rng.text(48 * 1024));
  fs_a.write_file("/sync/blob.bin", rng.bytes(24 * 1024));
  fs_b.write_file("/sync/peer.log", rng.text(8 * 1024));
  settle();

  // Grow the log (delta-friendly append) and patch the blob in place.
  {
    Result<FileHandle> h = fs_a.open("/sync/notes.txt");
    if (h) {
      fs_a.write(*h, 48 * 1024, rng.text(16 * 1024));
      fs_a.close(*h);
    }
  }
  {
    Result<FileHandle> h = fs_a.open("/sync/blob.bin");
    if (h) {
      fs_a.write(*h, 1000, rng.bytes(512));
      fs_a.close(*h);
    }
  }
  settle();

  // Transactional save (Fig. 3 Word pattern) — exercises the local-delta
  // path, so the wire layer sees small compressed-ish delta records too.
  {
    Result<Bytes> doc = local_a.read_file("/sync/notes.txt");
    if (doc) {
      Bytes edited = std::move(*doc);
      const Bytes patch = rng.text(2048);
      edited.insert(edited.begin() + 1024, patch.begin(), patch.end());
      fs_a.rename("/sync/notes.txt", "/sync/notes.txt.bak");
      fs_a.write_file("/sync/notes.txt.tmp", edited);
      fs_a.rename("/sync/notes.txt.tmp", "/sync/notes.txt");
      fs_a.unlink("/sync/notes.txt.bak");
    }
  }
  settle();

  // Metadata churn: rename + unlink, plus a burst of small files (tiny
  // raw-tag frames).
  fs_a.rename("/sync/blob.bin", "/sync/blob2.bin");
  for (int i = 0; i < 6; ++i) {
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
  digest.conflicts = client_a.conflicts_acked() + client_b.conflicts_acked();
  digest.errors = client_a.errors_acked() + client_b.errors_acked();
  return digest;
}

TEST(WireEndToEnd, CompressionPreservesEverythingAtEveryThreadCount) {
  const E2eDigest baseline = run_e2e({});
  ASSERT_EQ(baseline.errors, 0u);
  ASSERT_GT(baseline.forwards, 0u);
  ASSERT_FALSE(baseline.state.empty());

  for (std::uint32_t threads : {1u, 2u, 4u}) {
    E2eConfig cfg;
    cfg.wire = true;
    cfg.delta_threads = threads;
    const E2eDigest with_wire = run_e2e(cfg);
    EXPECT_EQ(with_wire.state, baseline.state) << threads << " threads";
    EXPECT_EQ(with_wire.peer, baseline.peer) << threads << " threads";
    EXPECT_EQ(with_wire.uploaded, baseline.uploaded) << threads << " threads";
    EXPECT_EQ(with_wire.forwards, baseline.forwards) << threads << " threads";
    EXPECT_EQ(with_wire.conflicts, baseline.conflicts)
        << threads << " threads";
    EXPECT_EQ(with_wire.errors, 0u) << threads << " threads";
  }
}

TEST(WireEndToEnd, CompressionComposesWithShardedApply) {
  E2eConfig sharded;
  sharded.apply_shards = 2;
  const E2eDigest baseline = run_e2e(sharded);
  sharded.wire = true;
  sharded.delta_threads = 2;
  const E2eDigest with_wire = run_e2e(sharded);
  EXPECT_EQ(with_wire.state, baseline.state);
  EXPECT_EQ(with_wire.peer, baseline.peer);
  EXPECT_EQ(with_wire.errors, 0u);
}

TEST(WireEndToEnd, CompressibleTrafficShrinksOnTheWire) {
  // Same workload, wire off vs on: the transport meter (which prices wire
  // time) must see fewer upstream bytes once text frames compress.  Run the
  // upload side directly so the comparison is within one transport.
  auto run_traffic = [](bool wire_on) {
    VirtualClock clock;
    MemFs local(clock);
    Transport transport(NetProfile::pc_wan());
    ServerConfig server_config;
    server_config.wire_compression = wire_on;
    CloudServer server(CostProfile::pc(), server_config);
    ClientConfig config;
    config.wire_compression = wire_on;
    DeltaCfsClient client(local, transport, clock, CostProfile::pc(), config);
    InterceptingFs fs(local, client);
    server.attach(1, transport);

    fs.mkdir("/sync");
    Rng rng(5);
    fs.write_file("/sync/log.txt", rng.text(256 * 1024));
    for (Duration t = 0; t < seconds(10); t += milliseconds(200)) {
      clock.advance(milliseconds(200));
      client.tick(clock.now());
      server.pump();
      client.tick(clock.now());
    }
    client.flush(clock.now());
    server.pump();
    client.tick(clock.now());

    EXPECT_EQ(client.errors_acked(), 0u);
    Result<Bytes> stored = server.fetch("/sync/log.txt");
    EXPECT_TRUE(stored.is_ok());
    return transport.meter().up_bytes();
  };

  const std::uint64_t plain = run_traffic(false);
  const std::uint64_t compressed = run_traffic(true);
  EXPECT_LT(compressed, plain);
  // Text compresses well; expect a material reduction, not a rounding win.
  EXPECT_LT(compressed, plain - plain / 5);
}

}  // namespace
}  // namespace dcfs
