// Property tests: the dcfs::par kernels must be *observationally identical*
// to their serial rsyncx counterparts at every thread count — same signature
// contents, same delta wire bytes, same CostMeter totals — so flipping
// `delta_threads` can never change what a client uploads or what it reports
// having spent.  End to end, two clients sharing one cloud reach the same
// cloud state and peer view at every delta thread count and, for import and
// move-into-scope, at every server apply shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/deltacfs_system.h"
#include "common/rng.h"
#include "core/checksum_store.h"
#include "core/client.h"
#include "metrics/cost.h"
#include "net/transport.h"
#include "par/parallel_delta.h"
#include "par/worker_pool.h"
#include "rsyncx/delta.h"
#include "rsyncx/match.h"
#include "server/cloud_server.h"
#include "vfs/intercept.h"
#include "vfs/memfs.h"

namespace dcfs {
namespace {

using par::WorkerPool;

/// Every test asserts on all of these thread counts; 1 means no pool at all.
const std::size_t kThreadCounts[] = {1, 2, 4, 8};

std::unique_ptr<WorkerPool> make_pool(std::size_t threads) {
  return threads > 1 ? std::make_unique<WorkerPool>(threads) : nullptr;
}

void expect_same_meter(const CostMeter& got, const CostMeter& want,
                       const std::string& label) {
  const CostSnapshot g = got.snapshot();
  const CostSnapshot w = want.snapshot();
  for (std::size_t i = 0; i < kCostKindCount; ++i) {
    EXPECT_EQ(g.units_by_kind[i], w.units_by_kind[i])
        << label << ": kind " << to_string(static_cast<CostKind>(i));
  }
  EXPECT_EQ(g.total_units, w.total_units) << label;
}

/// A base/target pair exercising one editing pattern.
struct Case {
  std::string name;
  Bytes base;
  Bytes target;
};

std::vector<Case> make_cases(std::uint32_t block_size) {
  Rng rng(7);
  std::vector<Case> cases;
  // Enough blocks that the parallel kernels actually engage
  // (kMinParallelBlocks regions of kRegionBlocks blocks each).
  const std::size_t bulk = (par::kMinParallelBlocks + 70) * block_size + 123;

  {
    Bytes base = rng.bytes(bulk);
    cases.push_back({"identical", base, base});
  }
  {
    Bytes base = rng.bytes(bulk);
    Bytes target = base;
    const Bytes inserted = rng.bytes(block_size / 2 + 17);
    target.insert(target.begin() + static_cast<std::ptrdiff_t>(bulk / 3),
                  inserted.begin(), inserted.end());
    cases.push_back({"insertion", std::move(base), std::move(target)});
  }
  {
    Bytes base = rng.bytes(bulk);
    Bytes target = base;
    // Rewrite scattered single bytes: lots of short literals between
    // matches, so regions see jump and roll exits alike.
    for (std::size_t offset = block_size / 2; offset < target.size();
         offset += 11 * block_size + 3) {
      target[offset] ^= 0x5a;
    }
    cases.push_back({"scattered_edits", std::move(base), std::move(target)});
  }
  {
    Bytes base = rng.bytes(bulk);
    Bytes target = rng.bytes(bulk + 4 * block_size);
    cases.push_back({"unrelated", std::move(base), std::move(target)});
  }
  {
    Bytes base = rng.bytes(bulk);
    Bytes target = base;
    const Bytes tail = rng.bytes(3 * block_size + 1);
    target.insert(target.end(), tail.begin(), tail.end());
    cases.push_back({"append", std::move(base), std::move(target)});
  }
  {
    // Deliberately below the parallel threshold: must hit the serial
    // fallback and still agree.
    Bytes base = rng.bytes(5 * block_size + 1);
    Bytes target = base;
    target[block_size + 2] ^= 0xff;
    cases.push_back({"small", std::move(base), std::move(target)});
  }
  return cases;
}

class ParEquivalenceTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParEquivalenceTest, SignatureMatchesSerial) {
  const std::uint32_t bs = GetParam();
  for (const Case& c : make_cases(bs)) {
    for (const bool with_strong : {false, true}) {
      CostMeter serial_meter(CostProfile::pc());
      const rsyncx::Signature want =
          rsyncx::compute_signature(c.base, bs, with_strong, &serial_meter);
      for (const std::size_t threads : kThreadCounts) {
        const auto pool = make_pool(threads);
        CostMeter meter(CostProfile::pc());
        const rsyncx::Signature got = par::compute_signature(
            pool.get(), c.base, bs, with_strong, &meter);
        const std::string label = c.name + " strong=" +
                                  std::to_string(with_strong) + " threads=" +
                                  std::to_string(threads);
        EXPECT_EQ(got.file_size, want.file_size) << label;
        EXPECT_EQ(got.block_size, want.block_size) << label;
        EXPECT_EQ(got.weak, want.weak) << label;
        EXPECT_EQ(got.strong, want.strong) << label;
        expect_same_meter(meter, serial_meter, label);
      }
    }
  }
}

TEST_P(ParEquivalenceTest, LocalDeltaMatchesSerialByteForByte) {
  const std::uint32_t bs = GetParam();
  for (const Case& c : make_cases(bs)) {
    CostMeter serial_meter(CostProfile::pc());
    const Bytes want = rsyncx::encode_delta(
        rsyncx::compute_delta_local(c.base, c.target, bs, &serial_meter));
    for (const std::size_t threads : kThreadCounts) {
      const auto pool = make_pool(threads);
      CostMeter meter(CostProfile::pc());
      const Bytes got = rsyncx::encode_delta(par::compute_delta_local(
          pool.get(), c.base, c.target, bs, &meter));
      const std::string label = c.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(got, want) << label;
      expect_same_meter(meter, serial_meter, label);
    }
  }
}

TEST_P(ParEquivalenceTest, RemoteDeltaMatchesSerialByteForByte) {
  const std::uint32_t bs = GetParam();
  for (const Case& c : make_cases(bs)) {
    const rsyncx::Signature signature =
        rsyncx::compute_signature(c.base, bs, /*with_strong=*/true, nullptr);
    CostMeter serial_meter(CostProfile::pc());
    const Bytes want = rsyncx::encode_delta(
        rsyncx::compute_delta(signature, c.target, &serial_meter));
    for (const std::size_t threads : kThreadCounts) {
      const auto pool = make_pool(threads);
      CostMeter meter(CostProfile::pc());
      const Bytes got = rsyncx::encode_delta(
          par::compute_delta(pool.get(), signature, c.target, &meter));
      const std::string label = c.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(got, want) << label;
      expect_same_meter(meter, serial_meter, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, ParEquivalenceTest,
                         ::testing::Values(512u, 1024u, 4096u));

// ---------------------------------------------------------------------------
// The block index against the matcher it replaced: a std::unordered_multimap
// index, the byte-at-a-time weak sums and one charge per roll.  On bases full
// of duplicate blocks the candidate order decides which block a copy names,
// so these cases pin it as well as the charges.
// ---------------------------------------------------------------------------

std::uint32_t reference_digest(std::uint32_t a, std::uint32_t b) {
  return (a & 0xFFFF) | ((b & 0xFFFF) << 16);
}

std::uint32_t reference_weak(ByteSpan data) {
  const WeakSums sums = weak_sums_scalar(data);
  return reference_digest(sums.a, sums.b);
}

Bytes reference_delta_local(ByteSpan base, ByteSpan target,
                            std::uint32_t bs, CostMeter& meter) {
  namespace det = rsyncx::detail;
  const std::size_t blocks = (base.size() + bs - 1) / bs;
  const auto block_length = [&](std::size_t block) {
    return std::min<std::size_t>(bs, base.size() - block * bs);
  };
  std::vector<std::uint32_t> weak;
  meter.charge(CostKind::rolling_hash, base.size());
  for (std::size_t block = 0; block < blocks; ++block) {
    weak.push_back(reference_weak(base.subspan(block * bs,
                                               block_length(block))));
  }
  const auto confirm = [&](std::size_t block, ByteSpan window) {
    if (block * bs + window.size() > base.size()) return false;
    if (block_length(block) != window.size()) return false;
    meter.charge(CostKind::byte_compare, window.size());
    return std::memcmp(base.data() + block * bs, window.data(),
                       window.size()) == 0;
  };

  rsyncx::Delta delta;
  delta.base_size = base.size();
  delta.target_size = target.size();
  if (target.empty()) return rsyncx::encode_delta(delta);
  if (blocks == 0 || target.size() < bs) {
    if (blocks != 0 && block_length(blocks - 1) == target.size()) {
      meter.charge(CostKind::rolling_hash, target.size());
      if (reference_weak(target) == weak[blocks - 1] &&
          confirm(blocks - 1, target)) {
        det::emit_copy(delta, (blocks - 1) * bs, target.size());
        return rsyncx::encode_delta(delta);
      }
    }
    det::emit_literal(delta, target);
    return rsyncx::encode_delta(delta);
  }

  std::unordered_multimap<std::uint32_t, std::uint32_t> index;
  index.reserve(blocks);
  std::optional<std::size_t> tail;
  for (std::uint32_t block = 0; block < blocks; ++block) {
    if (block_length(block) == bs) {
      index.emplace(weak[block], block);
    } else {
      tail = block;
    }
  }

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  WeakSums sums = weak_sums_scalar(target.subspan(0, bs));
  meter.charge(CostKind::rolling_hash, bs);
  while (pos + bs <= target.size()) {
    std::optional<std::uint32_t> matched;
    auto [it, end] = index.equal_range(reference_digest(sums.a, sums.b));
    for (; it != end; ++it) {
      if (confirm(it->second, target.subspan(pos, bs))) {
        matched = it->second;
        break;
      }
    }
    if (matched) {
      det::emit_literal(delta,
                        target.subspan(literal_start, pos - literal_start));
      det::emit_copy(delta, std::uint64_t{*matched} * bs, bs);
      pos += bs;
      literal_start = pos;
      if (pos + bs <= target.size()) {
        sums = weak_sums_scalar(target.subspan(pos, bs));
        meter.charge(CostKind::rolling_hash, bs);
      }
    } else {
      const std::uint8_t out = target[pos];
      const std::uint8_t in =
          pos + bs < target.size() ? target[pos + bs] : 0;
      sums.a = sums.a - out + in;
      sums.b = sums.b - bs * out + sums.a;
      meter.charge(CostKind::rolling_hash, 1);
      ++pos;
    }
  }
  const std::size_t remaining = target.size() - pos;
  if (tail && remaining == block_length(*tail) && remaining > 0) {
    const ByteSpan rest = target.subspan(pos, remaining);
    meter.charge(CostKind::rolling_hash, remaining);
    if (reference_weak(rest) == weak[*tail] && confirm(*tail, rest)) {
      det::emit_literal(delta,
                        target.subspan(literal_start, pos - literal_start));
      det::emit_copy(delta, *tail * bs, remaining);
      return rsyncx::encode_delta(delta);
    }
  }
  det::emit_literal(delta, target.subspan(literal_start));
  return rsyncx::encode_delta(delta);
}

/// Base/target pairs whose bases repeat the same few blocks many times.
std::vector<Case> make_duplicate_cases(std::uint32_t bs) {
  Rng rng(17);
  std::vector<Case> cases;
  const std::size_t blocks = par::kMinParallelBlocks + 90;
  {
    // Zero pages with a few random blocks between them.
    Bytes base(blocks * bs + 77, 0);
    for (std::size_t block = 5; block < blocks; block += 37) {
      const Bytes noise = rng.bytes(bs);
      std::copy(noise.begin(), noise.end(),
                base.begin() + static_cast<std::ptrdiff_t>(block * bs));
    }
    Bytes target = base;
    const Bytes inserted = rng.bytes(bs / 3 + 1);
    target.insert(target.begin() + static_cast<std::ptrdiff_t>(blocks * bs / 2),
                  inserted.begin(), inserted.end());
    target[3 * bs + 1] = 9;
    cases.push_back({"zero_pages", std::move(base), std::move(target)});
  }
  {
    // Four distinct blocks repeated in a pattern; the target shuffles
    // pattern runs and shifts them off block alignment.
    std::vector<Bytes> motifs;
    for (int k = 0; k < 4; ++k) motifs.push_back(rng.bytes(bs));
    Bytes base;
    for (std::size_t block = 0; block < blocks; ++block) {
      append(base, motifs[(block * block) % motifs.size()]);
    }
    Bytes target(base.begin() + 5, base.end());
    for (std::size_t k = 0; k < 40; ++k) {
      append(target, motifs[rng.next_below(motifs.size())]);
    }
    append(target, rng.bytes(bs / 2));
    cases.push_back({"repeated_blocks", std::move(base), std::move(target)});
  }
  {
    // A short tail equal to a prefix of the repeated block.
    const Bytes motif = rng.bytes(bs);
    Bytes base;
    for (std::size_t block = 0; block < blocks; ++block) append(base, motif);
    append(base, ByteSpan{motif.data(), bs / 2});
    Bytes target = base;
    target[bs * 7] ^= 1;
    cases.push_back({"repeated_with_tail", std::move(base),
                     std::move(target)});
  }
  return cases;
}

TEST(WeakIndexTest, MatchesMultimapReferenceOnDuplicateBlocks) {
  for (const std::uint32_t bs : {512u, 4096u}) {
    for (const Case& c : make_duplicate_cases(bs)) {
      CostMeter reference_meter(CostProfile::pc());
      const Bytes want =
          reference_delta_local(c.base, c.target, bs, reference_meter);

      CostMeter serial_meter(CostProfile::pc());
      const Bytes serial = rsyncx::encode_delta(
          rsyncx::compute_delta_local(c.base, c.target, bs, &serial_meter));
      const std::string label = c.name + " bs=" + std::to_string(bs);
      EXPECT_EQ(serial, want) << label;
      EXPECT_EQ(serial_meter.units(), reference_meter.units()) << label;
      expect_same_meter(serial_meter, reference_meter, label);

      for (const std::size_t threads : {1u, 2u, 4u}) {
        const auto pool = make_pool(threads);
        CostMeter meter(CostProfile::pc());
        const Bytes got = rsyncx::encode_delta(par::compute_delta_local(
            pool.get(), c.base, c.target, bs, &meter));
        const std::string thread_label =
            label + " threads=" + std::to_string(threads);
        EXPECT_EQ(got, want) << thread_label;
        EXPECT_EQ(meter.units(), reference_meter.units()) << thread_label;
      }
    }
  }
}

TEST(WeakIndexTest, MatchesMultimapReferenceOnEditCases) {
  for (const std::uint32_t bs : {512u, 4096u}) {
    for (const Case& c : make_cases(bs)) {
      CostMeter reference_meter(CostProfile::pc());
      const Bytes want =
          reference_delta_local(c.base, c.target, bs, reference_meter);
      CostMeter meter(CostProfile::pc());
      const Bytes got = rsyncx::encode_delta(
          rsyncx::compute_delta_local(c.base, c.target, bs, &meter));
      const std::string label = c.name + " bs=" + std::to_string(bs);
      EXPECT_EQ(got, want) << label;
      expect_same_meter(meter, reference_meter, label);
    }
  }
}

TEST(WeakIndexTest, CandidatesEqualBruteForce) {
  // Synthetic weak values: random ones, runs of duplicates, and distinct
  // values crowded into one directory bucket (equal top bits).  Candidates
  // must come newest first (descending block order).
  for (const std::size_t blocks : {0u, 1u, 5u, 300u, 5000u}) {
    Rng rng(blocks + 1);
    rsyncx::Signature signature;
    signature.block_size = 64;
    signature.file_size = blocks * 64;
    signature.has_strong = false;
    for (std::size_t block = 0; block < blocks; ++block) {
      std::uint32_t weak = static_cast<std::uint32_t>(rng.next_u64());
      if (block % 7 == 0) weak = 0xDEADBEEF;
      if (block % 5 == 0) weak = 0xABCD0000u | (weak & 0xFF);
      signature.weak.push_back(weak);
    }
    const auto index = rsyncx::detail::WeakIndex::build(signature);

    std::vector<std::uint32_t> queries(signature.weak);
    for (int k = 0; k < 2000; ++k) {
      queries.push_back(static_cast<std::uint32_t>(rng.next_u64()));
      queries.push_back(0xABCD0000u | static_cast<std::uint32_t>(k & 0x1FF));
    }
    for (const std::uint32_t weak : queries) {
      std::vector<std::uint32_t> want;
      for (std::size_t block = blocks; block-- > 0;) {
        if (signature.weak[block] == weak) {
          want.push_back(static_cast<std::uint32_t>(block));
        }
      }
      std::vector<std::uint32_t> got;
      for (const auto& entry : index.candidates(weak)) {
        got.push_back(entry.block);
      }
      ASSERT_EQ(got, want) << "blocks " << blocks << " weak " << weak;
      if (!want.empty()) {
        ASSERT_TRUE(index.may_contain(weak));
      }
    }
  }
}

TEST(ChecksumStoreBulkTest, BulkIndexMatchesSerialStateAndCharges) {
  VirtualClock clock;
  MemFs fs(clock);
  Rng rng(11);
  const Bytes data = rng.bytes(300'000);  // 74 blocks at 4096: bulk engages
  ASSERT_TRUE(fs.write_file("/f", data).is_ok());

  const auto dump = [](KvStore& kv) {
    std::map<std::string, Bytes> out;
    kv.scan_prefix("", [&](std::string_view key, ByteSpan value) {
      out.emplace(std::string(key), Bytes(value.begin(), value.end()));
    });
    return out;
  };

  CostMeter serial_meter(CostProfile::pc());
  auto serial_kv = std::make_shared<KvStore>(
      std::make_shared<MemoryWalStorage>());
  ChecksumStore serial_store(serial_kv, 4096, &serial_meter);
  ASSERT_TRUE(serial_store.index_file(fs, "/f").is_ok());

  for (const std::size_t threads : kThreadCounts) {
    const auto pool = make_pool(threads);
    CostMeter meter(CostProfile::pc());
    auto kv = std::make_shared<KvStore>(std::make_shared<MemoryWalStorage>());
    ChecksumStore store(kv, 4096, &meter);
    store.set_pool(pool.get());
    ASSERT_TRUE(store.index_file(fs, "/f").is_ok());

    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(dump(*kv), dump(*serial_kv)) << label;
    expect_same_meter(meter, serial_meter, label);
  }
}

/// Everything observable about a two-client run of one scenario below:
/// server files, versions, histories and counters, client B's forwarded
/// view, and the clients' upload / forward / conflict / error counts.
struct MixedDigest {
  std::string state;
  std::string peer;
  std::uint64_t uploaded = 0;
  std::uint64_t forwards = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t errors = 0;
};

/// The digest of a finished two-client run (B is the peer).
MixedDigest digest_of(CloudServer& server, MemFs& local_b,
                      const DeltaCfsClient& client_a,
                      const DeltaCfsClient& client_b) {
  MixedDigest digest;
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

/// What two clients sharing one cloud do between set-up and the digest.
enum class Scenario {
  /// Compressible text and incompressible blobs from both sides, an append
  /// and an in-place patch, a transactional (Word-style) save, a rename, an
  /// unlink by the peer and a burst of small files.
  mixed,
  /// Import of two large files and a small one, a large file moved into
  /// scope, then an in-place patch of an imported file, a rename, a burst
  /// of small files and an unlink by the peer.
  import_move_in,
};

/// Runs `scenario` with both clients at `threads` delta lanes and the
/// server at `shards` apply shards.
MixedDigest run_two_clients(Scenario scenario, std::uint32_t threads,
                            std::size_t shards = 1) {
  VirtualClock clock;
  MemFs local_a(clock);
  MemFs local_b(clock);
  Transport transport_a(NetProfile::pc_wan());
  Transport transport_b(NetProfile::pc_wan());
  ServerConfig server_config;
  server_config.apply_shards = shards;
  CloudServer server(CostProfile::pc(), server_config);

  auto client_config = [threads](std::uint32_t id) {
    ClientConfig config;
    config.client_id = id;
    config.delta_threads = threads;
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
  Rng rng(99);
  if (scenario == Scenario::import_move_in) {
    settle(seconds(4));
    local_a.write_file("/sync/big.dat", rng.bytes(160 * 1024));
    local_a.write_file("/sync/album.bin", rng.bytes(96 * 1024));
    local_a.write_file("/sync/readme.txt", rng.text(2 * 1024));
    client_a.import_tree();
    fs_b.write_file("/sync/peer.log", rng.text(8 * 1024));
    settle();

    local_a.mkdir("/outside");
    local_a.write_file("/outside/moved.dat", rng.bytes(80 * 1024));
    fs_a.rename("/outside/moved.dat", "/sync/moved.dat");
    settle();

    if (Result<FileHandle> h = fs_a.open("/sync/big.dat")) {
      fs_a.write(*h, 4096, rng.bytes(512));
      fs_a.close(*h);
    }
    fs_a.rename("/sync/album.bin", "/sync/album2.bin");
    for (int i = 0; i < 5; ++i) {
      fs_a.write_file("/sync/small" + std::to_string(i),
                      rng.text(200 + 37 * static_cast<std::uint64_t>(i)));
    }
    fs_b.unlink("/sync/peer.log");
    settle(seconds(16));
    EXPECT_EQ(client_a.deferred_pending(), 0u);
    return digest_of(server, local_b, client_a, client_b);
  }

  settle();
  fs_a.write_file("/sync/notes.txt", rng.text(48 * 1024));
  fs_a.write_file("/sync/blob.bin", rng.bytes(24 * 1024));
  fs_b.write_file("/sync/peer.log", rng.text(8 * 1024));
  settle();

  // Grow the text (delta-friendly append) and patch the blob in place.
  if (Result<FileHandle> h = fs_a.open("/sync/notes.txt")) {
    fs_a.write(*h, 48 * 1024, rng.text(16 * 1024));
    fs_a.close(*h);
  }
  if (Result<FileHandle> h = fs_a.open("/sync/blob.bin")) {
    fs_a.write(*h, 1000, rng.bytes(512));
    fs_a.close(*h);
  }
  settle();

  // Transactional save (Fig. 3 Word pattern): the local-delta path.
  if (Result<Bytes> doc = local_a.read_file("/sync/notes.txt")) {
    Bytes edited = std::move(*doc);
    const Bytes patch = rng.text(2048);
    edited.insert(edited.begin() + 1024, patch.begin(), patch.end());
    fs_a.rename("/sync/notes.txt", "/sync/notes.txt.bak");
    fs_a.write_file("/sync/notes.txt.tmp", edited);
    fs_a.rename("/sync/notes.txt.tmp", "/sync/notes.txt");
    fs_a.unlink("/sync/notes.txt.bak");
  }
  settle();

  // Metadata churn: a rename, small files, and an unlink from the peer.
  fs_a.rename("/sync/blob.bin", "/sync/blob2.bin");
  for (int i = 0; i < 6; ++i) {
    fs_a.write_file("/sync/small" + std::to_string(i),
                    rng.text(200 + 37 * static_cast<std::uint64_t>(i)));
  }
  fs_b.unlink("/sync/peer.log");
  settle(seconds(16));
  return digest_of(server, local_b, client_a, client_b);
}

/// End-to-end determinism: full DeltaCFS stacks differing only in
/// `delta_threads` must produce identical cloud state, traffic and client
/// CPU accounting on a large-file rewrite, and identical cloud state, peer
/// view and client counts on the two-client mixed workload.
TEST(ClientParallelEquivalenceTest, ThreadCountDoesNotChangeObservables) {
  const auto run = [](std::uint32_t threads) {
    VirtualClock clock;
    ClientConfig config;
    config.delta_block_size = 512;
    config.delta_threads = threads;
    DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                          config);
    system.fs().mkdir("/sync");

    Rng rng(13);
    Bytes content = rng.bytes(400'000);
    EXPECT_TRUE(system.fs().write_file("/sync/doc", content).is_ok());
    const auto drain = [&] {
      for (int i = 0; i < 50; ++i) {
        clock.advance(milliseconds(200));
        system.tick(clock.now());
      }
      system.finish(clock.now());
    };
    drain();

    // Transactional rewrite (vim flow): delta against the synced version.
    content.insert(content.begin() + 200'000, 42);
    EXPECT_TRUE(system.fs().rename("/sync/doc", "/sync/doc~").is_ok());
    EXPECT_TRUE(system.fs().write_file("/sync/doc", content).is_ok());
    EXPECT_TRUE(system.fs().unlink("/sync/doc~").is_ok());
    drain();

    Result<Bytes> cloud = system.server().fetch("/sync/doc");
    EXPECT_TRUE(cloud.is_ok());
    return std::tuple{cloud.is_ok() ? *cloud : Bytes{},
                      system.traffic().up_bytes(),
                      system.client().meter().snapshot().total_units};
  };

  const auto [cloud1, up1, units1] = run(1);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const auto [cloud, up, units] = run(threads);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(cloud, cloud1) << label;
    EXPECT_EQ(up, up1) << label;
    EXPECT_EQ(units, units1) << label;
  }

  const MixedDigest mixed1 = run_two_clients(Scenario::mixed, 1);
  ASSERT_EQ(mixed1.errors, 0u);
  ASSERT_GT(mixed1.forwards, 0u);
  ASSERT_FALSE(mixed1.state.empty());
  for (const std::uint32_t threads : {2u, 4u}) {
    const MixedDigest mixed = run_two_clients(Scenario::mixed, threads);
    const std::string label = "mixed threads=" + std::to_string(threads);
    EXPECT_EQ(mixed.state, mixed1.state) << label;
    EXPECT_EQ(mixed.peer, mixed1.peer) << label;
    EXPECT_EQ(mixed.uploaded, mixed1.uploaded) << label;
    EXPECT_EQ(mixed.forwards, mixed1.forwards) << label;
    EXPECT_EQ(mixed.conflicts, mixed1.conflicts) << label;
    EXPECT_EQ(mixed.errors, 0u) << label;
  }
}

/// Import, move-into-scope and the edits after them give the same cloud
/// state, peer view and client counts at every delta thread count and
/// server shard count.
TEST(ClientParallelEquivalenceTest,
     ImportAndMoveInMatchAcrossThreadsAndShards) {
  const MixedDigest base = run_two_clients(Scenario::import_move_in, 1, 1);
  ASSERT_EQ(base.errors, 0u);
  ASSERT_GT(base.forwards, 0u);
  ASSERT_FALSE(base.state.empty());
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      if (threads == 1 && shards == 1) continue;
      const MixedDigest run =
          run_two_clients(Scenario::import_move_in, threads, shards);
      const std::string label = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      EXPECT_EQ(run.state, base.state) << label;
      EXPECT_EQ(run.peer, base.peer) << label;
      EXPECT_EQ(run.uploaded, base.uploaded) << label;
      EXPECT_EQ(run.forwards, base.forwards) << label;
      EXPECT_EQ(run.conflicts, base.conflicts) << label;
      EXPECT_EQ(run.errors, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace dcfs
