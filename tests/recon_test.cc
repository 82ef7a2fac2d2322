// Recursive multi-round reconciliation (rsyncx::recon + the client/server
// protocol around it).
//
// Four layers, bottom up:
//   1. chunk_file boundary-cut invariants (the planner's termination rests
//      on them) and the streaming scanners' equivalence to their batch
//      counterparts under arbitrary feed splits;
//   2. Planner property tests against a local oracle: for any base/target
//      pair and either mode, apply_delta(base, take_delta()) == target,
//      and on sparse edits the recursive negotiation moves fewer bytes
//      than the classic whole-file signature;
//   3. ReconRequest/ReconResponse codec round-trips and truncation safety;
//   4. end-to-end equivalence across threads x shards x mode: the
//      server's final state is byte-identical whether a large full-file
//      upload is shipped whole, reconciled in one classic round, or
//      reconciled recursively — and the recursive wire bill is smaller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baselines/deltacfs_system.h"
#include "common/rng.h"
#include "proto/messages.h"
#include "rsyncx/recon.h"

namespace dcfs {
namespace {

using rsyncx::CdcParams;
using rsyncx::Chunk;
using rsyncx::Signature;
using rsyncx::chunk_file;
using rsyncx::compute_signature;
using rsyncx::recon::Planner;
using rsyncx::recon::ReconParams;
using rsyncx::recon::Region;
using rsyncx::recon::RegionSignature;
using rsyncx::recon::Shingle;
using rsyncx::recon::ShingleScanner;
using rsyncx::recon::SignatureScanner;
using rsyncx::recon::shingle_hash;

// ---------------------------------------------------------------------------
// 1. chunk_file boundary-cut invariants (rsyncx/cdc.h).

void expect_tiling(const std::vector<Chunk>& chunks, std::uint64_t size,
                   const CdcParams& params) {
  const CdcParams n = rsyncx::normalized(params);
  std::uint64_t cursor = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].offset, cursor) << "gap/overlap at chunk " << i;
    EXPECT_GE(chunks[i].length, 1u);
    EXPECT_LE(chunks[i].length, n.maximum);
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].length, n.minimum)
          << "non-final chunk " << i << " shorter than minimum";
    }
    cursor += chunks[i].length;
  }
  EXPECT_EQ(cursor, size) << "chunks do not tile the input";
}

TEST(CdcInvariants, EmptyInputYieldsNoChunks) {
  EXPECT_TRUE(chunk_file({}, CdcParams::fine(), nullptr).empty());
  EXPECT_TRUE(chunk_file({}, {1, 1, 1}, nullptr).empty());
}

TEST(CdcInvariants, ShortInputIsOneChunk) {
  Rng rng(7);
  for (const std::size_t size : {1u, 2u, 255u, 1023u}) {
    const Bytes data = rng.bytes(size);
    const std::vector<Chunk> chunks =
        chunk_file(ByteSpan{data}, CdcParams::fine(), nullptr);
    ASSERT_EQ(chunks.size(), 1u) << "size " << size;
    EXPECT_EQ(chunks[0].offset, 0u);
    EXPECT_EQ(chunks[0].length, size);
  }
}

TEST(CdcInvariants, TilingAndBoundsOnRandomData) {
  Rng rng(11);
  const Bytes data = rng.bytes(300'000);
  for (const CdcParams params :
       {CdcParams::fine(), CdcParams{4096, 16384, 65536},
        CdcParams{1, 64, 256}}) {
    const std::vector<Chunk> chunks =
        chunk_file(ByteSpan{data}, params, nullptr);
    expect_tiling(chunks, data.size(), params);
  }
}

TEST(CdcInvariants, AllZeroPagesStillCut) {
  // Degenerate content where the gear hash may never satisfy the mask: the
  // maximum clamp must still force boundaries, so the chunk count is at
  // least ceil(size / maximum) and no chunk is unbounded.
  const Bytes zeros(1 << 20, 0);
  const CdcParams params{1024, 4096, 16384};
  const std::vector<Chunk> chunks =
      chunk_file(ByteSpan{zeros}, params, nullptr);
  expect_tiling(chunks, zeros.size(), params);
  EXPECT_GE(chunks.size(), zeros.size() / params.maximum);
  // Identical content produces identical chunk ids.
  for (std::size_t i = 1; i + 1 < chunks.size(); ++i) {
    if (chunks[i].length == chunks[0].length) {
      EXPECT_EQ(chunks[i].id, chunks[0].id);
    }
  }
}

TEST(CdcInvariants, CutsAreDeterministic) {
  Rng rng(13);
  const Bytes data = rng.bytes(200'000);
  const std::vector<Chunk> a = chunk_file(ByteSpan{data}, {512, 2048, 8192},
                                          nullptr);
  const std::vector<Chunk> b = chunk_file(ByteSpan{data}, {512, 2048, 8192},
                                          nullptr);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(CdcInvariants, NormalizedClampsDegenerateParams) {
  for (const CdcParams raw :
       {CdcParams{0, 0, 0}, CdcParams{100, 5, 2}, CdcParams{7, 1000, 3},
        CdcParams{0, 1, 0}}) {
    const CdcParams n = rsyncx::normalized(raw);
    EXPECT_GE(n.minimum, 1u);
    EXPECT_GE(n.maximum, n.minimum);
    EXPECT_GE(n.average, n.minimum);
    EXPECT_LE(n.average, n.maximum);
    // Degenerate params still chunk correctly end to end.
    Rng rng(17);
    const Bytes data = rng.bytes(5000);
    expect_tiling(chunk_file(ByteSpan{data}, raw, nullptr), data.size(), raw);
  }
}

// ---------------------------------------------------------------------------
// Streaming scanners == their batch counterparts, under any feed split.

TEST(Scanners, ShingleScannerMatchesChunkFile) {
  Rng rng(23);
  const Bytes data = rng.bytes(250'000);
  const CdcParams params{1024, 4096, 16384};
  const std::vector<Chunk> chunks =
      chunk_file(ByteSpan{data}, params, nullptr);

  for (const std::uint64_t base_offset : {0ull, 1234567ull}) {
    ShingleScanner scanner(base_offset, params, nullptr);
    std::size_t fed = 0;
    Rng split(29);
    while (fed < data.size()) {
      const std::size_t piece =
          std::min<std::size_t>(1 + split.next_below(9000), data.size() - fed);
      scanner.feed(ByteSpan{data}.subspan(fed, piece));
      fed += piece;
    }
    const std::vector<Shingle> shingles = scanner.finish();
    ASSERT_EQ(shingles.size(), chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(shingles[i].offset, base_offset + chunks[i].offset);
      EXPECT_EQ(shingles[i].length, chunks[i].length);
      EXPECT_EQ(shingles[i].hash, shingle_hash(chunks[i].id));
    }
  }
}

TEST(Scanners, SignatureScannerMatchesComputeSignature) {
  Rng rng(31);
  for (const std::size_t size : {0u, 1u, 4095u, 4096u, 4097u, 100'000u}) {
    const Bytes data = rng.bytes(size);
    const Signature batch =
        compute_signature(ByteSpan{data}, 4096, /*with_strong=*/true, nullptr);

    SignatureScanner scanner(4096, nullptr);
    std::size_t fed = 0;
    Rng split(37);
    while (fed < data.size()) {
      const std::size_t piece =
          std::min<std::size_t>(1 + split.next_below(7000), data.size() - fed);
      scanner.feed(ByteSpan{data}.subspan(fed, piece));
      fed += piece;
    }
    const Signature streamed = scanner.finish();
    EXPECT_EQ(streamed.block_size, batch.block_size) << "size " << size;
    EXPECT_EQ(streamed.file_size, batch.file_size);
    EXPECT_EQ(streamed.has_strong, batch.has_strong);
    EXPECT_EQ(streamed.weak, batch.weak);
    EXPECT_EQ(streamed.strong, batch.strong);
  }
}

// ---------------------------------------------------------------------------
// 2. Planner property tests against a local oracle.

/// Serves planner queries straight from a base buffer, exactly the way the
/// server answers from its stored version — clamped regions, scanners fed
/// region bytes, shingles concatenated in region order.  Tracks an
/// approximate answer wire bill so tests can compare negotiation traffic.
struct Oracle {
  ByteSpan base;
  std::uint64_t answer_bytes = 0;

  std::vector<Region> clamp(const std::vector<Region>& regions) const {
    std::vector<Region> out;
    if (regions.empty()) {
      if (!base.empty()) out.push_back({0, base.size()});
      else out.push_back({0, 0});
      return out;
    }
    for (const Region& r : regions) {
      const std::uint64_t offset = std::min<std::uint64_t>(r.offset,
                                                           base.size());
      const std::uint64_t length =
          std::min<std::uint64_t>(r.length, base.size() - offset);
      out.push_back({offset, length});
    }
    return out;
  }

  std::vector<Shingle> shingles(const Planner::Query& query) {
    std::vector<Shingle> out;
    for (const Region& r : clamp(query.regions)) {
      ShingleScanner scanner(r.offset, query.cdc, nullptr);
      scanner.feed(base.subspan(r.offset, r.length));
      std::vector<Shingle> part = scanner.finish();
      answer_bytes += part.size() * 24;  // offset + length + hash
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  std::vector<RegionSignature> signatures(const Planner::Query& query) {
    std::vector<RegionSignature> out;
    for (const Region& r : clamp(query.regions)) {
      SignatureScanner scanner(query.block_size, nullptr);
      scanner.feed(base.subspan(r.offset, r.length));
      out.push_back({r, scanner.finish()});
      answer_bytes += out.back().signature.wire_size();
    }
    return out;
  }
};

struct ReconRun {
  rsyncx::Delta delta;
  std::uint32_t rounds = 0;
  std::uint64_t answer_bytes = 0;  ///< server-to-client negotiation bytes
};

// ASSERT_* needs a void body; run the drive loop inside a lambda.
ReconRun must_reconcile(ByteSpan base, ByteSpan target,
                        const ReconParams& params, Planner::Mode mode) {
  ReconRun run;
  [&]() {
    Planner planner(target, params, nullptr, mode);
    Oracle oracle{base};
    int guard = 0;
    while (std::optional<Planner::Query> query = planner.next_query()) {
      ASSERT_LT(guard++, 64) << "planner failed to converge";
      if (query->want_signatures) {
        const std::vector<RegionSignature> sigs = oracle.signatures(*query);
        planner.on_signatures(sigs);
      } else {
        planner.on_shingles(base.size(), oracle.shingles(*query));
      }
    }
    EXPECT_TRUE(planner.done());
    run.rounds = planner.rounds();
    run.answer_bytes = oracle.answer_bytes;
    run.delta = planner.take_delta();
  }();
  return run;
}

void expect_roundtrip(ByteSpan base, ByteSpan target,
                      const ReconParams& params, Planner::Mode mode,
                      const char* what) {
  const ReconRun run = must_reconcile(base, target, params, mode);
  const Result<Bytes> rebuilt = apply_delta(base, run.delta);
  ASSERT_TRUE(rebuilt.is_ok()) << what;
  EXPECT_EQ(rebuilt->size(), target.size()) << what;
  EXPECT_TRUE(std::equal(rebuilt->begin(), rebuilt->end(), target.begin(),
                         target.end()))
      << what;
  EXPECT_EQ(run.delta.base_size, base.size()) << what;
  EXPECT_EQ(run.delta.target_size, target.size()) << what;
}

ReconParams small_params() {
  ReconParams params;
  params.coarse_average = 16 * 1024;
  params.fanout = 4;
  params.min_average = 2 * 1024;
  params.block_size = 512;
  params.max_rounds = 6;
  return params;
}

TEST(Planner, IdenticalFilesBothModes) {
  Rng rng(41);
  const Bytes base = rng.bytes(200'000);
  for (const Planner::Mode mode :
       {Planner::Mode::classic, Planner::Mode::recursive}) {
    const ReconRun run =
        must_reconcile(ByteSpan{base}, ByteSpan{base}, small_params(), mode);
    const Result<Bytes> rebuilt = apply_delta(ByteSpan{base}, run.delta);
    ASSERT_TRUE(rebuilt.is_ok());
    EXPECT_EQ(*rebuilt, base);
    // Identical content: nothing ships as literal.
    EXPECT_EQ(run.delta.literal_bytes(), 0u);
  }
  // Recursive converges without descending past round 0 + final.
  const ReconRun recursive = must_reconcile(
      ByteSpan{base}, ByteSpan{base}, small_params(), Planner::Mode::recursive);
  EXPECT_LE(recursive.rounds, 2u);
}

TEST(Planner, SparseEditNarrowsTraffic) {
  Rng rng(43);
  const Bytes base = rng.bytes(2'000'000);
  Bytes target = base;
  for (std::size_t i = 0; i < 100; ++i) target[1'000'000 + i] ^= 0x5a;

  const ReconParams params = small_params();
  expect_roundtrip(ByteSpan{base}, ByteSpan{target}, params,
                   Planner::Mode::recursive, "sparse recursive");
  expect_roundtrip(ByteSpan{base}, ByteSpan{target}, params,
                   Planner::Mode::classic, "sparse classic");

  const ReconRun recursive = must_reconcile(ByteSpan{base}, ByteSpan{target},
                                            params, Planner::Mode::recursive);
  const ReconRun classic = must_reconcile(ByteSpan{base}, ByteSpan{target},
                                          params, Planner::Mode::classic);
  // The whole point: negotiation proportional to the dirty region, not the
  // file.  The classic bill is the full signature (~20 B per 512 B block).
  EXPECT_LT(recursive.answer_bytes, classic.answer_bytes / 2)
      << "recursive " << recursive.answer_bytes << " vs classic "
      << classic.answer_bytes;
  EXPECT_GT(recursive.rounds, 1u);
  EXPECT_EQ(classic.rounds, 1u);
}

TEST(Planner, EditsAtStartAndEnd) {
  Rng rng(47);
  const Bytes base = rng.bytes(500'000);
  for (const std::size_t at : {std::size_t{0}, base.size() - 64}) {
    Bytes target = base;
    for (std::size_t i = 0; i < 64; ++i) target[at + i] = 0x77;
    for (const Planner::Mode mode :
         {Planner::Mode::classic, Planner::Mode::recursive}) {
      expect_roundtrip(ByteSpan{base}, ByteSpan{target}, small_params(), mode,
                       at == 0 ? "edit at start" : "edit at end");
    }
  }
}

TEST(Planner, EmptyBaseAndEmptyTarget) {
  Rng rng(53);
  const Bytes content = rng.bytes(50'000);
  const Bytes empty;
  for (const Planner::Mode mode :
       {Planner::Mode::classic, Planner::Mode::recursive}) {
    expect_roundtrip(ByteSpan{empty}, ByteSpan{content}, small_params(), mode,
                     "empty base");
    expect_roundtrip(ByteSpan{content}, ByteSpan{empty}, small_params(), mode,
                     "empty target");
    expect_roundtrip(ByteSpan{empty}, ByteSpan{empty}, small_params(), mode,
                     "both empty");
  }
}

TEST(Planner, GrowthAndShrink) {
  Rng rng(59);
  const Bytes base = rng.bytes(300'000);
  Bytes grown = base;
  append(grown, rng.bytes(100'000));
  Bytes shrunk(base.begin(), base.begin() + 120'000);
  for (const Planner::Mode mode :
       {Planner::Mode::classic, Planner::Mode::recursive}) {
    expect_roundtrip(ByteSpan{base}, ByteSpan{grown}, small_params(), mode,
                     "growth");
    expect_roundtrip(ByteSpan{base}, ByteSpan{shrunk}, small_params(), mode,
                     "shrink");
  }
}

class PlannerRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerRandomized, RecursiveEqualsClassicEqualsTarget) {
  Rng rng(GetParam());
  const Bytes base = rng.bytes(20'000 + rng.next_below(400'000));
  Bytes target = base;
  // A handful of random mutations: flips, inserts, deletes.
  const std::size_t mutations = 1 + rng.next_below(6);
  for (std::size_t m = 0; m < mutations; ++m) {
    switch (rng.next_below(3)) {
      case 0: {  // flip a span
        if (target.empty()) break;
        const std::size_t at = rng.next_below(target.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next_below(5000), target.size() - at);
        for (std::size_t i = 0; i < len; ++i) target[at + i] ^= 0x3c;
        break;
      }
      case 1: {  // insert
        const std::size_t at = rng.next_below(target.size() + 1);
        const Bytes extra = rng.bytes(1 + rng.next_below(20'000));
        target.insert(target.begin() + at, extra.begin(), extra.end());
        break;
      }
      case 2: {  // erase
        if (target.empty()) break;
        const std::size_t at = rng.next_below(target.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next_below(30'000),
                                  target.size() - at);
        target.erase(target.begin() + at, target.begin() + at + len);
        break;
      }
    }
  }
  for (const Planner::Mode mode :
       {Planner::Mode::classic, Planner::Mode::recursive}) {
    expect_roundtrip(ByteSpan{base}, ByteSpan{target}, small_params(), mode,
                     mode == Planner::Mode::classic ? "classic" : "recursive");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerRandomized,
                         ::testing::Range<std::uint64_t>(100, 120));

// ---------------------------------------------------------------------------
// 3. Protocol codecs.

TEST(ReconProto, RequestRoundTrip) {
  proto::ReconRequest request;
  request.session = 0x1122334455667788ull;
  request.round = 3;
  request.want = proto::ReconRequest::Want::shingles;
  request.minimum = 4096;
  request.average = 16384;
  request.maximum = 65536;
  request.block_size = 0;
  request.regions = {{0, 100}, {5000, 70000}, {1ull << 40, 1ull << 20}};

  const Bytes wire = proto::encode(request);
  const Result<proto::ReconRequest> decoded =
      proto::decode_recon_request(ByteSpan{wire});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, request);

  proto::ReconRequest sig_request;
  sig_request.session = 9;
  sig_request.round = 0;
  sig_request.want = proto::ReconRequest::Want::signatures;
  sig_request.block_size = 4096;
  const Bytes sig_wire = proto::encode(sig_request);
  const Result<proto::ReconRequest> sig_decoded =
      proto::decode_recon_request(ByteSpan{sig_wire});
  ASSERT_TRUE(sig_decoded.is_ok());
  EXPECT_EQ(*sig_decoded, sig_request);
}

TEST(ReconProto, ResponseRoundTrip) {
  proto::ReconResponse response;
  response.session = 77;
  response.round = 2;
  response.result = Errc::ok;
  response.base = proto::VersionId{3, 12345};
  response.base_deleted = true;
  response.base_size = 1ull << 33;
  response.trace_id = 0xabcdef;
  response.shingles = {{0, 4096, 0xdeadbeef}, {4096, 100, 42}};
  Signature signature;
  signature.block_size = 512;
  signature.file_size = 1300;
  signature.has_strong = true;
  signature.weak = {1, 2, 3};
  signature.strong = {Md5::Digest{}, Md5::Digest{}, Md5::Digest{}};
  response.signatures.push_back({{9000, 1300}, signature});

  const Bytes wire = proto::encode(response);
  const Result<proto::ReconResponse> decoded =
      proto::decode_recon_response(ByteSpan{wire});
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->session, response.session);
  EXPECT_EQ(decoded->round, response.round);
  EXPECT_EQ(decoded->result, response.result);
  EXPECT_EQ(decoded->base, response.base);
  EXPECT_EQ(decoded->base_deleted, response.base_deleted);
  EXPECT_EQ(decoded->base_size, response.base_size);
  EXPECT_EQ(decoded->trace_id, response.trace_id);
  ASSERT_EQ(decoded->shingles.size(), response.shingles.size());
  for (std::size_t i = 0; i < response.shingles.size(); ++i) {
    EXPECT_EQ(decoded->shingles[i].offset, response.shingles[i].offset);
    EXPECT_EQ(decoded->shingles[i].length, response.shingles[i].length);
    EXPECT_EQ(decoded->shingles[i].hash, response.shingles[i].hash);
  }
  ASSERT_EQ(decoded->signatures.size(), 1u);
  EXPECT_EQ(decoded->signatures[0].region, response.signatures[0].region);
  EXPECT_EQ(decoded->signatures[0].signature.weak, signature.weak);
  EXPECT_EQ(decoded->signatures[0].signature.strong, signature.strong);
  EXPECT_EQ(decoded->signatures[0].signature.file_size, signature.file_size);
}

TEST(ReconProto, TruncatedWireNeverDecodes) {
  proto::ReconRequest request;
  request.session = 1;
  request.regions = {{0, 100}, {200, 300}};
  const Bytes request_wire = proto::encode(request);
  for (std::size_t cut = 0; cut < request_wire.size(); ++cut) {
    const Result<proto::ReconRequest> decoded = proto::decode_recon_request(
        ByteSpan{request_wire}.subspan(0, cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix " << cut << " decoded";
  }

  proto::ReconResponse response;
  response.session = 2;
  response.shingles = {{0, 10, 1}};
  Signature signature;
  signature.block_size = 512;
  signature.file_size = 700;
  signature.weak = {5, 6};
  signature.strong = {Md5::Digest{}, Md5::Digest{}};
  response.signatures.push_back({{0, 700}, signature});
  const Bytes response_wire = proto::encode(response);
  for (std::size_t cut = 0; cut < response_wire.size(); ++cut) {
    const Result<proto::ReconResponse> decoded = proto::decode_recon_response(
        ByteSpan{response_wire}.subspan(0, cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix " << cut << " decoded";
  }
}

// ---------------------------------------------------------------------------
// 4. End-to-end equivalence across the full stack.

void drain(DeltaCfsSystem& system, VirtualClock& clock) {
  for (int i = 0; i < 100; ++i) {
    clock.advance(milliseconds(200));
    system.tick(clock.now());
  }
  system.finish(clock.now());
  system.tick(clock.now());
}

ClientConfig recon_config(ReconMode mode, std::uint32_t threads) {
  ClientConfig config;
  config.recon_mode = mode;
  config.recon_min_bytes = 256 * 1024;
  config.recon.coarse_average = 64 * 1024;
  config.recon.fanout = 4;
  config.recon.min_average = 8 * 1024;
  config.recon.block_size = 4096;
  config.delta_threads = threads;
  return config;
}

ServerConfig recon_server_config(std::size_t shards) {
  ServerConfig config;
  config.apply_shards = shards;
  return config;
}

struct ScenarioOut {
  Bytes cloud;
  std::uint64_t recon_up = 0;
  std::uint64_t recon_down = 0;
  std::uint64_t sessions = 0;
  std::uint64_t rounds = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t saved = 0;
  std::uint64_t meter_recon_bytes = 0;
  std::uint64_t meter_recon_messages = 0;
};

/// "t<threads>s<shards>".  Built with append: GCC 12 at -O3 raises a false
/// -Wrestrict on operator+ chains that start from a temporary string.
std::string config_label(std::uint32_t threads, std::size_t shards) {
  std::string label = "t";
  label.append(std::to_string(threads)).append("s");
  return label.append(std::to_string(shards));
}

/// config_label plus "m<mode>": one scenario run's key.
std::string scenario_key(std::uint32_t threads, std::size_t shards,
                         ReconMode mode) {
  return config_label(threads, shards)
      .append("m")
      .append(std::to_string(static_cast<int>(mode)));
}

/// The full_file trigger: a file the server already holds is overwritten by
/// renaming new content in from outside the sync scope — the rename-into-
/// scope path uploads whole content, which is exactly what reconciliation
/// negotiates away.
ScenarioOut run_overwrite_scenario(const Bytes& base, const Bytes& edited,
                                   ReconMode mode, std::uint32_t threads,
                                   std::size_t shards) {
  VirtualClock clock;
  DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                        recon_config(mode, threads), CostProfile::pc(),
                        nullptr, recon_server_config(shards));
  FileSystem& fs = system.fs();
  fs.mkdir("/sync");
  fs.mkdir("/stash");
  fs.write_file("/sync/big", base);
  drain(system, clock);

  fs.write_file("/stash/next", edited);
  fs.rename("/stash/next", "/sync/big");
  drain(system, clock);

  ScenarioOut out;
  const Result<Bytes> cloud = system.server().fetch("/sync/big");
  if (cloud.is_ok()) out.cloud = *cloud;
  out.recon_up = system.client().recon_up_bytes();
  out.recon_down = system.client().recon_down_bytes();
  out.sessions = system.client().recon_sessions_started();
  out.rounds = system.client().recon_rounds_sent();
  out.fallbacks = system.client().recon_fallbacks();
  out.saved = system.client().recon_sig_bytes_saved();
  out.meter_recon_bytes =
      system.transport().meter().up_bytes(proto::MessageType::recon) +
      system.transport().meter().down_bytes(proto::MessageType::recon);
  out.meter_recon_messages =
      system.transport().meter().up_messages(proto::MessageType::recon) +
      system.transport().meter().down_messages(proto::MessageType::recon);
  EXPECT_EQ(system.client().recon_in_flight(), 0u);
  return out;
}

TEST(ReconE2e, EquivalenceAcrossThreadsShardsAndMode) {
  Rng rng(6100);
  const Bytes base = rng.bytes(2 * 1024 * 1024);
  Bytes edited = base;
  for (std::size_t i = 0; i < 4096; ++i) edited[1'000'000 + i] ^= 0x99;

  // Classic signature bill for this file: ~20 B per 4 KiB block.
  const std::uint64_t classic_signature =
      16 + ((base.size() + 4095) / 4096) * 20;

  std::map<std::string, ScenarioOut> runs;
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      for (const ReconMode mode :
           {ReconMode::off, ReconMode::classic, ReconMode::recursive}) {
        const std::string key = scenario_key(threads, shards, mode);
        const ScenarioOut out =
            run_overwrite_scenario(base, edited, mode, threads, shards);
        // The golden invariant: identical server state in every config.
        ASSERT_EQ(out.cloud.size(), edited.size()) << key;
        EXPECT_TRUE(std::equal(out.cloud.begin(), out.cloud.end(),
                               edited.begin()))
            << key;
        if (mode == ReconMode::off) {
          EXPECT_EQ(out.sessions, 0u) << key;
          EXPECT_EQ(out.meter_recon_bytes, 0u) << key;
        } else {
          EXPECT_GE(out.sessions, 1u) << key;
          EXPECT_EQ(out.fallbacks, 0u) << key;
        }
        runs.emplace(key, out);
      }
    }
  }

  // Wire bill (exact): recursive negotiation must be well under the
  // classic whole-file signature, and under the classic mode's measured
  // recon traffic.
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      const std::string stem = config_label(threads, shards);
      const ScenarioOut& classic =
          runs.at(scenario_key(threads, shards, ReconMode::classic));
      const ScenarioOut& recursive =
          runs.at(scenario_key(threads, shards, ReconMode::recursive));
      EXPECT_GE(classic.recon_down, classic_signature) << stem;
      EXPECT_LT(recursive.recon_up + recursive.recon_down,
                (classic.recon_up + classic.recon_down) / 2)
          << stem;
      EXPECT_LT(recursive.recon_down, classic_signature / 2) << stem;
      EXPECT_GT(recursive.rounds, classic.rounds) << stem;
      EXPECT_GT(recursive.saved, 0u) << stem;
      // Client counters and the transport meter agree on recon traffic:
      // the meter additionally charges the fixed framing overhead.
      EXPECT_EQ(recursive.meter_recon_bytes,
                recursive.recon_up + recursive.recon_down +
                    recursive.meter_recon_messages *
                        NetProfile::pc_wan().frame_overhead)
          << stem;
    }
  }
}

TEST(ReconE2e, TombstoneRevivalReconciles) {
  // Delete-then-recreate: sync a file, rename it out of scope (server keeps
  // a tombstone with history), edit it outside, rename it back in.  The
  // recon base resolves from the tombstone's last version.
  Rng rng(6200);
  const Bytes base = rng.bytes(1 * 1024 * 1024);
  Bytes edited = base;
  for (std::size_t i = 0; i < 512; ++i) edited[500'000 + i] ^= 0x42;

  VirtualClock clock;
  DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                        recon_config(ReconMode::recursive, 1),
                        CostProfile::pc(), nullptr,
                        recon_server_config(1));
  FileSystem& fs = system.fs();
  fs.mkdir("/sync");
  fs.mkdir("/stash");
  fs.write_file("/sync/big", base);
  drain(system, clock);

  fs.rename("/sync/big", "/stash/big");
  drain(system, clock);
  EXPECT_FALSE(system.server().fetch("/sync/big").is_ok());

  fs.write_file("/stash/big", edited);
  fs.rename("/stash/big", "/sync/big");
  drain(system, clock);

  const Result<Bytes> cloud = system.server().fetch("/sync/big");
  ASSERT_TRUE(cloud.is_ok());
  EXPECT_EQ(*cloud, edited);
  EXPECT_GE(system.client().recon_sessions_started(), 1u);
  EXPECT_EQ(system.client().recon_fallbacks(), 0u);
  EXPECT_EQ(system.client().recon_in_flight(), 0u);
  EXPECT_GE(system.server().recon_queries(), 1u);
}

TEST(ReconE2e, UnknownBaseFallsBackToFullUpload) {
  // A file the server has never seen renamed into scope: the first round
  // answers not_found and the client falls back to the plain full upload.
  Rng rng(6300);
  const Bytes content = rng.bytes(512 * 1024);

  VirtualClock clock;
  DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                        recon_config(ReconMode::recursive, 1),
                        CostProfile::pc(), nullptr,
                        recon_server_config(1));
  FileSystem& fs = system.fs();
  fs.mkdir("/sync");
  fs.mkdir("/stash");
  fs.write_file("/stash/fresh", content);
  fs.rename("/stash/fresh", "/sync/fresh");
  drain(system, clock);

  const Result<Bytes> cloud = system.server().fetch("/sync/fresh");
  ASSERT_TRUE(cloud.is_ok());
  EXPECT_EQ(*cloud, content);
  EXPECT_EQ(system.client().recon_sessions_started(), 1u);
  EXPECT_EQ(system.client().recon_fallbacks(), 1u);
  EXPECT_EQ(system.client().recon_in_flight(), 0u);
}

TEST(ReconE2e, UnrelatedSmallOpsFlowWhileReconIsInFlight) {
  // Regression: a recon session used to pause the whole sync queue until
  // its last round resolved.  The pause is now scoped to the reconciling
  // file's stream class — a small unrelated write shipped after the recon
  // trigger must land on the server while the session is still in flight.
  Rng rng(6400);
  const Bytes base = rng.bytes(4 * 1024 * 1024);
  Bytes edited = base;
  for (std::size_t i = 0; i < 64; ++i) edited[i * 65'536] ^= 0x5a;

  ClientConfig config = recon_config(ReconMode::recursive, 1);
  config.recon.fanout = 2;           // deeper narrowing: more rounds,
  config.recon.min_average = 4096;   // a wider in-flight window to observe
  VirtualClock clock;
  DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::mobile_wan(),
                        config, CostProfile::pc(), nullptr,
                        recon_server_config(1));
  FileSystem& fs = system.fs();
  fs.mkdir("/sync");
  fs.mkdir("/stash");
  fs.write_file("/sync/big", base);
  drain(system, clock);

  fs.write_file("/stash/next", edited);
  fs.rename("/stash/next", "/sync/big");   // recon trigger
  fs.write_file("/sync/note.txt", to_bytes("meeting at noon"));

  bool note_landed_during_recon = false;
  std::uint64_t max_in_flight = 0;
  for (int i = 0; i < 100; ++i) {
    clock.advance(milliseconds(200));
    system.tick(clock.now());
    const std::uint64_t in_flight = system.client().recon_in_flight();
    max_in_flight = std::max(max_in_flight, in_flight);
    if (in_flight > 0 && system.server().fetch("/sync/note.txt").is_ok()) {
      note_landed_during_recon = true;
    }
  }
  system.finish(clock.now());
  system.tick(clock.now());

  EXPECT_GE(max_in_flight, 1u) << "scenario never started a recon session";
  EXPECT_TRUE(note_landed_during_recon)
      << "small unrelated op was held behind the recon session";
  EXPECT_GE(system.client().recon_sessions_started(), 1u);
  EXPECT_EQ(system.client().recon_in_flight(), 0u);
  EXPECT_EQ(*system.server().fetch("/sync/big"), edited);
  EXPECT_EQ(as_text(*system.server().fetch("/sync/note.txt")),
            "meeting at noon");
}

TEST(ReconE2e, RandomOpsUnaffectedByReconMode) {
  // Reconciliation must not disturb ordinary small-file traffic: the same
  // random op sequence converges identically with recon on (files here are
  // all below recon_min_bytes, so sessions never start) and the golden
  // e2e invariant holds.
  for (const ReconMode mode : {ReconMode::off, ReconMode::recursive}) {
    VirtualClock clock;
    DeltaCfsSystem system(clock, CostProfile::pc(), NetProfile::pc_wan(),
                          recon_config(mode, 1), CostProfile::pc(),
                          nullptr, recon_server_config(1));
    FileSystem& fs = system.fs();
    fs.mkdir("/sync");
    Rng rng(6400);
    for (int i = 0; i < 40; ++i) {
      const std::string name = "/sync/f" + std::to_string(rng.next_below(6));
      if (rng.next_below(4) == 0) {
        fs.unlink(name);
      } else {
        fs.write_file(name, rng.bytes(1 + rng.next_below(40'000)));
      }
      if (rng.next_below(3) == 0) {
        clock.advance(milliseconds(700));
        system.tick(clock.now());
      }
    }
    drain(system, clock);
    EXPECT_EQ(system.client().recon_sessions_started(), 0u);
    for (int i = 0; i < 6; ++i) {
      const std::string name = "/sync/f" + std::to_string(i);
      const Result<Bytes> local = fs.read_file(name);
      const Result<Bytes> cloud = system.server().fetch(name);
      EXPECT_EQ(local.is_ok(), cloud.is_ok()) << name;
      if (local.is_ok() && cloud.is_ok()) {
        EXPECT_EQ(*local, *cloud) << name;
      }
    }
  }
}

}  // namespace
}  // namespace dcfs
