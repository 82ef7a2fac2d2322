// Serial-vs-parallel equivalence for the sharded apply pipeline.
//
// Deterministic multi-client record streams — full files, deltas (fresh and
// stale), creates, unlinks, renames, links, truncates, transactional groups
// (including groups split across pump batches) — are pumped through
// CloudServers configured with 1, 2, 4 and 8 apply shards.  Every observable
// output must be byte-identical to the serial server's: file contents and
// versions, block-backed histories, conflict copies, rejections, arrival
// order, per-client downstream frame sequences (acks and forwards), the
// CostMeter's per-kind breakdown, and block-store accounting.
//
// Also checks that the direct-call entry point (apply_record) matches
// pump() record for record.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compress/lz.h"
#include "net/transport.h"
#include "proto/messages.h"
#include "rsyncx/delta.h"
#include "server/cloud_server.h"

namespace dcfs {
namespace {

using proto::OpKind;
using proto::SyncRecord;
using proto::VersionId;

constexpr std::uint32_t kClients = 3;
constexpr std::size_t kRounds = 10;

/// One simulated client's view while generating its stream: what it last
/// wrote per path (possibly stale on the server — that's the point).
struct ClientState {
  std::uint32_t id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t version_counter = 0;
  std::uint64_t group_counter = 0;
  std::map<std::string, std::pair<VersionId, Bytes>> shadow;
  /// A group opened in an earlier round, waiting for its closer.
  std::vector<SyncRecord> open_group;
};

Bytes mutate(Rng& rng, const Bytes& base) {
  Bytes out = base;
  if (out.empty()) return rng.bytes(rng.next_in(64, 512));
  for (std::uint64_t flips = rng.next_in(1, 4); flips > 0; --flips) {
    out[rng.next_below(out.size())] ^= static_cast<std::uint8_t>(
        rng.next_in(1, 255));
  }
  if (rng.next_below(2) == 0) {
    const Bytes tail = rng.bytes(rng.next_in(1, 64));
    out.insert(out.end(), tail.begin(), tail.end());
  }
  return out;
}

std::string pool_path(std::uint64_t n) {
  return "/sync/f" + std::to_string(n % 8);
}

/// Generates one record; advances the client's shadow state.
SyncRecord make_record(Rng& rng, ClientState& client) {
  SyncRecord record;
  record.sequence = ++client.sequence;
  const std::string path = pool_path(rng.next_u64());
  const VersionId version{client.id, ++client.version_counter};
  record.new_version = version;
  const auto shadow = client.shadow.find(path);
  const bool known = shadow != client.shadow.end();

  switch (rng.next_below(12)) {
    case 0:
    case 1:
    case 2: {  // full file: fresh, or a near-identical rewrite (dedup food)
      record.kind = OpKind::full_file;
      record.path = path;
      record.payload = known && rng.next_below(2) == 0
                           ? mutate(rng, shadow->second.second)
                           : rng.bytes(rng.next_in(100, 2000));
      client.shadow[path] = {version, record.payload};
      break;
    }
    case 3:
    case 4:
    case 5: {  // delta against the client's (possibly stale) base
      if (!known) {
        record.kind = OpKind::full_file;
        record.path = path;
        record.payload = rng.bytes(rng.next_in(100, 2000));
        client.shadow[path] = {version, record.payload};
        break;
      }
      const Bytes target = mutate(rng, shadow->second.second);
      record.kind = OpKind::file_delta;
      record.path = path;
      record.base_version = shadow->second.first;
      record.payload = rsyncx::encode_delta(
          rsyncx::compute_delta_local(shadow->second.second, target, 4096,
                                      nullptr));
      client.shadow[path] = {version, target};
      break;
    }
    case 6: {  // create (sometimes a revival of an unlinked path)
      record.kind = OpKind::create;
      record.path = path;
      client.shadow[path] = {version, Bytes{}};
      break;
    }
    case 7: {  // unlink
      record.kind = OpKind::unlink;
      record.path = path;
      if (known) {
        record.base_version = shadow->second.first;
        client.shadow.erase(shadow);
      }
      break;
    }
    case 8: {  // rename within the pool
      record.kind = OpKind::rename;
      record.path = path;
      record.path2 = pool_path(rng.next_u64());
      if (record.path2 == record.path) record.path2 += ".renamed";
      if (known) {
        record.base_version = shadow->second.first;
        Bytes content = std::move(shadow->second.second);
        client.shadow.erase(shadow);
        client.shadow[record.path2] = {version, std::move(content)};
      }
      break;
    }
    case 9: {  // hard link
      record.kind = OpKind::link;
      record.path = path;
      record.path2 = pool_path(rng.next_u64());
      if (record.path2 == record.path) record.path2 += ".link";
      if (known) client.shadow[record.path2] = {version, shadow->second.second};
      break;
    }
    case 10: {  // mkdir / rmdir
      record.kind = rng.next_below(3) == 0 ? OpKind::rmdir : OpKind::mkdir;
      record.path = "/sync/d" + std::to_string(rng.next_below(4));
      break;
    }
    default: {  // truncate
      if (!known || shadow->second.second.empty()) {
        record.kind = OpKind::create;
        record.path = path;
        client.shadow[path] = {version, Bytes{}};
        break;
      }
      record.kind = OpKind::truncate;
      record.path = path;
      record.base_version = shadow->second.first;
      record.size = rng.next_below(shadow->second.second.size() + 1);
      shadow->second.second.resize(record.size);
      shadow->second.first = version;
      break;
    }
  }
  return record;
}

/// The records one client sends in one round.  Occasionally wraps a few
/// records into a transactional group, sometimes leaving it open so the
/// closer lands in a later pump batch.
std::vector<SyncRecord> make_round(Rng& rng, ClientState& client) {
  std::vector<SyncRecord> records;
  // Close a group left open last round first (tests cross-batch buffering).
  if (!client.open_group.empty()) {
    for (SyncRecord& member : client.open_group) {
      records.push_back(std::move(member));
    }
    client.open_group.clear();
    records.back().txn_last = true;
  }
  const std::size_t count = rng.next_in(3, 6);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.next_below(5) == 0) {  // transactional group of 2-3 records
      const std::uint64_t group = ++client.group_counter;
      const std::size_t members = rng.next_in(2, 3);
      std::vector<SyncRecord> grouped;
      for (std::size_t m = 0; m < members; ++m) {
        SyncRecord member = make_record(rng, client);
        member.txn_group = group;
        member.txn_last = false;
        grouped.push_back(std::move(member));
      }
      if (rng.next_below(4) == 0) {  // leave open until the next round
        client.open_group = std::move(grouped);
      } else {
        grouped.back().txn_last = true;
        for (SyncRecord& member : grouped) records.push_back(std::move(member));
      }
    } else {
      records.push_back(make_record(rng, client));
    }
  }
  return records;
}

void dump_bytes(std::ostringstream& out, const Bytes& bytes) {
  out << bytes.size() << ':';
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Everything the outside world can observe, rendered to strings so a
/// mismatch fails with a comparable diff.
struct Observed {
  std::string state;    ///< files, versions, histories, conflicts, counters
  std::string wire;     ///< per-client downstream frame sequences
  std::string meter;    ///< CostMeter per-kind breakdown + store accounting
  std::size_t processed = 0;
};

Observed observe(const CloudServer& server,
                 const std::vector<std::vector<Bytes>>& downstream,
                 std::size_t processed) {
  std::ostringstream state;
  for (const std::string& path : server.paths()) {
    state << "file " << path << " v="
          << proto::to_string(*server.version(path)) << " ";
    Result<Bytes> content = server.fetch(path);
    dump_bytes(state, content.is_ok() ? *content : Bytes{});
    state << "\n";
    for (const VersionId& version : server.history(path)) {
      Result<Bytes> old_content = server.fetch_version(path, version);
      state << "  hist " << proto::to_string(version) << " ";
      dump_bytes(state, old_content.is_ok() ? *old_content : Bytes{});
      state << "\n";
    }
  }
  for (const std::string& path : server.conflict_paths()) {
    state << "conflict " << path << "\n";
  }
  for (const std::string& path : server.arrival_order()) {
    state << "arrival " << path << "\n";
  }
  for (const CloudServer::Rejection& rejection : server.rejections()) {
    state << "reject " << proto::to_string(rejection.kind) << " "
          << rejection.path << " " << rejection.path2 << " "
          << to_string(rejection.result) << "\n";
  }
  state << "records_applied=" << server.records_applied()
        << " conflicts=" << server.conflicts_seen()
        << " groups=" << server.txn_groups_applied() << "\n";

  std::ostringstream wire;
  for (std::size_t c = 0; c < downstream.size(); ++c) {
    wire << "client " << c + 1 << ": " << downstream[c].size() << " frames\n";
    for (const Bytes& frame : downstream[c]) {
      dump_bytes(wire, frame);
      wire << "\n";
    }
  }

  std::ostringstream meter;
  const CostSnapshot snap = server.meter().snapshot();
  for (std::size_t i = 0; i < kCostKindCount; ++i) {
    meter << to_string(static_cast<CostKind>(i)) << "="
          << snap.units_by_kind[i] << "\n";
  }
  meter << "store unique=" << server.store().unique_bytes()
        << " logical=" << server.store().logical_bytes() << "\n";

  return {state.str(), wire.str(), meter.str(), processed};
}

/// Runs the seeded scenario against a server with `shards` apply lanes.
/// `prefill` unrelated files, each with history, are applied first (a
/// namespace the stream never touches).
Observed run_scenario(std::uint64_t seed, std::size_t shards,
                      std::size_t prefill = 0) {
  ServerConfig config;
  config.apply_shards = shards;
  CloudServer server(CostProfile::pc(), config);
  Rng fill_rng(seed + 1'000);
  for (std::size_t i = 0; i < prefill; ++i) {
    SyncRecord record;
    record.kind = OpKind::full_file;
    record.path = "/bulk/f" + std::to_string(i);
    record.payload = fill_rng.bytes(fill_rng.next_in(64, 1'024));
    for (std::uint64_t v = 1; v <= 2; ++v) {
      record.payload = mutate(fill_rng, record.payload);
      record.new_version = {kClients + 1, i * 2 + v};
      server.apply_record(kClients + 1, record);
    }
  }

  std::vector<Transport> transports;
  transports.reserve(kClients);
  std::vector<ClientState> clients(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    transports.emplace_back(NetProfile::pc_wan());
    clients[c].id = c + 1;
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    server.attach(c + 1, transports[c]);
  }

  Rng rng(seed);
  std::size_t processed = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (const SyncRecord& record : make_round(rng, clients[c])) {
        transports[c].client_send(proto::encode(record));
      }
    }
    processed += server.pump();
  }

  std::vector<std::vector<Bytes>> downstream(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    while (std::optional<Bytes> frame = transports[c].client_poll()) {
      downstream[c].push_back(std::move(*frame));
    }
  }
  return observe(server, downstream, processed);
}

class ServerParallelEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServerParallelEquivalence, ShardCountsProduceIdenticalOutputs) {
  const std::uint64_t seed = GetParam();
  const Observed serial = run_scenario(seed, 1);
  ASSERT_GT(serial.processed, 100u) << "scenario too small to mean anything";
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const Observed parallel = run_scenario(seed, shards);
    EXPECT_EQ(parallel.processed, serial.processed) << "shards=" << shards;
    EXPECT_EQ(parallel.state, serial.state) << "shards=" << shards;
    EXPECT_EQ(parallel.wire, serial.wire) << "shards=" << shards;
    EXPECT_EQ(parallel.meter, serial.meter) << "shards=" << shards;
  }
}

TEST_P(ServerParallelEquivalence, PrefilledNamespaceMatchesSerial) {
  // Groups stage only their touched entries in both pumps, so a large
  // namespace the stream never touches changes nothing but its own dump.
  const std::uint64_t seed = GetParam();
  const Observed serial = run_scenario(seed, 1, /*prefill=*/500);
  for (const std::size_t shards : {2u, 4u}) {
    const Observed parallel = run_scenario(seed, shards, 500);
    EXPECT_EQ(parallel.processed, serial.processed) << "shards=" << shards;
    EXPECT_EQ(parallel.state, serial.state) << "shards=" << shards;
    EXPECT_EQ(parallel.wire, serial.wire) << "shards=" << shards;
    EXPECT_EQ(parallel.meter, serial.meter) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerParallelEquivalence,
                         ::testing::Values(1, 7, 42, 1234));

/// One pump's worth of records, as (client, record) in the order pump()
/// drains them: client by client, each client's records in send order.
using Round = std::vector<std::pair<std::uint32_t, SyncRecord>>;

SyncRecord scripted(OpKind kind, std::string path, VersionId base,
                    VersionId next) {
  SyncRecord record;
  record.kind = kind;
  record.path = std::move(path);
  record.base_version = base;
  record.new_version = next;
  return record;
}

SyncRecord scripted_write(std::string path, VersionId base, VersionId next,
                          Bytes data) {
  SyncRecord record =
      scripted(OpKind::write, std::move(path), base, next);
  record.payload = proto::encode_segments({{4, std::move(data)}});
  return record;
}

/// A scripted round that exercises every intake path — a compressed
/// payload, a committed transactional group (buffered members plus a
/// closer), a group that conflicts, a rename over an existing file, an
/// unlink plus recreate — followed by seeded random rounds.
std::vector<Round> entry_point_stream(std::uint64_t seed) {
  Rng rng(seed);
  Round script;
  std::uint64_t sequence = 0;
  const auto add = [&](std::uint32_t client, SyncRecord record) {
    record.sequence = ++sequence;
    script.emplace_back(client, std::move(record));
  };
  SyncRecord compressed = scripted(OpKind::full_file, "/e/a", {}, {1, 1});
  compressed.payload = lz::compress(rng.text(4'000));
  compressed.compressed = true;
  add(1, std::move(compressed));
  SyncRecord b = scripted(OpKind::full_file, "/e/b", {}, {1, 2});
  b.payload = rng.bytes(1'500);
  add(1, std::move(b));
  SyncRecord over = scripted(OpKind::rename, "/e/a", {1, 1}, {1, 3});
  over.path2 = "/e/b";  // replaces /e/b's content
  add(1, std::move(over));
  SyncRecord c = scripted(OpKind::full_file, "/e/c", {}, {1, 4});
  c.payload = rng.bytes(900);
  add(1, std::move(c));
  add(1, scripted(OpKind::unlink, "/e/c", {1, 4}, {}));
  add(1, scripted(OpKind::create, "/e/c", {}, {1, 5}));
  add(1, scripted_write("/e/c", {1, 5}, {1, 6}, rng.bytes(64)));
  // Client 1's group 1 commits: a buffered member, then the closer.
  SyncRecord member = scripted(OpKind::full_file, "/e/g1", {}, {1, 7});
  member.payload = rng.bytes(300);
  member.txn_group = 1;
  add(1, std::move(member));
  SyncRecord closer = scripted_write("/e/b", {1, 3}, {1, 8}, rng.bytes(32));
  closer.txn_group = 1;
  closer.txn_last = true;
  add(1, std::move(closer));
  // Client 2's group 1 (its own keyspace) writes /e/b at the base client
  // 1's group just replaced: the whole group conflicts.
  SyncRecord stale_member = scripted(OpKind::full_file, "/e/g2", {}, {2, 1});
  stale_member.payload = rng.bytes(200);
  stale_member.txn_group = 1;
  add(2, std::move(stale_member));
  SyncRecord stale = scripted_write("/e/b", {1, 3}, {2, 2}, rng.bytes(16));
  stale.txn_group = 1;
  stale.txn_last = true;
  add(2, std::move(stale));

  std::vector<Round> rounds{std::move(script)};
  std::vector<ClientState> clients(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients[c].id = c + 1;
    clients[c].sequence = 1'000;         // clear of the scripted sequences,
    clients[c].version_counter = 1'000;  // versions
    clients[c].group_counter = 1'000;    // and group ids
  }
  for (std::size_t r = 0; r < kRounds; ++r) {
    Round round;
    for (ClientState& client : clients) {
      for (SyncRecord& record : make_round(rng, client)) {
        round.emplace_back(client.id, std::move(record));
      }
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

/// Feeds `rounds` to a fresh server: framed through pump() at `shards`
/// lanes, or (shards == 0) through apply_record, sending each returned ack
/// down the client's transport and charging the meter for the upstream
/// frame and the ack exactly as pump() does.
Observed run_entry_point(const std::vector<Round>& rounds,
                         std::size_t shards) {
  ServerConfig config;
  config.apply_shards = std::max<std::size_t>(shards, 1);
  CloudServer server(CostProfile::pc(), config);
  std::vector<Transport> transports;
  transports.reserve(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    transports.emplace_back(NetProfile::pc_wan());
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    server.attach(c + 1, transports[c]);
  }
  std::size_t processed = 0;
  for (const Round& round : rounds) {
    for (const auto& [client, record] : round) {
      Bytes frame = proto::encode(record);
      if (shards > 0) {
        transports[client - 1].client_send(std::move(frame));
        continue;
      }
      server.meter().charge(CostKind::net_frame, frame.size());
      server.meter().charge(CostKind::encrypt, frame.size());
      const proto::Ack ack = server.apply_record(client, record);
      Bytes ack_frame{1};  // server-to-client tag: ack
      proto::encode_into(ack, ack_frame);
      server.meter().charge(CostKind::net_frame, ack_frame.size());
      transports[client - 1].server_send(std::move(ack_frame),
                                         proto::MessageType::ack);
      ++processed;
    }
    if (shards > 0) processed += server.pump();
  }
  std::vector<std::vector<Bytes>> downstream(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    while (std::optional<Bytes> frame = transports[c].client_poll()) {
      downstream[c].push_back(std::move(*frame));
    }
  }
  return observe(server, downstream, processed);
}

class ServerEntryPointEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServerEntryPointEquivalence, DirectCallMatchesPump) {
  const std::vector<Round> rounds = entry_point_stream(GetParam());
  const Observed direct = run_entry_point(rounds, /*shards=*/0);
  ASSERT_NE(direct.state.find("conflict /e/b.conflict-2"), std::string::npos)
      << "the scripted group conflict must land";
  for (const std::size_t shards : {1u, 2u}) {
    const Observed pumped = run_entry_point(rounds, shards);
    EXPECT_EQ(pumped.processed, direct.processed) << "shards=" << shards;
    EXPECT_EQ(pumped.state, direct.state) << "shards=" << shards;
    EXPECT_EQ(pumped.wire, direct.wire) << "shards=" << shards;
    EXPECT_EQ(pumped.meter, direct.meter) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerEntryPointEquivalence,
                         ::testing::Values(2, 11, 77));

}  // namespace
}  // namespace dcfs
