#include "server/cloud_server.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "compress/lz.h"
#include "rsyncx/delta.h"

namespace dcfs {
namespace {

/// The ack for `record` with verdict `result`, echoing its sequence and
/// trace context.
proto::Ack ack_for(const proto::SyncRecord& record, Errc result) {
  proto::Ack ack;
  ack.sequence = record.sequence;
  ack.result = result;
  ack.trace_id = record.trace_id;
  return ack;
}

}  // namespace

CloudServer::CloudServer(const CostProfile& profile, ServerConfig config,
                         obs::Obs* obs)
    : meter_(profile),
      config_(config),
      store_(config.chunking),
      // A one-lane pool never runs a batch; instrumenting it would only
      // overwrite the par.* metrics of a pool sharing the registry.
      pool_(config.apply_shards, config.apply_shards > 1 ? obs : nullptr) {
  if (obs != nullptr) {
    tracer_ = &obs->tracer;
    stages_ = &obs->stages;
    tn_.apply = tracer_->intern("server.apply");
    tn_.apply_group = tracer_->intern("server.apply_group");
    tn_.recon = tracer_->intern("server.recon");
    for (std::size_t k = static_cast<std::size_t>(proto::OpKind::create);
         k <= static_cast<std::size_t>(proto::OpKind::recon_query); ++k) {
      tn_.kind[k] =
          tracer_->intern(proto::to_string(static_cast<proto::OpKind>(k)));
    }
    applied_counter_ = &obs->registry.counter("server.records_applied");
    conflict_counter_ = &obs->registry.counter("server.conflicts");
    recon_counter_ = &obs->registry.counter("server.recon.queries");
    txn_buffered_ = &obs->registry.counter("server.txn.buffered_records");
    txn_groups_counter_ = &obs->registry.counter("server.txn.groups_applied");
    registry_ = &obs->registry;
    apply_latency_us_ = &obs->registry.histogram("server.apply_latency_us");
    store_unique_gauge_ = &obs->registry.gauge("server.store.unique_bytes");
    store_logical_gauge_ = &obs->registry.gauge("server.store.logical_bytes");
    // Ratio scaled by 1000 (gauges are integral): 1500 = 1.5x dedup.
    store_dedup_gauge_ = &obs->registry.gauge("server.store.dedup_ratio");
  }
}

void CloudServer::attach(std::uint32_t client_id, Transport& transport) {
  clients_[client_id] = &transport;
}

void CloudServer::detach(std::uint32_t client_id) {
  clients_.erase(client_id);
}

void CloudServer::update_store_gauges() {
  if (store_unique_gauge_ == nullptr) return;
  store_unique_gauge_->set(static_cast<std::int64_t>(store_.unique_bytes()));
  store_logical_gauge_->set(static_cast<std::int64_t>(store_.logical_bytes()));
  store_dedup_gauge_->set(
      static_cast<std::int64_t>(std::llround(store_.dedup_ratio() * 1000.0)));
}

std::size_t CloudServer::pump() {
  std::vector<PumpItem> batch;
  std::size_t processed = 0;
  const auto reject = [&](std::uint32_t client_id, proto::Ack ack) {
    PumpItem item;
    item.client = client_id;
    item.ack = std::move(ack);
    submit(batch, std::move(item));
  };
  for (auto& [client_id, transport] : clients_) {
    while (auto frame = transport->server_poll()) {
      meter_.charge(CostKind::net_frame, frame->size());
      meter_.charge(CostKind::encrypt, frame->size());  // TLS decrypt
      Result<proto::SyncRecord> record = proto::decode_record(*frame);
      frame.reset();  // the record owns its bytes: free the frame first
      if (!record) {  // no sequence or trace context to echo
        reject(client_id, ack_for(proto::SyncRecord{}, Errc::corruption));
        continue;
      }
      if (record->kind == proto::OpKind::recon_query) {
        // Pure read against the applied state; answered with a recon
        // frame, never an ack, and not counted as an applied record.  It
        // must observe every earlier arrival applied, so it cuts the batch.
        run_batch(batch);
        answer_recon(client_id, *record);
        ++processed;
        continue;
      }
      submit(batch, intake(client_id, std::move(*record)));
      ++processed;
    }
  }
  run_batch(batch);
  update_store_gauges();
  return processed;
}

proto::Ack CloudServer::apply_record(std::uint32_t from_client,
                                     const proto::SyncRecord& record) {
  PumpItem item = intake(from_client, record);
  finish(item, /*apply_inline=*/true);
  return std::move(item.ack);
}

CloudServer::PumpItem CloudServer::intake(std::uint32_t client,
                                          proto::SyncRecord record) {
  ++records_applied_;
  obs::inc(applied_counter_);
  PumpItem item;
  item.client = client;
  item.op = record.kind;
  item.applied = true;
  item.trace_id = record.trace_id;
  if (record.compressed) {
    const std::uint64_t units_before = meter_.units();
    meter_.charge(CostKind::decompress, record.payload.size());
    item.pre_units = meter_.units() - units_before;
    Result<Bytes> plain = lz::decompress(record.payload);
    if (!plain) {
      item.ack = ack_for(record, Errc::corruption);
      return item;
    }
    record.payload = std::move(*plain);
    record.compressed = false;
  }
  if (record.txn_group == 0) {
    item.kind = PumpItem::Kind::single;
    item.record = std::move(record);
    return item;
  }
  const GroupKey key{client, record.txn_group};
  if (!record.txn_last) {
    obs::inc(txn_buffered_);
    item.ack = ack_for(record, Errc::ok);  // buffered; verdict with the group
    groups_[key].push_back(std::move(record));
    return item;
  }
  if (auto node = groups_.extract(key)) {
    item.group_records = std::move(node.mapped());
  }
  item.group_records.push_back(std::move(record));
  ++txn_groups_applied_;
  obs::inc(txn_groups_counter_);
  item.kind = PumpItem::Kind::group;
  return item;
}

void CloudServer::submit(std::vector<PumpItem>& batch, PumpItem item) {
  batch.push_back(std::move(item));
  if (pool_.parallelism() == 1) run_batch(batch);
}

void CloudServer::run_batch(std::vector<PumpItem>& batch) {
  const bool sharded = pool_.parallelism() > 1;
  if (sharded) apply_sharded(batch);
  for (PumpItem& item : batch) {
    if (item.applied) finish(item, /*apply_inline=*/!sharded);
    send_ack(item.client, item.ack);
  }
  batch.clear();
}

void CloudServer::apply_sharded(std::vector<PumpItem>& items) {
  // ---- Partition into independent units by touched-path sets
  // (touched_paths); a transactional group is the union over its records
  // (it applies atomically, so it is one unit).
  std::vector<int> dsu;
  auto find = [&](int x) {
    while (dsu[static_cast<std::size_t>(x)] != x) {
      dsu[static_cast<std::size_t>(x)] =
          dsu[static_cast<std::size_t>(dsu[static_cast<std::size_t>(x)])];
      x = dsu[static_cast<std::size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) dsu[static_cast<std::size_t>(b)] = a;
  };
  std::map<std::string, int, std::less<>> path_ids;
  auto touch = [&](const std::string& path) {
    const auto [it, inserted] =
        path_ids.try_emplace(path, static_cast<int>(dsu.size()));
    if (inserted) dsu.push_back(it->second);
    return it->second;
  };
  std::vector<int> item_root(items.size(), -1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const PumpItem& item = items[i];
    if (item.kind == PumpItem::Kind::emit) continue;
    int root = -1;
    const std::span<const proto::SyncRecord> records =
        item.kind == PumpItem::Kind::single
            ? std::span<const proto::SyncRecord>(&item.record, 1)
            : std::span<const proto::SyncRecord>(item.group_records);
    for (const proto::SyncRecord& record : records) {
      for (const std::string& path : touched_paths(record, item.client)) {
        const int id = touch(path);
        if (root == -1) {
          root = id;
        } else {
          unite(root, id);
        }
      }
    }
    item_root[i] = root;
  }

  struct Unit {
    std::vector<std::size_t> item_indices;  ///< ascending = arrival order
    std::vector<std::string> paths;
  };
  std::map<int, std::size_t> root_to_unit;
  std::vector<Unit> units;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (item_root[i] < 0) continue;
    const int root = find(item_root[i]);
    const auto [it, inserted] = root_to_unit.try_emplace(root, units.size());
    if (inserted) units.emplace_back();
    units[it->second].item_indices.push_back(i);
  }
  if (units.empty()) return;
  for (const auto& [path, id] : path_ids) {
    const auto it = root_to_unit.find(find(id));
    if (it != root_to_unit.end()) units[it->second].paths.push_back(path);
  }

  // ---- Extract each unit's shard of the server state.  Units touch
  // disjoint path sets, so the extraction fully isolates them.
  struct Shard {
    EntryMap files;
    EntryMap tombstones;
    std::set<std::string, std::less<>> dirs;
    CostMeter meter;
    explicit Shard(const CostProfile& profile) : meter(profile) {}
  };
  std::vector<Shard> shards;
  shards.reserve(units.size());
  for (const Unit& unit : units) {
    Shard& shard = shards.emplace_back(meter_.profile());
    for (const std::string& path : unit.paths) {
      if (auto node = files_.extract(path)) shard.files.insert(std::move(node));
      if (auto node = tombstones_.extract(path)) {
        shard.tombstones.insert(std::move(node));
      }
      if (dirs_.erase(path) > 0) shard.dirs.insert(path);
    }
  }

  // ---- Apply the units concurrently.  Items within a unit run
  // sequentially in arrival order; the BlockStore is internally locked and
  // its refcount operations commute, so history puts from different units
  // interleave safely.
  pool_.parallel_for(units.size(), 1, [&](std::size_t begin,
                                          std::size_t end) {
    for (std::size_t ui = begin; ui < end; ++ui) {
      Shard& shard = shards[ui];
      for (const std::size_t idx : units[ui].item_indices) {
        ApplyCtx ctx{shard.files, shard.tombstones, shard.dirs, shard.meter,
                     items[idx]};
        apply_item(ctx);
      }
    }
  });

  // ---- Merge the shard state back; run_batch emits in arrival order.
  for (Shard& shard : shards) {
    meter_.merge(shard.meter);
    files_.merge(shard.files);
    tombstones_.merge(shard.tombstones);
    dirs_.merge(shard.dirs);
  }
}

void CloudServer::apply_item(ApplyCtx& ctx) {
  PumpItem& item = ctx.item;
  const std::uint64_t units_before = ctx.meter.units();
  if (item.kind == PumpItem::Kind::single) {
    item.ack = apply_one(item.record, ctx.files, nullptr, nullptr, ctx);
    if (item.ack.result == Errc::ok) {
      item.forwards.push_back(std::move(item.record));
    }
  } else if (item.kind == PumpItem::Kind::group) {
    item.ack = apply_group(ctx);
  }
  item.apply_units = ctx.meter.units() - units_before;
}

void CloudServer::finish(PumpItem& item, bool apply_inline) {
  obs::Span span(tracer_, tn_.apply, kind_cat(item.op));
  if (item.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_end(item.trace_id);
  }
  {
    // One lane applies a group inside server.apply_group; a sharded group
    // was applied on its pool lane, and the span only marks it.
    const obs::Span group_span(
        item.kind == PumpItem::Kind::group ? tracer_ : nullptr,
        tn_.apply_group);
    if (apply_inline) {
      ApplyCtx ctx{files_, tombstones_, dirs_, meter_, item};
      apply_item(ctx);
    }
  }
  conflicts_seen_ += item.conflicts;
  if (item.conflicts > 0) obs::inc(conflict_counter_, item.conflicts);
  for (Rejection& rejection : item.rejections) {
    rejections_.push_back(std::move(rejection));
  }
  for (const std::string& path : item.arrivals) record_arrival(path);
  const std::uint64_t forward_before = meter_.units();
  for (const proto::SyncRecord& record : item.forwards) {
    forward(item.client, record);
  }
  // Modeled apply latency: the cost-model units this item consumed,
  // converted at 10 ms-per-tick — deterministic in virtual time.
  const std::uint64_t apply_us =
      (item.pre_units + item.apply_units + meter_.units() - forward_before) *
      10'000 / meter_.profile().units_per_tick;
  if (apply_latency_us_ != nullptr) apply_latency_us_->observe(apply_us);
  if (stages_ != nullptr) stages_->record(obs::Stage::apply, apply_us);
  if (item.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_start(proto::ack_flow_id(item.trace_id));
  }
}

proto::Ack CloudServer::apply_group(ApplyCtx& ctx) {
  // Transactional apply (§III-E): stage every record against the entries
  // the group touches; commit only if all succeed.  On any conflict the
  // whole group becomes conflicted.  The touched entries move out of
  // ctx.files into `staged`; their one copy is the pre-group `snapshot`
  // that resolve_base reads and a conflict puts back.  Nothing else in the
  // namespace is copied, so a group costs what it touches.
  PumpItem& item = ctx.item;
  std::vector<proto::SyncRecord>& records = item.group_records;
  EntryMap staged;
  EntryMap snapshot;
  for (const proto::SyncRecord& record : records) {
    for (const std::string& path : touched_paths(record, item.client)) {
      auto node = ctx.files.extract(path);  // empty once already staged
      if (!node) continue;
      snapshot.emplace(path, node.mapped());
      staged.insert(std::move(node));
    }
  }
  if (registry_ != nullptr) {
    // Registered by the first group, not at construction: one more registry
    // allocation there flips glibc's heap trimming in wallbench db_commit's
    // set-up (2x the page faults, setup_s 24 -> 45 ms on a 4-core x86 VM),
    // and db_commit applies no groups.  The registry is locked, so pool
    // workers may register and count concurrently.
    registry_->counter("server.txn.staged_entries").inc(staged.size());
  }

  proto::Ack ack;
  bool conflicted = false;
  VersionSet group_versions;
  for (const proto::SyncRecord& record : records) {
    ack = apply_one(record, staged, &snapshot, &group_versions, ctx);
    if (ack.result == Errc::conflict) conflicted = true;
    group_versions.insert(
        {record.new_version.client_id, record.new_version.counter});
  }

  if (!conflicted) {
    // Every name apply_one wrote is a touched path, and all of those left
    // ctx.files above, so the merge moves every staged entry back.
    ctx.files.merge(staged);
    for (proto::SyncRecord& record : records) {
      if (ctx.files.contains(record.path)) {
        item.arrivals.push_back(record.path);
      }
      item.forwards.push_back(std::move(record));
    }
    return ack;
  }

  // Conflict: the whole group is labeled conflicted (§III-E) and the main
  // files stay untouched.  apply_one already materialized conflict copies
  // into the staged map while processing the group; harvest just those,
  // then put the pre-group entries back.
  ++item.conflicts;
  ack.result = Errc::conflict;
  const std::string marker = ".conflict-" + std::to_string(item.client);
  for (auto& [path, entry] : staged) {
    if (path.find(marker) == std::string::npos) continue;
    if (snapshot.contains(path)) continue;  // pre-existing conflict copy
    ctx.meter.charge(CostKind::byte_copy, entry.content.size());
    ctx.meter.charge(CostKind::disk_write, entry.content.size());
    ctx.files[path] = std::move(entry);
  }
  ctx.files.merge(snapshot);
  return ack;
}

proto::Ack CloudServer::apply_one(const proto::SyncRecord& record,
                                  EntryMap& files, const EntryMap* snapshot,
                                  const VersionSet* group_versions,
                                  ApplyCtx& ctx) {
  proto::Ack ack = ack_for(record, Errc::ok);

  const bool staged = snapshot != nullptr;

  switch (record.kind) {
    case proto::OpKind::recon_query:
      // Queries are intercepted by pump() (answered, never applied); one
      // reaching here bypassed framing — reject it.
      ack.result = Errc::corruption;
      break;


    case proto::OpKind::mkdir:
      ctx.dirs.insert(record.path);
      break;

    case proto::OpKind::rmdir:
      ctx.dirs.erase(std::string(record.path));
      break;

    case proto::OpKind::create: {
      const auto it = files.find(record.path);
      if (it != files.end()) {
        // Re-creation over an existing entry: preserve the old content in
        // history (the client may delta against it).
        push_history(it->second);
        it->second.content.clear();
        it->second.version = record.new_version;
      } else {
        FileEntry entry;
        entry.version = record.new_version;
        // Revive history from a tombstone (delete-then-recreate pattern).
        // The tombstone's history handles are shared, not re-stored.
        if (const auto tomb = ctx.tombstones.find(record.path);
            tomb != ctx.tombstones.end()) {
          entry.history = tomb->second.history;
          entry.history.push_front(make_version(tomb->second));
        }
        files.emplace(record.path, std::move(entry));
      }
      break;
    }

    case proto::OpKind::unlink: {
      const auto it = files.find(record.path);
      if (it == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      ctx.tombstones[record.path] = std::move(it->second);
      files.erase(it);
      break;
    }

    case proto::OpKind::rename: {
      const auto src = files.find(record.path);
      if (src == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      FileEntry moved = std::move(src->second);
      files.erase(src);
      const auto dst = files.find(record.path2);
      if (dst != files.end()) {
        // POSIX rename-over-existing: the replaced content stays reachable
        // in the new entry's history for delta bases and conflict copies.
        moved.history.push_front(make_version(dst->second));
        for (const FileVersion& v : dst->second.history) {
          moved.history.push_back(v);
        }
        while (moved.history.size() > config_.history_depth) {
          moved.history.pop_back();
        }
        files.erase(dst);
      }
      moved.version = record.new_version;
      files.emplace(record.path2, std::move(moved));
      break;
    }

    case proto::OpKind::link: {
      const auto src = files.find(record.path);
      if (src == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      FileEntry entry;
      entry.content = src->second.content;
      entry.version = record.new_version;
      ctx.meter.charge(CostKind::byte_copy, entry.content.size());
      files[record.path2] = std::move(entry);
      break;
    }

    case proto::OpKind::truncate: {
      const auto it = files.find(record.path);
      if (it == files.end()) {
        ack.result = Errc::not_found;
        break;
      }
      FileEntry& entry = it->second;
      if (entry.version != record.base_version && !staged) {
        ++ctx.item.conflicts;
        ack.result = Errc::conflict;
        break;
      }
      push_history(entry);
      entry.content.resize(record.size, 0);
      entry.version = record.new_version;
      entry.derived_version = entry.version;  // only the size changed
      if (!staged) ctx.item.arrivals.push_back(record.path);
      break;
    }

    case proto::OpKind::write: {
      Result<std::vector<proto::Segment>> segments =
          proto::decode_segments(record.payload);
      if (!segments) {
        ack.result = Errc::corruption;
        break;
      }
      auto it = files.find(record.path);
      if (it == files.end()) {
        // Writes may arrive for files created in the same batch; create
        // implicitly only when the base version is null (fresh file).
        if (!record.base_version.is_null()) {
          ack.result = Errc::not_found;
          break;
        }
        it = files.emplace(record.path, FileEntry{}).first;
      }
      FileEntry& entry = it->second;
      if (entry.version != record.base_version) {
        // First write wins: the arriving increment conflicts.  Apply it to
        // its proper base to materialize the conflict version (§III-C).
        bool from_history = false;
        Bytes scratch;
        const Bytes* base =
            resolve_base(record.path, record.base_version, files, snapshot,
                         ctx.tombstones, from_history, scratch);
        ++ctx.item.conflicts;
        ack.result = Errc::conflict;
        if (base != nullptr) {
          Bytes content = *base;
          for (const proto::Segment& segment : *segments) {
            const std::uint64_t end = segment.offset + segment.data.size();
            if (end > content.size()) content.resize(end, 0);
            std::copy(segment.data.begin(), segment.data.end(),
                      content.begin() +
                          static_cast<std::ptrdiff_t>(segment.offset));
          }
          const std::string name = conflict_name(record.path, ctx.item.client);
          FileEntry& conflict = files[name];
          conflict.content = std::move(content);
          conflict.version = record.new_version;
          ack.conflict_path = name;
        }
        break;
      }
      push_history(entry);
      std::uint64_t written = 0;
      for (const proto::Segment& segment : *segments) {
        const std::uint64_t end = segment.offset + segment.data.size();
        if (end > entry.content.size()) entry.content.resize(end, 0);
        std::copy(segment.data.begin(), segment.data.end(),
                  entry.content.begin() +
                      static_cast<std::ptrdiff_t>(segment.offset));
        written += segment.data.size();
        // The next history put re-chunks only the bytes written here.
        entry.dirty.push_back({segment.offset, segment.data.size()});
      }
      ctx.meter.charge(CostKind::byte_copy, written);
      ctx.meter.charge(CostKind::disk_write, written);
      entry.version = record.new_version;
      entry.derived_version = entry.version;
      if (!staged) ctx.item.arrivals.push_back(record.path);
      break;
    }

    case proto::OpKind::file_delta: {
      Result<rsyncx::Delta> delta = rsyncx::decode_delta(record.payload);
      if (!delta) {
        ack.result = Errc::corruption;
        break;
      }
      const std::string& ref =
          record.path2.empty() ? record.path : record.path2;
      bool from_history = false;
      Bytes scratch;
      const Bytes* base = nullptr;
      if (record.base_deleted) {
        // Delete-then-recreate: the base lives in the tombstones and using
        // it is the expected path, not a conflict.
        if (const auto tomb = ctx.tombstones.find(ref);
            tomb != ctx.tombstones.end()) {
          if (tomb->second.version == record.base_version) {
            base = &tomb->second.content;
          } else {
            for (const FileVersion& v : tomb->second.history) {
              if (v.version == record.base_version) {
                base = version_bytes(v, scratch);
                break;
              }
            }
          }
        }
      } else {
        base = resolve_base(ref, record.base_version, files, snapshot,
                            ctx.tombstones, from_history, scratch);
      }
      if (base == nullptr) {
        if (obs::Logger::global().enabled(obs::LogLevel::debug)) {
          const auto t = ctx.tombstones.find(ref);
          const auto f = files.find(ref);
          DCFS_LOG_DEBUG(
              "server", "delta base unresolved", {"path", record.path},
              {"ref", ref}, {"base_version", proto::to_string(record.base_version)},
              {"base_deleted", record.base_deleted},
              {"tombstone", t == ctx.tombstones.end()
                                ? std::string("none")
                                : proto::to_string(t->second.version)},
              {"current", f == files.end()
                              ? std::string("none")
                              : proto::to_string(f->second.version)});
        }
        ++ctx.item.conflicts;
        ack.result = Errc::conflict;
        break;
      }
      Result<Bytes> rebuilt = rsyncx::apply_delta(*base, *delta);
      if (!rebuilt) {
        DCFS_LOG_DEBUG("server", "delta apply corrupt", {"path", record.path},
                       {"ref", ref},
                       {"base_version", proto::to_string(record.base_version)},
                       {"delta_base_size", delta->base_size},
                       {"actual_base_size", base->size()},
                       {"status", rebuilt.status().to_string()});
        ack.result = Errc::corruption;
        break;
      }
      ctx.meter.charge(CostKind::byte_copy, rebuilt->size());
      ctx.meter.charge(CostKind::disk_write, rebuilt->size());
      if (from_history && group_versions != nullptr &&
          group_versions->contains(
              {record.base_version.client_id, record.base_version.counter})) {
        // The base was displaced by an operation of this very group (a
        // backindex span can engulf unrelated interleaved updates): the
        // lineage is consistent, not conflicting.
        from_history = false;
      }
      if (from_history) {
        DCFS_LOG_DEBUG("server", "delta base from history",
                       {"path", record.path}, {"ref", ref},
                       {"base_version", proto::to_string(record.base_version)});
        // The base was superseded by another lineage: conflict copy.
        ++ctx.item.conflicts;
        ack.result = Errc::conflict;
        const std::string name = conflict_name(record.path, ctx.item.client);
        FileEntry& conflict = files[name];
        conflict.content = std::move(*rebuilt);
        conflict.version = record.new_version;
        ack.conflict_path = name;
        break;
      }
      FileEntry& entry = files[record.path];
      push_history(entry);
      entry.content = std::move(*rebuilt);
      entry.version = record.new_version;
      if (!staged) ctx.item.arrivals.push_back(record.path);
      break;
    }

    case proto::OpKind::full_file: {
      FileEntry& entry = files[record.path];
      push_history(entry);
      entry.content = record.payload;
      entry.version = record.new_version;
      ctx.meter.charge(CostKind::byte_copy, entry.content.size());
      ctx.meter.charge(CostKind::disk_write, entry.content.size());
      if (!staged) ctx.item.arrivals.push_back(record.path);
      break;
    }
  }
  if (ack.result != Errc::ok) {
    ctx.item.rejections.push_back({record.kind, record.path, record.path2,
                              ack.result, record.base_version});
  }
  return ack;
}

const Bytes* CloudServer::resolve_base(std::string_view ref,
                                       const proto::VersionId& version,
                                       const EntryMap& files,
                                       const EntryMap* snapshot,
                                       const EntryMap& tombstones,
                                       bool& from_history,
                                       Bytes& scratch) const {
  from_history = false;

  if (const auto it = files.find(ref); it != files.end()) {
    if (it->second.version == version) return &it->second.content;
  }
  if (snapshot != nullptr) {
    if (const auto it = snapshot->find(ref); it != snapshot->end()) {
      if (it->second.version == version) return &it->second.content;
      for (const FileVersion& v : it->second.history) {
        if (v.version == version) {
          from_history = true;
          return version_bytes(v, scratch);
        }
      }
    }
  }
  if (const auto it = files.find(ref); it != files.end()) {
    for (const FileVersion& v : it->second.history) {
      if (v.version == version) {
        from_history = true;
        return version_bytes(v, scratch);
      }
    }
  }
  if (const auto it = tombstones.find(ref); it != tombstones.end()) {
    if (it->second.version == version) {
      from_history = true;
      return &it->second.content;
    }
    for (const FileVersion& v : it->second.history) {
      if (v.version == version) {
        from_history = true;
        return version_bytes(v, scratch);
      }
    }
  }
  return nullptr;
}

CloudServer::FileVersion CloudServer::make_version(FileEntry& entry) {
  FileVersion v;
  v.version = entry.version;
  if (!entry.content.empty()) {
    const std::shared_ptr<const BlockHandle> basis =
        entry.derived_version == entry.version ? entry.basis.lock() : nullptr;
    v.blocks = store_.put_shared(entry.content, basis.get(), entry.dirty);
  }
  entry.basis = v.blocks;
  entry.dirty.clear();
  return v;
}

const Bytes* CloudServer::version_bytes(const FileVersion& v,
                                        Bytes& scratch) const {
  if (!v.blocks) {
    scratch.clear();
    return &scratch;
  }
  Result<Bytes> content = store_.get(*v.blocks);
  if (!content) return nullptr;  // lost chunk: treat the version as gone
  scratch = std::move(*content);
  return &scratch;
}

void CloudServer::push_history(FileEntry& entry) {
  if (entry.content.empty() && entry.version.is_null()) return;
  entry.history.push_front(make_version(entry));
  while (entry.history.size() > config_.history_depth) {
    entry.history.pop_back();
  }
}

void CloudServer::record_arrival(const std::string& path) {
  if (arrived_.insert(path).second) arrival_order_.push_back(path);
}

void CloudServer::answer_recon(std::uint32_t client_id,
                               const proto::SyncRecord& record) {
  obs::Span span(tracer_, tn_.recon);
  if (record.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_end(record.trace_id);
  }
  ++recon_queries_;
  obs::inc(recon_counter_);

  proto::ReconResponse response;
  response.trace_id = record.trace_id;

  ByteSpan payload{record.payload};
  Bytes plain;
  if (record.compressed) {
    meter_.charge(CostKind::decompress, record.payload.size());
    Result<Bytes> decompressed = lz::decompress(record.payload);
    if (!decompressed) {
      response.result = Errc::corruption;
      send_recon(client_id, response);
      return;
    }
    plain = std::move(*decompressed);
    payload = ByteSpan{plain};
  }
  const Result<proto::ReconRequest> request =
      proto::decode_recon_request(payload);
  if (!request) {
    response.result = Errc::corruption;
    send_recon(client_id, response);
    return;
  }
  response.session = request->session;
  response.round = request->round;

  // Resolve the base the client negotiates against.  Round 0 (null base
  // version) names the path's current state — live entry or tombstone;
  // later rounds pin the exact version round 0 answered with, so a
  // concurrent update (or unlink) between rounds cannot shear the
  // negotiation: the pinned version is still in the entry's history.
  const Bytes no_content;
  const Bytes* inline_content = nullptr;
  const BlockHandle* blocks = nullptr;
  const auto locate = [&](const EntryMap& map, bool deleted) {
    const auto it = map.find(record.path);
    if (it == map.end()) return false;
    const FileEntry& entry = it->second;
    if (record.base_version.is_null() ||
        entry.version == record.base_version) {
      inline_content = &entry.content;
      response.base = entry.version;
      response.base_deleted = deleted;
      response.base_size = entry.content.size();
      return true;
    }
    for (const FileVersion& version : entry.history) {
      if (!(version.version == record.base_version)) continue;
      blocks = version.blocks.get();
      if (blocks == nullptr) inline_content = &no_content;  // empty version
      response.base_size = blocks != nullptr ? blocks->size : 0;
      response.base = version.version;
      response.base_deleted = deleted;
      return true;
    }
    return false;
  };
  if (!locate(files_, /*deleted=*/false) &&
      !locate(tombstones_, /*deleted=*/true)) {
    // Fresh path (initial upload) or the pinned version aged out of
    // history: the client falls back to a full-content upload.
    response.result = Errc::not_found;
    send_recon(client_id, response);
    return;
  }

  // Streams the clamped base region into `sink`, chunk by chunk for
  // block-backed versions — a narrow region of a huge version never
  // materializes the whole object.
  const auto stream_region = [&](std::uint64_t offset, std::uint64_t length,
                                 const std::function<void(ByteSpan)>& sink) {
    if (blocks != nullptr) {
      return store_.visit_range(*blocks, offset, length, sink).is_ok();
    }
    const std::uint64_t size = inline_content->size();
    if (offset >= size || length == 0) return true;
    sink(ByteSpan{inline_content->data() + offset,
                  std::min<std::uint64_t>(length, size - offset)});
    return true;
  };

  std::vector<rsyncx::recon::Region> regions = request->regions;
  if (regions.empty()) regions.push_back({0, response.base_size});

  bool ok = true;
  for (const rsyncx::recon::Region& raw : regions) {
    const std::uint64_t offset = std::min(raw.offset, response.base_size);
    const std::uint64_t length =
        std::min(raw.length, response.base_size - offset);
    if (request->want == proto::ReconRequest::Want::shingles) {
      rsyncx::recon::ShingleScanner scanner(
          offset,
          {static_cast<std::size_t>(request->minimum),
           static_cast<std::size_t>(request->average),
           static_cast<std::size_t>(request->maximum)},
          &meter_);
      ok = stream_region(offset, length,
                         [&](ByteSpan data) { scanner.feed(data); });
      if (!ok) break;
      std::vector<rsyncx::recon::Shingle> shingles = scanner.finish();
      response.shingles.insert(response.shingles.end(), shingles.begin(),
                               shingles.end());
    } else {
      rsyncx::recon::SignatureScanner scanner(request->block_size, &meter_);
      ok = stream_region(offset, length,
                         [&](ByteSpan data) { scanner.feed(data); });
      if (!ok) break;
      response.signatures.push_back({{offset, length}, scanner.finish()});
    }
  }
  if (!ok) {
    // A missing store chunk is a refcount bug; surface it like any other
    // damaged read so the client falls back instead of wedging.
    response.result = Errc::corruption;
    response.shingles.clear();
    response.signatures.clear();
  }
  send_recon(client_id, response);
}

void CloudServer::send_recon(std::uint32_t client_id,
                             const proto::ReconResponse& response) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  // The client's round-trip flow edge: the query's flow ended above, the
  // answer starts the ack-tagged edge the client finishes.
  if (response.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_start(proto::ack_flow_id(response.trace_id));
  }
  Bytes frame;
  frame.push_back(3);  // server-to-client tag: recon answer
  proto::encode_into(response, frame);
  send_frame(*it->second, std::move(frame), proto::MessageType::recon);
}

void CloudServer::send_ack(std::uint32_t client_id, const proto::Ack& ack) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  Bytes frame;
  frame.push_back(1);  // server-to-client tag: ack
  proto::encode_into(ack, frame);
  send_frame(*it->second, std::move(frame), proto::MessageType::ack);
}

void CloudServer::forward(std::uint32_t from_client,
                          const proto::SyncRecord& record) {
  if (clients_.size() < 2) return;
  // One start per forwarded record; every receiving peer finishes it (flow
  // fan-out).  Callers hold a server.apply span, which the edge binds to.
  if (record.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_start(proto::forward_flow_id(record.trace_id));
  }
  // §III-D: "besides storing the data it also forwards the data to other
  // shared clients" — no recomputation, the same record goes out.
  Bytes frame;
  frame.push_back(2);  // server-to-client tag: forwarded record
  proto::encode_into(record, frame);
  for (auto& [client_id, transport] : clients_) {
    if (client_id == from_client) continue;
    send_frame(*transport, frame, proto::MessageType::forward);  // a copy
  }
}

void CloudServer::send_frame(Transport& transport, Bytes frame,
                             proto::MessageType type) {
  meter_.charge(CostKind::net_frame, frame.size());
  transport.server_send(std::move(frame), type);
}

std::string CloudServer::conflict_name(std::string_view path,
                                       std::uint32_t client) const {
  return std::string(path) + ".conflict-" + std::to_string(client);
}

std::vector<std::string> CloudServer::touched_paths(
    const proto::SyncRecord& record, std::uint32_t client) const {
  std::vector<std::string> paths{record.path,
                                 conflict_name(record.path, client)};
  if (!record.path2.empty() || record.kind == proto::OpKind::rename ||
      record.kind == proto::OpKind::link) {
    paths.push_back(record.path2);
  }
  return paths;
}

std::size_t CloudServer::gc_tombstones() {
  const std::size_t collected = tombstones_.size();
  tombstones_.clear();  // version handles release their chunks on the way out
  update_store_gauges();
  return collected;
}

Result<Bytes> CloudServer::fetch(std::string_view path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return Errc::not_found;
  return it->second.content;
}

std::vector<proto::VersionId> CloudServer::history(
    std::string_view path) const {
  std::vector<proto::VersionId> out;
  const auto it = files_.find(path);
  if (it == files_.end()) return out;
  out.push_back(it->second.version);
  for (const FileVersion& v : it->second.history) out.push_back(v.version);
  return out;
}

Result<Bytes> CloudServer::fetch_version(
    std::string_view path, const proto::VersionId& version) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return Errc::not_found;
  if (it->second.version == version) return it->second.content;
  for (const FileVersion& v : it->second.history) {
    if (v.version != version) continue;
    if (!v.blocks) return Bytes{};
    return store_.get(*v.blocks);
  }
  return Errc::not_found;
}

std::optional<proto::VersionId> CloudServer::version(
    std::string_view path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.version;
}

std::vector<std::string> CloudServer::paths() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, entry] : files_) out.push_back(path);
  return out;
}

std::vector<std::string> CloudServer::conflict_paths() const {
  std::vector<std::string> out;
  for (const auto& [path, entry] : files_) {
    if (path.find(".conflict-") != std::string::npos) out.push_back(path);
  }
  return out;
}

bool CloudServer::has_dir(std::string_view path) const {
  return dirs_.contains(std::string(path));
}

}  // namespace dcfs
