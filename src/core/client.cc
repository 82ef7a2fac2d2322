#include "core/client.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "compress/lz.h"
#include "par/parallel_delta.h"
#include "rsyncx/delta.h"
#include "vfs/path.h"

namespace dcfs {
namespace {

/// Server-to-client frame tags.
constexpr std::uint8_t kFrameAck = 1;
constexpr std::uint8_t kFrameRecord = 2;
constexpr std::uint8_t kFrameRecon = 3;
// 4 (the retired chunk-stream credit) is reserved; the client ignores it.

/// Delta::wire_size() of a delta against an empty base: the 24-byte header
/// plus one literal command's 5-byte header; the literal is the file.
constexpr std::uint64_t kEmptyBaseDeltaOverhead = 29;

/// Wire size of the classic one-round exchange's signature download for a
/// `base_size` file — the traffic reference recon savings are measured
/// against (rsyncx::Signature::wire_size with strong digests).
std::uint64_t classic_signature_bytes(std::uint64_t base_size,
                                      std::uint32_t block_size) noexcept {
  const std::uint64_t blocks =
      block_size == 0 ? 0 : (base_size + block_size - 1) / block_size;
  return 16 + blocks * 20;
}

}  // namespace

DeltaCfsClient::DeltaCfsClient(FileSystem& local, Transport& transport,
                               const Clock& clock, const CostProfile& profile,
                               ClientConfig config,
                               std::shared_ptr<KvStore> checksum_kv,
                               obs::Obs* obs)
    : local_(local),
      transport_(transport),
      clock_(clock),
      meter_(profile),
      config_(std::move(config)),
      queue_(config_.upload_delay, config_.causality,
             config_.snapshot_interval),
      relations_(config_.relation_timeout) {
  config_.sync_root = path::normalize(config_.sync_root);
  config_.tmp_dir = path::normalize(config_.tmp_dir);
  if (obs != nullptr) {
    tracer_ = &obs->tracer;
    stages_ = &obs->stages;
    tn_.enqueue = tracer_->intern("client.enqueue");
    tn_.delta = tracer_->intern("client.delta");
    tn_.upload_batch = tracer_->intern("client.upload_batch");
    tn_.upload = tracer_->intern("client.upload");
    tn_.apply_forward = tracer_->intern("client.apply_forward");
    tn_.ack = tracer_->intern("client.ack");
    tn_.recon_round = tracer_->intern("client.recon_round");
    for (std::size_t k = static_cast<std::size_t>(proto::OpKind::create);
         k <= static_cast<std::size_t>(proto::OpKind::recon_query); ++k) {
      tn_.kind[k] =
          tracer_->intern(proto::to_string(static_cast<proto::OpKind>(k)));
    }
    queue_.set_obs(obs);
    obs::Registry& reg = obs->registry;
    stats_.relation_hits = &reg.counter("client.relation.hit");
    stats_.relation_misses = &reg.counter("client.relation.miss");
    stats_.delta_replaced = &reg.counter("client.delta.replaced");
    stats_.delta_kept_rpc = &reg.counter("client.delta.kept_rpc");
    stats_.delta_bytes_saved = &reg.counter("client.delta.bytes_saved");
    stats_.checksum_failures = &reg.counter("client.checksum.failures");
    stats_.uploads = &reg.counter("client.uploads.records");
    stats_.acks_ok = &reg.counter("client.acks.ok");
    stats_.acks_conflict = &reg.counter("client.acks.conflict");
    stats_.acks_error = &reg.counter("client.acks.error");
    stats_.forwards = &reg.counter("client.forwards.applied");
    stats_.forward_base_missing = &reg.counter("client.forward.base_missing");
    stats_.recon_sessions = &reg.counter("net.recon.sessions");
    stats_.recon_rounds = &reg.counter("net.recon.rounds");
    stats_.recon_saved = &reg.counter("net.recon.sig_bytes_saved");
    stats_.recon_fallbacks = &reg.counter("net.recon.fallbacks");
    stats_.record_bytes =
        &reg.histogram("client.upload.record_bytes", obs::default_bytes_bounds());
  }
  if (config_.delta_threads > 1) {
    pool_ = std::make_unique<par::WorkerPool>(config_.delta_threads, obs);
  }
  if (config_.enable_checksums) {
    if (!checksum_kv) {
      checksum_kv = std::make_shared<KvStore>(
          std::make_shared<MemoryWalStorage>());
    }
    checksums_ = std::make_unique<ChecksumStore>(
        std::move(checksum_kv), config_.delta_block_size, &meter_);
    checksums_->set_pool(pool_.get());
  }
}

void DeltaCfsClient::LinkGroups::link(const std::string& a,
                                      const std::string& b) {
  const auto it = member_of.find(a);
  std::uint64_t id;
  if (it != member_of.end()) {
    id = it->second;
  } else {
    id = next_id++;
    member_of[a] = id;
    groups[id].insert(a);
  }
  // `b` is a fresh name; if it previously belonged elsewhere, detach first.
  detach(b);
  member_of[b] = id;
  groups[id].insert(b);
}

void DeltaCfsClient::LinkGroups::detach(const std::string& path) {
  const auto it = member_of.find(path);
  if (it == member_of.end()) return;
  auto& members = groups[it->second];
  members.erase(path);
  if (members.size() <= 1) {
    // A single remaining name is no longer "linked" in any useful sense.
    for (const std::string& last : members) member_of.erase(last);
    groups.erase(it->second);
  }
  member_of.erase(it);
}

void DeltaCfsClient::LinkGroups::rename(const std::string& from,
                                        const std::string& to) {
  const auto it = member_of.find(from);
  if (it == member_of.end()) return;
  const std::uint64_t id = it->second;
  groups[id].erase(from);
  member_of.erase(it);
  member_of[to] = id;
  groups[id].insert(to);
}

std::vector<std::string> DeltaCfsClient::LinkGroups::siblings(
    const std::string& path) const {
  const auto it = member_of.find(path);
  if (it == member_of.end()) return {};
  std::vector<std::string> out;
  for (const std::string& member : groups.at(it->second)) {
    if (member != path) out.push_back(member);
  }
  return out;
}

bool DeltaCfsClient::in_scope(std::string_view path) const {
  return path::is_within(path, config_.sync_root) &&
         !path::is_within(path, config_.tmp_dir);
}

proto::VersionId DeltaCfsClient::next_version() {
  return {config_.client_id, ++version_counter_};
}

std::optional<proto::VersionId> DeltaCfsClient::known_version(
    std::string_view path) const {
  const auto it = known_versions_.find(path);
  if (it == known_versions_.end()) return std::nullopt;
  return it->second;
}

void DeltaCfsClient::assign_versions(SyncNode& node, const std::string& path) {
  const auto it = known_versions_.find(path);
  node.base_version = it == known_versions_.end() ? proto::VersionId{}
                                                  : it->second;
  node.new_version = next_version();
  known_versions_[path] = node.new_version;
}

void DeltaCfsClient::enqueue_meta(proto::OpKind kind, const std::string& path,
                                  const std::string& path2,
                                  std::uint64_t trunc_size) {
  SyncNode node;
  node.kind = kind;
  node.path = path;
  node.path2 = path2;
  node.trunc_size = trunc_size;
  assign_versions(node, path);
  queue_.enqueue(std::move(node), clock_.now());
}

void DeltaCfsClient::release_preserved(const RelationTable::Entry& entry) {
  if (!entry.from_unlink) return;
  DCFS_LOG_DEBUG("client", "release preserved", {"dst", entry.dst},
                 {"src", entry.src});
  local_.unlink(entry.dst);
  if (checksums_) checksums_->on_unlink(entry.dst);
  preserved_versions_.erase(entry.dst);
}

void DeltaCfsClient::discard_pending(const std::string& path) {
  const auto it = pending_delta_.find(path);
  if (it == pending_delta_.end()) return;
  release_preserved(it->second);
  pending_delta_.erase(it);
}

// ---------------------------------------------------------------------------
// OpSink hooks
// ---------------------------------------------------------------------------

void DeltaCfsClient::note_create(std::string_view raw_path) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;

  links_.detach(path);  // a create binds the name to a fresh inode
  discard_pending(path);  // any stale obligation for this name is void

  // Table I: a create whose name matches an entry's src triggers delta
  // encoding — against the entry's dst, once the new content is complete
  // (at close).
  if (auto entry = relations_.take_trigger(path, clock_.now())) {
    obs::inc(stats_.relation_hits);
    pending_delta_[path] = *entry;
  } else {
    obs::inc(stats_.relation_misses);
  }
  enqueue_meta(proto::OpKind::create, path, "", 0);
  recently_modified_.insert(path);
}

void DeltaCfsClient::note_write(std::string_view raw_path,
                                std::uint64_t offset, ByteSpan data,
                                ByteSpan overwritten,
                                std::uint64_t size_before) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;

  meter_.charge(CostKind::byte_copy, data.size());  // copy into Sync Queue
  if (checksums_) {
    checksums_on_write(path, offset, data, overwritten, size_before);
  }

  obs::Span span(tracer_, tn_.enqueue);
  SyncNode& node = queue_.add_write(path, offset, data, clock_.now());
  if (node.new_version.is_null()) {
    assign_versions(node, path);
    // A fresh write node starts a fresh undo epoch: the in-place delta it
    // may later produce must be based exactly on the cloud state this
    // node's base_version names, i.e. the file as of this node's creation.
    if (config_.enable_undo_log) undo_.drop(path);
  }
  if (config_.enable_undo_log) {
    meter_.charge(CostKind::byte_copy, overwritten.size());
    undo_.record_write(path, offset, overwritten, size_before);
  }
  recently_modified_.insert(path);

  // Hard links: the write reached every name sharing the inode; the cloud
  // stores per-path copies, so the increment must ship for each name.
  for (const std::string& sibling : links_.siblings(path)) {
    meter_.charge(CostKind::byte_copy, data.size());
    if (checksums_) checksums_->on_write(local_, sibling, offset, data.size());
    SyncNode& twin = queue_.add_write(sibling, offset, data, clock_.now());
    if (twin.new_version.is_null()) assign_versions(twin, sibling);
  }
}

void DeltaCfsClient::note_truncate(std::string_view raw_path,
                                   std::uint64_t new_size,
                                   std::uint64_t old_size, ByteSpan cut_tail) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;

  queue_.pack(path);  // the resize closes the current write batch
  (void)old_size;
  (void)cut_tail;
  if (config_.enable_undo_log) undo_.drop(path);
  if (checksums_) checksums_->on_truncate(local_, path, new_size);
  enqueue_meta(proto::OpKind::truncate, path, "", new_size);
  recently_modified_.insert(path);
  for (const std::string& sibling : links_.siblings(path)) {
    queue_.pack(sibling);
    if (checksums_) checksums_->on_truncate(local_, sibling, new_size);
    enqueue_meta(proto::OpKind::truncate, sibling, "", new_size);
  }
}

void DeltaCfsClient::note_close(std::string_view raw_path, bool wrote) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;

  queue_.pack(path);
  for (const std::string& sibling : links_.siblings(path)) {
    queue_.pack(sibling);
  }
  if (!wrote) {
    // Closed without writing: the delta obligation is moot; release the
    // preserved old version so it does not linger in tmp/.
    discard_pending(path);
    return;
  }

  const auto pending = pending_delta_.find(path);
  if (pending != pending_delta_.end()) {
    const RelationTable::Entry entry = pending->second;
    pending_delta_.erase(pending);

    Result<Bytes> base = local_.read_file(entry.dst);
    if (base) {
      meter_.charge(CostKind::disk_read, base->size());
      if (entry.from_unlink) {
        const auto preserved = preserved_versions_.find(entry.dst);
        const proto::VersionId base_version =
            preserved == preserved_versions_.end() ? proto::VersionId{}
                                                   : preserved->second;
        run_delta(path, "", *base, base_version, /*base_deleted=*/true);
      } else {
        const auto version = known_version(entry.dst);
        run_delta(path, entry.dst, *base,
                  version.value_or(proto::VersionId{}),
                  /*base_deleted=*/false);
      }
    }
    // The entry is consumed either way (removed on trigger, Table I).
    release_preserved(entry);
  } else {
    maybe_inplace_delta(path);
  }
  undo_.drop(path);
}

void DeltaCfsClient::before_rename(std::string_view raw_from,
                                   std::string_view raw_to, bool dst_exists) {
  (void)raw_from;
  const std::string to(raw_to);
  if (!dst_exists || !in_scope(to)) return;

  // The rename will destroy the destination's content; keep it in memory —
  // it is the delta base when the "name already exists" trigger fires.
  if (Result<Bytes> old = local_.read_file(to)) {
    meter_.charge(CostKind::byte_copy, old->size());
    Stash stash;
    stash.content = std::move(*old);
    stash.version = known_version(to).value_or(proto::VersionId{});
    stash_[to] = std::move(stash);
  }
}

void DeltaCfsClient::note_rename(std::string_view raw_from,
                                 std::string_view raw_to, bool dst_existed) {
  meter_.charge_op(CostKind::syscall);
  const std::string from(raw_from);
  const std::string to(raw_to);
  const bool from_in = in_scope(from);
  const bool to_in = in_scope(to);
  if (!from_in && !to_in) return;

  queue_.pack(from);
  queue_.pack(to);
  undo_.rename(from, to);
  if (checksums_) checksums_->on_rename(from, to);

  if (from_in && !to_in) {
    // Moved out of the sync folder: the cloud sees a deletion.
    enqueue_meta(proto::OpKind::unlink, from, "", 0);
    known_versions_.erase(from);
    pending_delta_.erase(from);
    return;
  }
  if (!from_in && to_in) {
    // Moved into the sync folder: upload the full content.
    SyncNode node;
    node.kind = proto::OpKind::full_file;
    node.path = to;
    Result<Bytes> content = local_.read_file(to);
    if (!content) return;
    meter_.charge(CostKind::disk_read, content->size());
    node.payload = std::move(*content);
    assign_versions(node, to);
    queue_.enqueue(std::move(node), clock_.now());
    recently_modified_.insert(to);
    return;
  }

  // Normal in-scope rename: the destination's old inode (if any) is
  // replaced; the source name carries its inode to the new name.
  links_.detach(to);
  links_.rename(from, to);

  SyncNode node;
  node.kind = proto::OpKind::rename;
  node.path = from;
  node.path2 = to;
  const auto it = known_versions_.find(from);
  node.base_version =
      it == known_versions_.end() ? proto::VersionId{} : it->second;
  node.new_version = next_version();
  known_versions_.erase(from);
  known_versions_[to] = node.new_version;
  const std::uint64_t rename_seq = queue_.enqueue(std::move(node), clock_.now());

  // An open pending-delta obligation follows the file to its new name.
  if (const auto pending = pending_delta_.find(from);
      pending != pending_delta_.end()) {
    discard_pending(to);  // whatever `to` owed is void: it was replaced
    pending_delta_[to] = pending->second;
    pending_delta_.erase(from);
  }

  // Table I: rename creates a relation entry (from -> to): the file's old
  // version named `from` is now preserved as `to`.
  for (const RelationTable::Entry& displaced :
       relations_.add(from, to, clock_.now())) {
    release_preserved(displaced);
  }

  // The destination name just (re)appeared: check both trigger rules.
  if (auto entry = relations_.take_trigger(to, clock_.now())) {
    obs::inc(stats_.relation_hits);
    // Trigger 1: `to` equals the src of an existing relation entry.
    Result<Bytes> base = local_.read_file(entry->dst);
    if (base) {
      meter_.charge(CostKind::disk_read, base->size());
      if (entry->from_unlink) {
        const auto preserved = preserved_versions_.find(entry->dst);
        run_delta(to, "", *base,
                  preserved == preserved_versions_.end()
                      ? proto::VersionId{}
                      : preserved->second,
                  /*base_deleted=*/true, from, rename_seq);
      } else {
        run_delta(to, entry->dst, *base,
                  known_version(entry->dst).value_or(proto::VersionId{}),
                  /*base_deleted=*/false, from, rename_seq);
      }
    }
    release_preserved(*entry);
  } else if (dst_existed) {
    obs::inc(stats_.relation_misses);
    // Trigger 2: the created name already existed (gedit-style).
    if (const auto stash = stash_.find(to); stash != stash_.end()) {
      run_delta(to, "", stash->second.content, stash->second.version,
                /*base_deleted=*/false, from, rename_seq);
    }
  }
  stash_.erase(to);
  recently_modified_.insert(to);
  recently_modified_.erase(from);
}

void DeltaCfsClient::note_link(std::string_view raw_from,
                               std::string_view raw_to) {
  meter_.charge_op(CostKind::syscall);
  const std::string from(raw_from);
  const std::string to(raw_to);
  if (!in_scope(to)) return;

  if (checksums_) checksums_->on_link(from, to);
  // The link node will copy `from`'s content as of this queue position on
  // the cloud; a pending write node for `from` must therefore really ship
  // (a later delta replacement would retroactively change what was linked).
  if (SyncNode* node = queue_.find_write_node(from)) node->pinned = true;
  links_.link(from, to);
  SyncNode node;
  node.kind = proto::OpKind::link;
  node.path = from;
  node.path2 = to;
  node.base_version = known_version(from).value_or(proto::VersionId{});
  node.new_version = next_version();
  known_versions_[to] = node.new_version;
  queue_.enqueue(std::move(node), clock_.now());
  // Table I: no relation entry for link — a later rename-over-`to` hits the
  // "name already exists" trigger instead.
}

bool DeltaCfsClient::intercept_unlink(std::string_view raw_path) {
  const std::string path(raw_path);
  if (!in_scope(path)) return false;

  Result<FileStat> st = local_.stat(path);
  if (!st || st->type != NodeType::file) return false;  // directories: never
  if (st->size > config_.preserve_max_bytes) return false;  // ENOSPC rule
  // A multi-link name loses nothing on unlink (the content survives under
  // its sibling names) — no preservation needed.
  if (!links_.siblings(path).empty()) return false;

  ensure_tmp_dir();
  queue_.pack(path);

  const std::string preserved =
      config_.tmp_dir + "/p" + std::to_string(++preserve_counter_);
  if (!local_.rename(path, preserved).is_ok()) return false;

  DCFS_LOG_DEBUG("client", "preserve on unlink", {"path", path},
                 {"preserved", preserved});
  for (const RelationTable::Entry& displaced :
       relations_.add(path, preserved, clock_.now(), /*from_unlink=*/true)) {
    release_preserved(displaced);
  }
  preserved_versions_[preserved] =
      known_version(path).value_or(proto::VersionId{});
  if (checksums_) checksums_->on_rename(path, preserved);
  undo_.rename(path, preserved);
  return true;
}

void DeltaCfsClient::ensure_tmp_dir() {
  if (tmp_dir_ready_) return;
  local_.mkdir(config_.tmp_dir);  // idempotent enough: EEXIST is fine
  tmp_dir_ready_ = true;
}

bool DeltaCfsClient::stash_forwarded(const std::string& path) {
  const auto version = known_versions_.find(path);
  if (version == known_versions_.end()) return false;
  ensure_tmp_dir();
  std::string preserved =
      config_.tmp_dir + "/f" + std::to_string(++preserve_counter_);
  if (!local_.rename(path, preserved).is_ok()) return false;
  forward_stash_[path] =
      ForwardStash{std::move(preserved), version->second, clock_.now()};
  return true;
}

void DeltaCfsClient::note_unlink(std::string_view raw_path) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;

  queue_.pack(path);
  links_.detach(path);
  if (checksums_) checksums_->on_unlink(path);
  enqueue_meta(proto::OpKind::unlink, path, "", 0);
  known_versions_.erase(path);
  discard_pending(path);
  stash_.erase(path);
  recently_modified_.erase(path);
}

void DeltaCfsClient::note_mkdir(std::string_view raw_path) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;
  enqueue_meta(proto::OpKind::mkdir, path, "", 0);
}

void DeltaCfsClient::note_rmdir(std::string_view raw_path) {
  meter_.charge_op(CostKind::syscall);
  const std::string path(raw_path);
  if (!in_scope(path)) return;
  enqueue_meta(proto::OpKind::rmdir, path, "", 0);
}

Status DeltaCfsClient::verify_read(std::string_view raw_path,
                                   std::uint64_t offset, ByteSpan data) {
  if (!checksums_) return Status::ok();
  const std::string path(raw_path);
  if (!in_scope(path)) return Status::ok();

  const Status verdict = checksums_->verify_range(path, offset, data);
  if (!verdict.is_ok()) {
    obs::inc(stats_.checksum_failures);
    DCFS_LOG_WARN("client", "read verify failed", {"path", path},
                  {"offset", offset});
    detected_corruption_.push_back(path);
    quarantine_.insert(path);
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// Delta encoding
// ---------------------------------------------------------------------------

rsyncx::Signature DeltaCfsClient::base_signature_for(ByteSpan base_content) {
  const std::uint64_t units_before = meter_.units();
  rsyncx::Signature signature =
      par::compute_signature(pool_.get(), base_content,
                             config_.delta_block_size,
                             /*with_strong=*/false, &meter_);
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::signature,
                    obs::units_to_us(meter_.units() - units_before,
                                     meter_.profile()));
  }
  return signature;
}

void DeltaCfsClient::run_delta(const std::string& path,
                               const std::string& base_path,
                               ByteSpan base_content,
                               const proto::VersionId& base_version,
                               bool base_deleted) {
  run_delta(path, base_path, base_content, base_version, base_deleted, path,
            0);
}

void DeltaCfsClient::run_delta(const std::string& path,
                               const std::string& base_path,
                               ByteSpan base_content,
                               const proto::VersionId& base_version,
                               bool base_deleted,
                               const std::string& write_node_path,
                               std::uint64_t trigger_rename_seq) {
  if (!config_.enable_delta) return;
  SyncNode* node = queue_.find_write_node(write_node_path);
  if (node == nullptr) return;  // content already uploaded: nothing to gain
  // The node's bytes may feed other pending consumers (an earlier delta's
  // base lineage, a link copy, a preserved-then-deleted file): replacing it
  // would silently corrupt the cloud.  Only the rename that carried the
  // node's content to the delta's target is an allowed dependent.
  if (!queue_.safe_to_replace(*node, trigger_rename_seq)) {
    obs::inc(stats_.delta_kept_rpc);
    return;
  }

  Result<Bytes> current = local_.read_file(path);
  if (!current) return;
  meter_.charge(CostKind::disk_read, current->size());

  obs::Span span(tracer_, tn_.delta);
  const rsyncx::Signature base_signature = base_signature_for(base_content);
  const std::uint64_t delta_units_before = meter_.units();
  const rsyncx::Delta delta = par::compute_delta_local(
      pool_.get(), base_signature, base_content, *current, &meter_);
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::delta,
                    obs::units_to_us(meter_.units() - delta_units_before,
                                     meter_.profile()));
  }

  // Only replace the write node if the delta actually saves bytes.
  if (delta.wire_size() >= node->content_bytes()) {
    obs::inc(stats_.delta_kept_rpc);
    return;
  }

  obs::inc(stats_.delta_replaced);
  obs::inc(stats_.delta_bytes_saved, node->content_bytes() - delta.wire_size());
  DCFS_LOG_DEBUG("client", "delta replace", {"path", path},
                 {"base_path", base_path}, {"base_deleted", base_deleted},
                 {"base_version", proto::to_string(base_version)});
  SyncNode delta_node;
  delta_node.kind = proto::OpKind::file_delta;
  delta_node.path = path;
  delta_node.path2 = base_path;
  delta_node.payload = rsyncx::encode_delta(delta);
  delta_node.base_version = base_version;
  delta_node.base_deleted = base_deleted;
  delta_node.new_version = next_version();
  known_versions_[path] = delta_node.new_version;
  const std::uint64_t tail_seq =
      queue_.enqueue(std::move(delta_node), clock_.now());

  queue_.replace_with_span(*node, tail_seq);
  ++deltas_triggered_;
}

void DeltaCfsClient::maybe_inplace_delta(const std::string& path) {
  if (!config_.enable_delta) return;
  if (!config_.enable_undo_log || !undo_.has(path)) return;
  if (!links_.siblings(path).empty()) return;  // linked: ship plain writes

  SyncNode* node = queue_.find_write_node(path);
  if (node == nullptr || node->state != SyncNode::State::packed) return;
  if (!queue_.safe_to_replace(*node, 0)) return;

  Result<FileStat> st = local_.stat(path);
  if (!st || st->size == 0) return;

  const std::uint64_t written = node->content_bytes();
  if (static_cast<double>(written) <
      config_.inplace_delta_threshold * static_cast<double>(st->size)) {
    obs::inc(stats_.delta_kept_rpc);
    return;  // small in-place update: NFS-like RPC is already optimal
  }
  if (undo_.original_size(path) == 0) {
    // Created empty in this undo epoch: the delta against an empty base is
    // one literal of the whole file, 29 + size bytes on the wire.  Decide
    // without reading or rebuilding anything.
    if (kEmptyBaseDeltaOverhead + st->size >= written) {
      obs::inc(stats_.delta_kept_rpc);
      return;
    }
  }

  Result<Bytes> current = local_.read_file(path);
  if (!current) return;
  meter_.charge(CostKind::disk_read, current->size());
  Result<Bytes> old_version = undo_.reconstruct(path, *current);
  if (!old_version) return;

  obs::Span span(tracer_, tn_.delta);
  const rsyncx::Signature base_signature = base_signature_for(*old_version);
  const std::uint64_t delta_units_before = meter_.units();
  const rsyncx::Delta delta = par::compute_delta_local(
      pool_.get(), base_signature, *old_version, *current, &meter_);
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::delta,
                    obs::units_to_us(meter_.units() - delta_units_before,
                                     meter_.profile()));
  }
  if (delta.wire_size() >= written) {
    obs::inc(stats_.delta_kept_rpc);
    return;  // writes are tighter: keep them
  }

  obs::inc(stats_.delta_replaced);
  obs::inc(stats_.delta_bytes_saved, written - delta.wire_size());
  DCFS_LOG_DEBUG("client", "in-place delta replace", {"path", path},
                 {"base_version", proto::to_string(node->base_version)});
  SyncNode delta_node;
  delta_node.kind = proto::OpKind::file_delta;
  delta_node.path = path;
  delta_node.payload = rsyncx::encode_delta(delta);
  // The delta replaces the write node: same lineage, same versions.
  delta_node.base_version = node->base_version;
  delta_node.new_version = node->new_version;
  const std::uint64_t tail_seq =
      queue_.enqueue(std::move(delta_node), clock_.now());
  queue_.replace_with_span(*node, tail_seq);
  ++deltas_triggered_;
}

// ---------------------------------------------------------------------------
// Checksum maintenance
// ---------------------------------------------------------------------------

void DeltaCfsClient::checksums_on_write(const std::string& path,
                                        std::uint64_t offset, ByteSpan data,
                                        ByteSpan overwritten,
                                        std::uint64_t size_before) {
  // Before refreshing the touched blocks, verify that their *pre-write*
  // content matched the stored checksums: the captured old bytes let us
  // reconstruct each touched block as it was, so silent corruption is
  // caught even on a write-only workload.
  const std::uint32_t bs = checksums_->block_size();
  const std::uint64_t first_block = offset / bs;
  Result<FileHandle> handle = local_.open(path);
  if (handle) {
    const std::uint64_t last_byte =
        data.empty() ? offset : offset + data.size() - 1;
    for (std::uint64_t block = first_block; block <= last_byte / bs; ++block) {
      const std::uint64_t block_offset = block * bs;
      if (block_offset >= size_before) break;
      const std::uint64_t block_len = std::min<std::uint64_t>(
          bs, size_before - block_offset);
      Result<Bytes> now_content = local_.read(*handle, block_offset, block_len);
      if (!now_content) break;
      Bytes pre = std::move(*now_content);
      // Splice the preserved old bytes back over the freshly-written range.
      const std::uint64_t write_end = offset + overwritten.size();
      for (std::uint64_t i = 0; i < pre.size(); ++i) {
        const std::uint64_t abs = block_offset + i;
        if (abs >= offset && abs < write_end) {
          pre[i] = overwritten[abs - offset];
        }
      }
      const Status verdict = checksums_->verify_range(
          path, block_offset, ByteSpan{pre.data(), pre.size()});
      if (!verdict.is_ok()) {
        obs::inc(stats_.checksum_failures);
        DCFS_LOG_WARN("client", "pre-write verify failed", {"path", path},
                      {"block", block});
        detected_corruption_.push_back(path);
        quarantine_.insert(path);
        break;
      }
    }
    local_.close(*handle);
  }
  checksums_->on_write(local_, path, offset, data.size());
}

// ---------------------------------------------------------------------------
// Sync driving
// ---------------------------------------------------------------------------

void DeltaCfsClient::tick(TimePoint now) {
  relations_.expire(now, [this](const RelationTable::Entry& entry) {
    if (!entry.from_unlink) return;
    // The preserved deleted file never triggered a delta: really delete it.
    local_.unlink(entry.dst);
    if (checksums_) checksums_->on_unlink(entry.dst);
    preserved_versions_.erase(entry.dst);
  });
  std::erase_if(forward_stash_, [&](const auto& entry) {
    const ForwardStash& stash = entry.second;
    if (now - stash.since < config_.relation_timeout + config_.upload_delay) {
      return false;
    }
    local_.unlink(stash.preserved);
    return true;
  });

  upload_ready(now, /*flush_all=*/false);

  // Every pending downstream frame is received (and charged) before the
  // first one dispatches; dispatch then runs in arrival order.
  std::deque<Bytes> frames = transport_.client_poll_all();
  for (const Bytes& frame : frames) {
    meter_.charge(CostKind::net_frame, frame.size());
    meter_.charge(CostKind::encrypt, frame.size());
  }
  for (Bytes& frame : frames) {
    if (!frame.empty()) dispatch_frame(std::move(frame));
  }
}

void DeltaCfsClient::dispatch_frame(Bytes frame) {
  const std::uint64_t frame_bytes = frame.size();
  const std::uint8_t tag = frame[0];
  const ByteSpan body{frame.data() + 1, frame.size() - 1};
  if (tag == kFrameAck) {
    if (Result<proto::Ack> ack = proto::decode_ack(body)) {
      process_ack(*ack);
    }
  } else if (tag == kFrameRecord) {
    if (Result<proto::SyncRecord> record = proto::decode_record(body)) {
      apply_forward(std::move(*record));
    }
  } else if (tag == kFrameRecon) {
    if (Result<proto::ReconResponse> response =
            proto::decode_recon_response(body)) {
      handle_recon_response(*response, frame_bytes);
    }
  }
}

void DeltaCfsClient::flush(TimePoint now) {
  relations_.expire(now, [this](const RelationTable::Entry& entry) {
    if (!entry.from_unlink) return;
    local_.unlink(entry.dst);
    if (checksums_) checksums_->on_unlink(entry.dst);
    preserved_versions_.erase(entry.dst);
  });
  upload_ready(now, /*flush_all=*/true);
}

void DeltaCfsClient::upload_ready(TimePoint now, bool flush_all) {
  std::vector<SyncNode> ready = queue_.pop_ready(now, flush_all);
  if (ready.empty() && deferred_.empty()) return;
  if (!deferred_.empty()) {
    // Parked nodes rejoin the batch; both lists are seq-sorted, so one
    // merge restores global FIFO.
    deferred_.insert(deferred_.end(), std::make_move_iterator(ready.begin()),
                     std::make_move_iterator(ready.end()));
    ready = std::move(deferred_);
    deferred_.clear();
    std::stable_sort(ready.begin(), ready.end(),
                     [](const SyncNode& a, const SyncNode& b) {
                       return a.seq < b.seq;
                     });
  }

  // Paths claimed by an in-flight recon session: a later node for the
  // same path must not reach the server ahead of the session's final
  // record.  Unrelated paths keep flowing — a recon never pauses the whole
  // queue.
  std::set<std::string, std::less<>> blocked_paths;
  std::set<std::uint64_t> blocked_groups;
  for (const auto& [id, session] : recon_sessions_) {
    blocked_paths.insert(session.node.path);
    if (!session.node.path2.empty()) blocked_paths.insert(session.node.path2);
  }

  obs::Span batch(tracer_, tn_.upload_batch);
  for (SyncNode& node : ready) {
    const bool blocked =
        blocked_paths.contains(node.path) ||
        (!node.path2.empty() && blocked_paths.contains(node.path2)) ||
        (node.txn_group != 0 && blocked_groups.contains(node.txn_group));
    if (blocked) {
      // Everything behind this node on its path / txn group defers with
      // it: per-path and per-group FIFO is preserved.
      blocked_paths.insert(node.path);
      if (!node.path2.empty()) blocked_paths.insert(node.path2);
      if (node.txn_group != 0) blocked_groups.insert(node.txn_group);
      deferred_.push_back(std::move(node));
      continue;
    }
    const std::string path = node.path;
    const std::string path2 = node.path2;
    const std::uint64_t group = node.txn_group;
    const std::size_t sessions_before = recon_sessions_.size();
    upload_node(std::move(node));
    if (recon_sessions_.size() > sessions_before) {
      // The upload opened a recon session for this path: later same-batch
      // nodes for it park behind it.
      blocked_paths.insert(path);
      if (!path2.empty()) blocked_paths.insert(path2);
      if (group != 0) blocked_groups.insert(group);
    }
  }
}

void DeltaCfsClient::upload_node(SyncNode node, bool allow_recon) {
  if (quarantine_.contains(node.path)) return;  // never upload damaged data

  if (allow_recon && recon_eligible(node)) {
    start_recon(std::move(node));
    return;
  }

  obs::Span span(tracer_, tn_.upload, kind_cat(node.kind));
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::queue_wait,
                    static_cast<std::uint64_t>(
                        clock_.now() - node.enqueue_time));
  }
  proto::SyncRecord record;
  record.sequence = node.seq;
  record.kind = node.kind;
  record.path = node.path;
  record.path2 = node.path2;
  record.size = node.trunc_size;
  record.base_version = node.base_version;
  record.new_version = node.new_version;
  record.txn_group = node.txn_group;
  record.txn_last = node.txn_last;
  record.base_deleted = node.base_deleted;

  if (node.kind == proto::OpKind::write) {
    std::vector<proto::Segment> segments;
    segments.reserve(node.segments.size());
    for (WriteSegment& segment : node.segments) {
      segments.push_back({segment.offset, std::move(segment.data)});
    }
    record.payload = proto::encode_segments(segments);
  } else {
    record.payload = std::move(node.payload);
  }
  upload_record(record, proto::MessageType::sync_record);
}

void DeltaCfsClient::upload_record(proto::SyncRecord& record,
                                   proto::MessageType type) {
  if (config_.compress_uploads &&
      record.payload.size() >= config_.compress_min_bytes) {
    const std::uint64_t units_before = meter_.units();
    meter_.charge(CostKind::compress, record.payload.size());
    Bytes packed = lz::compress(record.payload);
    if (packed.size() < record.payload.size()) {
      record.payload = std::move(packed);
      record.compressed = true;
    }
    if (stages_ != nullptr) {
      stages_->record(obs::Stage::compress,
                      obs::units_to_us(meter_.units() - units_before,
                                       meter_.profile()));
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    record.trace_id = next_trace_id();
  }
  obs::inc(stats_.uploads);
  ++records_uploaded_;
  if (record.trace_id != 0) tracer_->flow_start(record.trace_id);
  if (stages_ != nullptr) inflight_sent_[record.sequence] = clock_.now();
  obs::observe(stats_.record_bytes, send_frame(record, type));
}

std::size_t DeltaCfsClient::send_frame(const proto::SyncRecord& record,
                                       proto::MessageType type) {
  Bytes frame = proto::encode(record);
  const std::size_t size = frame.size();
  meter_.charge(CostKind::encrypt, size);
  meter_.charge(CostKind::net_frame, size);
  const Duration wire_time = transport_.client_send(std::move(frame), type);
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::transport,
                    static_cast<std::uint64_t>(wire_time));
  }
  return size;
}

std::uint64_t DeltaCfsClient::next_trace_id() noexcept {
  const std::uint64_t id =
      (static_cast<std::uint64_t>(config_.client_id) << 40) | ++trace_counter_;
  return proto::base_trace_id(id);  // keep clear of the flow-edge tag bits
}

bool DeltaCfsClient::recon_eligible(const SyncNode& node) const {
  // Only plain full-content uploads negotiate: deltas already narrowed
  // themselves, writes ship segments, metadata is tiny.  Transactional
  // members and pinned nodes keep their exact wire shape (group commit and
  // link-copy semantics depend on it).
  return config_.recon_mode != ReconMode::off &&
         node.kind == proto::OpKind::full_file && node.txn_group == 0 &&
         !node.pinned && node.payload.size() >= config_.recon_min_bytes;
}

rsyncx::recon::Planner::Mode DeltaCfsClient::recon_mode_for(
    std::uint64_t size) const {
  using Mode = rsyncx::recon::Planner::Mode;
  if (config_.recon_mode == ReconMode::classic) return Mode::classic;
  if (config_.recon_mode == ReconMode::recursive) return Mode::recursive;
  // Adaptive: recursion saves the whole-base signature download but pays
  // roughly one RTT per shingle level.  Choose recursive only when the
  // signature it avoids costs clearly more wire time than the extra
  // round trips on this link.
  const NetProfile& profile = transport_.profile();
  const Duration sig_time = profile.download_time(
      classic_signature_bytes(size, config_.recon.block_size));
  std::uint32_t levels = 1;
  for (std::size_t average = config_.recon.coarse_average;
       average > config_.recon.min_average &&
       levels < config_.recon.max_rounds;
       average /= std::max<std::size_t>(config_.recon.fanout, 2)) {
    ++levels;
  }
  return sig_time > profile.rtt * levels ? Mode::recursive : Mode::classic;
}

void DeltaCfsClient::start_recon(SyncNode node) {
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::queue_wait,
                    static_cast<std::uint64_t>(
                        clock_.now() - node.enqueue_time));
  }

  const std::uint64_t id = ++recon_counter_;
  ReconSession session;
  session.id = id;
  session.target = std::move(node.payload);
  session.node = std::move(node);
  // The planner spans session.target's heap buffer, which is stable under
  // the moves below (Bytes moves steal the allocation).
  session.planner = std::make_unique<rsyncx::recon::Planner>(
      ByteSpan{session.target}, config_.recon, &meter_,
      recon_mode_for(session.target.size()));
  ++recon_sessions_started_;
  obs::inc(stats_.recon_sessions);

  ReconSession& live = recon_sessions_.emplace(id, std::move(session))
                           .first->second;
  const std::optional<rsyncx::recon::Planner::Query> query =
      live.planner->next_query();
  send_recon_query(live, *query);  // a fresh planner always has a round 0
}

void DeltaCfsClient::send_recon_query(
    ReconSession& session, const rsyncx::recon::Planner::Query& query) {
  proto::ReconRequest request;
  request.session = session.id;
  request.round = session.planner->rounds() - 1;  // rounds() counts this one
  request.want = query.want_signatures
                     ? proto::ReconRequest::Want::signatures
                     : proto::ReconRequest::Want::shingles;
  request.minimum = query.cdc.minimum;
  request.average = query.cdc.average;
  request.maximum = query.cdc.maximum;
  request.block_size = query.block_size;
  request.regions = query.regions;
  session.awaiting_signatures = query.want_signatures;

  proto::SyncRecord record;
  record.sequence = session.node.seq;
  record.kind = proto::OpKind::recon_query;
  record.path = session.node.path;
  // Round 0 resolves the path's current version; later rounds pin the
  // exact base the first answer named.
  record.base_version = session.base_known ? session.base : proto::VersionId{};
  record.base_deleted = session.base_deleted;
  record.payload = proto::encode(request);
  if (tracer_ != nullptr && tracer_->enabled()) {
    record.trace_id = next_trace_id();
  }

  ++recon_rounds_sent_;
  obs::inc(stats_.recon_rounds);
  if (record.trace_id != 0) tracer_->flow_start(record.trace_id);
  session.round_sent = clock_.now();
  const std::size_t sent = send_frame(record, proto::MessageType::recon);
  session.up_bytes += sent;
  recon_up_bytes_ += sent;
}

void DeltaCfsClient::handle_recon_response(const proto::ReconResponse& response,
                                           std::uint64_t frame_bytes) {
  const auto it = recon_sessions_.find(response.session);
  if (it == recon_sessions_.end()) return;  // stale / duplicate answer
  ReconSession& session = it->second;

  obs::Span span(tracer_, tn_.recon_round);
  if (response.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_end(proto::ack_flow_id(response.trace_id));
  }
  session.down_bytes += frame_bytes;
  recon_down_bytes_ += frame_bytes;
  if (stages_ != nullptr) {
    stages_->record(obs::Stage::recon,
                    static_cast<std::uint64_t>(
                        clock_.now() - session.round_sent));
  }

  if (response.result != Errc::ok) {
    // No usable base on the server (fresh path, or the pinned version was
    // pruned from history mid-session): ship the full content.
    recon_fallback(session);
    recon_sessions_.erase(it);
    return;
  }

  if (!session.base_known) {
    session.base = response.base;
    session.base_deleted = response.base_deleted;
    session.base_size = response.base_size;
    session.base_known = true;
  }

  if (session.awaiting_signatures) {
    session.planner->on_signatures(response.signatures);
  } else {
    session.planner->on_shingles(response.base_size, response.shingles);
  }

  if (const auto query = session.planner->next_query()) {
    send_recon_query(session, *query);
    return;
  }
  finish_recon(session);
  recon_sessions_.erase(it);
}

void DeltaCfsClient::finish_recon(ReconSession& session) {
  rsyncx::Delta delta = session.planner->take_delta();

  obs::Span span(tracer_, tn_.upload,
                 kind_cat(proto::OpKind::file_delta));
  proto::SyncRecord record;
  record.sequence = session.node.seq;
  record.kind = proto::OpKind::file_delta;
  record.path = session.node.path;
  record.base_version = session.base;
  record.new_version = session.node.new_version;
  record.base_deleted = session.base_deleted;
  record.payload = rsyncx::encode_delta(delta);
  upload_record(record, proto::MessageType::sync_record);

  // Savings vs the classic reference: the whole-base signature download
  // this session avoided, minus the negotiation bytes it spent instead.
  const std::uint64_t classic = classic_signature_bytes(
      session.base_size, config_.recon.block_size);
  const std::uint64_t negotiated = session.up_bytes + session.down_bytes;
  if (classic > negotiated) {
    recon_sig_bytes_saved_ += classic - negotiated;
    obs::inc(stats_.recon_saved, classic - negotiated);
  }
}

void DeltaCfsClient::recon_fallback(ReconSession& session) {
  ++recon_fallbacks_;
  obs::inc(stats_.recon_fallbacks);
  session.node.payload = std::move(session.target);
  upload_node(std::move(session.node), /*allow_recon=*/false);
}

void DeltaCfsClient::process_ack(const proto::Ack& ack) {
  obs::Span span(tracer_, tn_.ack);
  if (ack.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_end(proto::ack_flow_id(ack.trace_id));
  }
  if (stages_ != nullptr) {
    if (const auto it = inflight_sent_.find(ack.sequence);
        it != inflight_sent_.end()) {
      stages_->record(obs::Stage::ack,
                      static_cast<std::uint64_t>(clock_.now() - it->second));
      inflight_sent_.erase(it);
    }
  }
  if (ack.result == Errc::conflict) {
    obs::inc(stats_.acks_conflict);
    DCFS_LOG_DEBUG("client", "conflict acked", {"sequence", ack.sequence},
                   {"conflict_path", ack.conflict_path});
    ++conflicts_acked_;
  } else if (ack.result != Errc::ok) {
    obs::inc(stats_.acks_error);
    ++errors_acked_;
  } else {
    obs::inc(stats_.acks_ok);
  }
}

void DeltaCfsClient::apply_forward(proto::SyncRecord record) {
  obs::Span span(tracer_, tn_.apply_forward, kind_cat(record.kind));
  if (record.trace_id != 0 && tracer_ != nullptr) {
    tracer_->flow_end(proto::forward_flow_id(record.trace_id));
  }
  obs::inc(stats_.forwards);
  ++forwards_applied_;
  if (record.compressed) {
    meter_.charge(CostKind::decompress, record.payload.size());
    Result<Bytes> plain = lz::decompress(record.payload);
    if (!plain) return;
    record.payload = std::move(*plain);
    record.compressed = false;
  }
  // A file_delta reads its base from `base_path`.  Content a forwarded
  // unlink or rename removed serves only the next record on its name; the
  // create that re-binds an unlinked name passes it by.
  const std::string& base_path =
      record.path2.empty() ? record.path : record.path2;
  std::optional<ForwardStash> stashed;
  if (record.kind != proto::OpKind::create) {
    for (const std::string* touched : {&record.path, &record.path2}) {
      const auto it = forward_stash_.find(*touched);
      if (it == forward_stash_.end()) continue;
      if (*touched == base_path) {
        stashed = std::move(it->second);
      } else {
        local_.unlink(it->second.preserved);
      }
      forward_stash_.erase(it);
    }
  }
  switch (record.kind) {
    case proto::OpKind::create: {
      if (Result<FileHandle> handle = local_.create(record.path)) {
        local_.close(*handle);
      }
      known_versions_[record.path] = record.new_version;
      break;
    }
    case proto::OpKind::mkdir:
      local_.mkdir(record.path);
      break;
    case proto::OpKind::rmdir:
      local_.rmdir(record.path);
      break;
    case proto::OpKind::unlink:
      // A delete-then-recreate on the sender ships the new content as a
      // delta against the deleted one (base_deleted): keep it.
      if (!stash_forwarded(record.path)) local_.unlink(record.path);
      known_versions_.erase(record.path);
      break;
    case proto::OpKind::rename: {
      // A file_delta uploaded with this rename may name the content it
      // replaces as its base (the gedit-style "name already exists"
      // trigger): keep that content.
      stash_forwarded(record.path2);
      local_.rename(record.path, record.path2);
      known_versions_.erase(record.path);
      known_versions_[record.path2] = record.new_version;
      if (checksums_) checksums_->on_rename(record.path, record.path2);
      break;
    }
    case proto::OpKind::link:
      local_.link(record.path, record.path2);
      known_versions_[record.path2] = record.new_version;
      if (checksums_) checksums_->on_link(record.path, record.path2);
      break;
    case proto::OpKind::truncate:
      local_.truncate(record.path, record.size);
      known_versions_[record.path] = record.new_version;
      if (checksums_) checksums_->on_truncate(local_, record.path, record.size);
      break;
    case proto::OpKind::write: {
      Result<std::vector<proto::Segment>> segments =
          proto::decode_segments(record.payload);
      if (!segments) break;
      Result<FileHandle> handle = local_.open(record.path);
      if (!handle) handle = local_.create(record.path);
      if (!handle) break;
      for (const proto::Segment& segment : *segments) {
        meter_.charge(CostKind::byte_copy, segment.data.size());
        local_.write(*handle, segment.offset, segment.data);
      }
      local_.close(*handle);
      known_versions_[record.path] = record.new_version;
      if (checksums_) checksums_->index_file(local_, record.path);
      break;
    }
    case proto::OpKind::file_delta: {
      Result<rsyncx::Delta> delta = rsyncx::decode_delta(record.payload);
      if (!delta) break;
      // The base is the version the record names: the file at base_path,
      // unless a forwarded unlink or rename has just removed it.
      Result<Bytes> base = local_.read_file(
          stashed && stashed->version == record.base_version
              ? stashed->preserved
              : base_path);
      Result<Bytes> rebuilt =
          base ? rsyncx::apply_delta(*base, *delta) : base.status();
      if (!rebuilt) {
        ++forward_base_missing_;
        obs::inc(stats_.forward_base_missing);
        DCFS_LOG_WARN("client", "forwarded delta has no base",
                      {"path", record.path},
                      {"base_version", proto::to_string(record.base_version)});
        break;
      }
      meter_.charge(CostKind::byte_copy, rebuilt->size());
      local_.write_file(record.path, *rebuilt);
      known_versions_[record.path] = record.new_version;
      if (checksums_) checksums_->index_file(local_, record.path);
      break;
    }
    case proto::OpKind::full_file:
      meter_.charge(CostKind::byte_copy, record.payload.size());
      local_.write_file(record.path, record.payload);
      known_versions_[record.path] = record.new_version;
      if (checksums_) checksums_->index_file(local_, record.path);
      break;
    case proto::OpKind::recon_query:
      // Queries are client->server only and are never forwarded.
      break;
  }
  if (stashed) local_.unlink(stashed->preserved);
}

// ---------------------------------------------------------------------------
// Reliability
// ---------------------------------------------------------------------------

std::vector<std::string> DeltaCfsClient::crash_scan() {
  if (!checksums_) return {};
  const std::vector<std::string> paths(recently_modified_.begin(),
                                       recently_modified_.end());
  std::vector<std::string> damaged = checksums_->scan(local_, paths);
  for (const std::string& path : damaged) {
    obs::inc(stats_.checksum_failures);
    DCFS_LOG_WARN("client", "crash scan found damage", {"path", path});
    quarantine_.insert(path);
    detected_corruption_.push_back(path);
  }
  return damaged;
}

std::size_t DeltaCfsClient::import_tree() {
  std::size_t imported = 0;
  std::vector<std::string> stack{config_.sync_root};
  while (!stack.empty()) {
    const std::string dir = std::move(stack.back());
    stack.pop_back();
    Result<std::vector<std::string>> names = local_.list_dir(dir);
    if (!names) continue;
    for (const std::string& name : *names) {
      const std::string full = path::join(dir, name);
      if (!in_scope(full)) continue;
      Result<FileStat> st = local_.stat(full);
      if (!st) continue;
      if (st->type == NodeType::directory) {
        enqueue_meta(proto::OpKind::mkdir, full, "", 0);
        stack.push_back(full);
        continue;
      }
      if (known_versions_.contains(full)) continue;  // already tracked
      SyncNode node;
      node.kind = proto::OpKind::full_file;
      node.path = full;
      Result<Bytes> content = local_.read_file(full);
      if (!content) continue;
      meter_.charge(CostKind::disk_read, content->size());
      node.payload = std::move(*content);
      assign_versions(node, full);
      queue_.enqueue(std::move(node), clock_.now());
      if (checksums_) checksums_->index_file(local_, full);
      recently_modified_.insert(full);
      ++imported;
    }
  }
  return imported;
}

Status DeltaCfsClient::recover_file(std::string_view path,
                                    ByteSpan cloud_content) {
  const Status written = local_.write_file(path, cloud_content);
  if (!written.is_ok()) return written;
  if (checksums_) checksums_->index_file(local_, path);
  quarantine_.erase(std::string(path));
  return Status::ok();
}

}  // namespace dcfs
