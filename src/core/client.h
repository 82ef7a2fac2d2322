// The DeltaCFS client — the paper's primary contribution (§III, Fig. 4).
//
// Sits in the FUSE position (as an OpSink behind InterceptingFs) and
// synchronizes every file update incrementally:
//   - by default, intercepted writes are shipped directly (NFS-like file
//     RPC) through the Sync Queue;
//   - when the Relation Table recognizes a transactional update, the
//     whole-file rewrite is replaced by a *local* delta (bitwise-compare
//     rsync) between the new version and the preserved old version;
//   - large in-place updates (> ~50% of the file) can also be delta-encoded
//     locally thanks to physical undo logging;
//   - optional per-block checksums detect silent corruption and post-crash
//     inconsistency, preventing damaged data from reaching the cloud;
//   - versioning is client-assigned <CliID, VerCnt>; causality is preserved
//     via backindex spans applied transactionally by the server.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/checksum_store.h"
#include "core/relation_table.h"
#include "core/sync_queue.h"
#include "core/undo_log.h"
#include "metrics/cost.h"
#include "net/transport.h"
#include "obs/stage_ledger.h"
#include "obs/trace.h"
#include "par/worker_pool.h"
#include "proto/messages.h"
#include "rsyncx/recon.h"
#include "vfs/intercept.h"

namespace dcfs {

/// How large whole-file uploads reach the cloud (rsyncx/recon.h).
enum class ReconMode : std::uint8_t {
  /// Ship the full content in one record (the pre-recon behavior).
  off,
  /// One-round exchange: download the whole base's block signature, upload
  /// a delta.  The equivalence and traffic reference for `recursive`.
  classic,
  /// Multi-round recursive shingle narrowing; signature bytes proportional
  /// to the changed region at one RTT per round.
  recursive,
  /// Pick classic or recursive per file from its size and the transport's
  /// NetProfile (signature download time vs round-trip cost).
  adaptive,
};

struct ClientConfig {
  std::uint32_t client_id = 1;
  /// Only paths under this root are synchronized.
  std::string sync_root = "/sync";
  /// Where unlinked files are preserved while their relation entry lives.
  std::string tmp_dir = "/.dcfs_tmp";
  std::uint32_t delta_block_size = 4096;
  Duration upload_delay = seconds(3);
  Duration relation_timeout = seconds(2);
  /// In-place updates overwriting more than this fraction of the file are
  /// candidates for local delta compression (§III-A).
  double inplace_delta_threshold = 0.5;
  /// Files larger than this are not preserved on unlink (the ENOSPC rule).
  std::uint64_t preserve_max_bytes = 1ull << 32;
  bool enable_checksums = false;
  bool enable_undo_log = true;
  /// Ablation knob: with delta encoding disabled the client degenerates to
  /// pure NFS-like file RPC (every update ships as intercepted writes).
  bool enable_delta = true;
  /// Compress record payloads before upload (the paper's DeltaCFS does
  /// not compress — "the CPU resource used by data compression can be
  /// saved" — this knob quantifies that trade-off).
  bool compress_uploads = false;
  std::uint64_t compress_min_bytes = 512;
  /// Causality mechanism (ablation: backindex vs ViewBox-style snapshots).
  CausalityMode causality = CausalityMode::backindex;
  Duration snapshot_interval = seconds(3);
  /// Worker lanes for the delta/signature kernels (dcfs::par); the caller
  /// counts as one lane, so 1 means strictly serial — the pre-existing code
  /// path.  Output bytes and CostMeter totals are identical at any setting.
  std::uint32_t delta_threads = 1;
  /// Multi-round reconciliation for large whole-file uploads: instead of
  /// shipping the full content, negotiate with the server which regions
  /// actually changed (rsyncx/recon.h) and upload a delta against the
  /// cloud's base version.  Off by default — existing traffic accounting
  /// and the record stream are unchanged unless opted in.
  ReconMode recon_mode = ReconMode::off;
  /// Full-content nodes at least this large negotiate instead of
  /// uploading; smaller ones ship as before (negotiation RTTs would
  /// dominate).
  std::uint64_t recon_min_bytes = 1ull << 20;
  /// Shingle/recursion tuning shared by the client planner and (via the
  /// wire) the server's scanners.
  rsyncx::recon::ReconParams recon = {};
};

class DeltaCfsClient final : public OpSink {
 public:
  /// `local` is the backing local filesystem (below the FUSE layer);
  /// `checksum_kv` backs the Checksum Store when checksums are enabled.
  DeltaCfsClient(FileSystem& local, Transport& transport, const Clock& clock,
                 const CostProfile& profile, ClientConfig config = {},
                 std::shared_ptr<KvStore> checksum_kv = nullptr,
                 obs::Obs* obs = nullptr);

  // ---- OpSink (the LibFuse callbacks) ----
  void note_create(std::string_view path) override;
  void note_write(std::string_view path, std::uint64_t offset, ByteSpan data,
                  ByteSpan overwritten, std::uint64_t size_before) override;
  void note_truncate(std::string_view path, std::uint64_t new_size,
                     std::uint64_t old_size, ByteSpan cut_tail) override;
  void note_close(std::string_view path, bool wrote) override;
  void before_rename(std::string_view from, std::string_view to,
                     bool dst_exists) override;
  void note_rename(std::string_view from, std::string_view to,
                   bool dst_existed) override;
  void note_link(std::string_view from, std::string_view to) override;
  bool intercept_unlink(std::string_view path) override;
  void note_unlink(std::string_view path) override;
  void note_mkdir(std::string_view path) override;
  void note_rmdir(std::string_view path) override;
  Status verify_read(std::string_view path, std::uint64_t offset,
                     ByteSpan data) override;

  // ---- Sync driving ----

  /// Periodic work: expire relation entries, upload ready Sync Queue nodes,
  /// process acks and forwarded records.
  void tick(TimePoint now);

  /// Drains the Sync Queue completely (end of experiment).
  void flush(TimePoint now);

  /// Post-crash scan (§III-E): verifies recently-modified files against the
  /// Checksum Store; damaged files are quarantined (never uploaded) and
  /// returned.
  std::vector<std::string> crash_scan();

  /// Repairs a quarantined file with the cloud's copy (recovery pull).
  Status recover_file(std::string_view path, ByteSpan cloud_content);

  /// Bootstrap: walks the sync root and enqueues the full content of every
  /// file not yet known to this client (attaching an existing folder, or
  /// re-attaching after the client's state was lost).  Returns the number
  /// of files enqueued.
  std::size_t import_tree();

  // ---- Introspection ----

  [[nodiscard]] CostMeter& meter() noexcept { return meter_; }
  [[nodiscard]] const CostMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] SyncQueue& queue() noexcept { return queue_; }
  [[nodiscard]] RelationTable& relations() noexcept { return relations_; }
  [[nodiscard]] const std::vector<std::string>& detected_corruption()
      const noexcept {
    return detected_corruption_;
  }
  [[nodiscard]] const std::set<std::string>& quarantined() const noexcept {
    return quarantine_;
  }
  [[nodiscard]] std::uint64_t records_uploaded() const noexcept {
    return records_uploaded_;
  }
  [[nodiscard]] std::uint64_t deltas_triggered() const noexcept {
    return deltas_triggered_;
  }
  [[nodiscard]] std::uint64_t conflicts_acked() const noexcept {
    return conflicts_acked_;
  }
  /// Non-conflict error acks (corruption / not_found) — should be zero in
  /// healthy operation; exposed for tests and monitoring.
  [[nodiscard]] std::uint64_t errors_acked() const noexcept {
    return errors_acked_;
  }
  [[nodiscard]] std::uint64_t forwards_applied() const noexcept {
    return forwards_applied_;
  }
  /// Forwarded file_deltas dropped because their base could not be
  /// resolved locally (client.forward.base_missing).
  [[nodiscard]] std::uint64_t forward_base_missing() const noexcept {
    return forward_base_missing_;
  }
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::optional<proto::VersionId> known_version(
      std::string_view path) const;
  /// Null when `delta_threads` <= 1.
  [[nodiscard]] par::WorkerPool* delta_pool() noexcept { return pool_.get(); }
  /// The client keeps no signature cache; both always return 0.  They stay
  /// only because wallbench's `core.sigcache_hit_ratio` still reads them.
  [[nodiscard]] std::uint64_t signature_cache_hits() const noexcept {
    return 0;
  }
  [[nodiscard]] std::uint64_t signature_cache_misses() const noexcept {
    return 0;
  }
  /// Reconciliation sessions still awaiting a server answer.  While any is
  /// in flight the Sync Queue is not popped (a later node for the same
  /// path must not overtake the session's final delta), so drivers must
  /// keep pumping server + client until this returns 0.
  [[nodiscard]] std::size_t recon_in_flight() const noexcept {
    return recon_sessions_.size();
  }
  [[nodiscard]] std::uint64_t recon_sessions_started() const noexcept {
    return recon_sessions_started_;
  }
  [[nodiscard]] std::uint64_t recon_rounds_sent() const noexcept {
    return recon_rounds_sent_;
  }
  /// Sessions the server refused (no usable base) that fell back to a
  /// plain full-content upload.
  [[nodiscard]] std::uint64_t recon_fallbacks() const noexcept {
    return recon_fallbacks_;
  }
  /// Negotiation frame bytes (queries up, answers down) — what the
  /// transport carried, excluding the final delta.
  [[nodiscard]] std::uint64_t recon_up_bytes() const noexcept {
    return recon_up_bytes_;
  }
  [[nodiscard]] std::uint64_t recon_down_bytes() const noexcept {
    return recon_down_bytes_;
  }
  /// Estimated signature bytes avoided vs the classic one-round exchange
  /// (whole-base block signature download) for completed sessions.
  [[nodiscard]] std::uint64_t recon_sig_bytes_saved() const noexcept {
    return recon_sig_bytes_saved_;
  }
  /// The client has no chunk streams; this always returns 0.  It stays
  /// only because wallbench's convergence check still reads it.
  [[nodiscard]] std::size_t streams_in_flight() const noexcept { return 0; }
  /// Nodes parked behind an in-flight recon session for their path
  /// (unrelated paths keep flowing).
  [[nodiscard]] std::size_t deferred_pending() const noexcept {
    return deferred_.size();
  }

 private:
  struct Stash {
    Bytes content;
    proto::VersionId version;
  };

  [[nodiscard]] bool in_scope(std::string_view path) const;
  proto::VersionId next_version();

  /// Assigns versions to a fresh node for `path` (base = last known).
  void assign_versions(SyncNode& node, const std::string& path);

  /// Enqueues a metadata operation node.
  void enqueue_meta(proto::OpKind kind, const std::string& path,
                    const std::string& path2, std::uint64_t trunc_size);

  /// Runs local delta encoding between the file's current content and
  /// `base_content`, replacing the file's pending write node.  Falls back
  /// silently (keeping the write node) when there is nothing to gain.
  void run_delta(const std::string& path, const std::string& base_path,
                 ByteSpan base_content, const proto::VersionId& base_version,
                 bool base_deleted);
  /// Variant for transactional updates where the pending write node lives
  /// under the file's pre-rename name; `trigger_rename_seq` names the
  /// rename node that carried the content to the delta's target (the only
  /// later node allowed to reference the replaced write node).
  void run_delta(const std::string& path, const std::string& base_path,
                 ByteSpan base_content, const proto::VersionId& base_version,
                 bool base_deleted, const std::string& write_node_path,
                 std::uint64_t trigger_rename_seq);

  /// Weak-only signature of a local delta's base, computed in parallel
  /// when a pool is configured.
  rsyncx::Signature base_signature_for(ByteSpan base_content);

  /// Relation-table trigger processing for a name that just (re)appeared.
  void handle_created_name(const std::string& path);

  /// Releases a consumed relation entry's preserved file (if any).
  void release_preserved(const RelationTable::Entry& entry);

  /// Drops a pending-delta obligation, releasing its preserved file.
  void discard_pending(const std::string& path);

  /// Creates tmp_dir on first use.
  void ensure_tmp_dir();
  /// Peer side of a forwarded unlink or rename-over: moves `path` aside
  /// under tmp_dir (a rename, not a copy) with its known version, so a
  /// file_delta forwarded next can name it as its base.  False (nothing
  /// moved) when the version is unknown.
  bool stash_forwarded(const std::string& path);

  /// In-place delta policy at pack time (§III-A "further extend").
  void maybe_inplace_delta(const std::string& path);

  /// Ships one matured node.  `allow_recon` lets eligible full-content
  /// nodes divert into a reconciliation session; the fallback path passes
  /// false to force the plain upload.
  void upload_node(SyncNode node, bool allow_recon = true);

  // ---- Recursive reconciliation (rsyncx/recon.h) ----

  /// A node negotiating its upload: owns the target bytes (spanned by the
  /// planner) and the node's metadata for the final file_delta record.
  struct ReconSession {
    std::uint64_t id = 0;
    SyncNode node;  ///< payload moved out into `target`
    Bytes target;
    std::unique_ptr<rsyncx::recon::Planner> planner;
    /// Base pinned from the first server answer; later rounds query this
    /// exact version so concurrent server-side updates cannot shear the
    /// negotiation.
    proto::VersionId base;
    bool base_deleted = false;
    bool base_known = false;
    std::uint64_t base_size = 0;
    bool awaiting_signatures = false;
    std::uint64_t up_bytes = 0;    ///< query frame bytes
    std::uint64_t down_bytes = 0;  ///< answer frame bytes
    TimePoint round_sent = 0;
  };

  [[nodiscard]] bool recon_eligible(const SyncNode& node) const;
  /// Merges deferred_ + freshly matured nodes, uploads every node not
  /// blocked behind an in-flight recon session for its path or txn group,
  /// and re-parks the rest (per-path FIFO preserved).
  void upload_ready(TimePoint now, bool flush_all);

  /// classic vs recursive for one file, per ClientConfig::recon_mode;
  /// `adaptive` compares the whole-base signature download time against
  /// the extra round trips recursion costs on this NetProfile.
  [[nodiscard]] rsyncx::recon::Planner::Mode recon_mode_for(
      std::uint64_t size) const;
  void start_recon(SyncNode node);
  void send_recon_query(ReconSession& session,
                        const rsyncx::recon::Planner::Query& query);
  void handle_recon_response(const proto::ReconResponse& response,
                             std::uint64_t frame_bytes);
  /// Session converged: encode the narrowed delta and ship it as a normal
  /// file_delta record against the pinned base.
  void finish_recon(ReconSession& session);
  /// Server refused (or the answer was unusable): upload the full content.
  void recon_fallback(ReconSession& session);
  /// Ships one uploaded record (plain or recon result):
  /// compresses its payload under `compress_uploads`, stamps its trace id,
  /// counts it, starts its trace flow and its ack round-trip clock.
  void upload_record(proto::SyncRecord& record, proto::MessageType type);
  /// The one upstream send path: encodes `record`, charges the frame's
  /// encrypt and net_frame costs, ships it and records its transport
  /// stage.  Returns the frame's size in bytes.
  std::size_t send_frame(const proto::SyncRecord& record,
                         proto::MessageType type);
  /// Downstream frame dispatch: ack / forwarded record / recon answer.
  void dispatch_frame(Bytes frame);
  void process_ack(const proto::Ack& ack);
  void apply_forward(proto::SyncRecord record);

  /// Verifies pre-write block integrity using the captured old bytes, then
  /// refreshes the touched checksums.
  void checksums_on_write(const std::string& path, std::uint64_t offset,
                          ByteSpan data, ByteSpan overwritten,
                          std::uint64_t size_before);

  /// Trace id for the next uploaded record: unique per client (the client
  /// id occupies the high bits), never colliding with the flow-edge tag
  /// bits (proto::kAckFlowBit / kForwardFlowBit).
  [[nodiscard]] std::uint64_t next_trace_id() noexcept;

  FileSystem& local_;
  Transport& transport_;
  const Clock& clock_;
  CostMeter meter_;
  obs::Tracer* tracer_ = nullptr;
  obs::StageLedger* stages_ = nullptr;
  /// Span names interned at wiring time (allocation-free hot path); all 0
  /// when observability is disabled.
  struct TraceNames {
    obs::NameId enqueue = 0;
    obs::NameId delta = 0;
    obs::NameId upload_batch = 0;
    obs::NameId upload = 0;
    obs::NameId apply_forward = 0;
    obs::NameId ack = 0;
    obs::NameId recon_round = 0;
    /// Category per OpKind (indexed by the enum's numeric value).
    std::array<obs::NameId, 16> kind{};
  } tn_;
  /// Bounds-safe kind category (forwarded kinds come off the network).
  [[nodiscard]] obs::NameId kind_cat(proto::OpKind kind) const noexcept {
    const auto i = static_cast<std::size_t>(kind);
    return i < tn_.kind.size() ? tn_.kind[i] : obs::NameId{0};
  }
  std::uint64_t trace_counter_ = 0;
  /// Upload time by record sequence, for the ack round-trip stage; only
  /// populated while a stage ledger is attached (entries erased on ack).
  std::map<std::uint64_t, TimePoint> inflight_sent_;
  /// Registered instruments; all null when observability is disabled.
  struct Stats {
    obs::Counter* relation_hits = nullptr;
    obs::Counter* relation_misses = nullptr;
    obs::Counter* delta_replaced = nullptr;
    obs::Counter* delta_kept_rpc = nullptr;
    obs::Counter* delta_bytes_saved = nullptr;
    obs::Counter* checksum_failures = nullptr;
    obs::Counter* uploads = nullptr;
    obs::Counter* acks_ok = nullptr;
    obs::Counter* acks_conflict = nullptr;
    obs::Counter* acks_error = nullptr;
    obs::Counter* forwards = nullptr;
    obs::Counter* forward_base_missing = nullptr;
    obs::Counter* recon_sessions = nullptr;
    obs::Counter* recon_rounds = nullptr;
    obs::Counter* recon_saved = nullptr;
    obs::Counter* recon_fallbacks = nullptr;
    obs::Histogram* record_bytes = nullptr;
  } stats_;
  ClientConfig config_;
  SyncQueue queue_;
  RelationTable relations_;
  UndoLog undo_;
  std::unique_ptr<par::WorkerPool> pool_;
  std::unique_ptr<ChecksumStore> checksums_;

  std::uint64_t version_counter_ = 0;
  std::map<std::string, proto::VersionId, std::less<>> known_versions_;
  /// created-name -> preserved old version to delta against on close.
  std::map<std::string, RelationTable::Entry> pending_delta_;
  /// Hard-link bookkeeping: sync is path-based, but writes through one
  /// name must reach every name sharing the inode.  Groups are maintained
  /// from the intercepted link/rename/unlink/create stream.
  struct LinkGroups {
    std::map<std::string, std::uint64_t> member_of;
    std::map<std::uint64_t, std::set<std::string>> groups;
    std::uint64_t next_id = 1;

    void link(const std::string& a, const std::string& b);
    /// The inode at `path` is gone from that name (unlink / replaced).
    void detach(const std::string& path);
    /// The name `from` now refers to the same inode under `to`.
    void rename(const std::string& from, const std::string& to);
    /// Other names sharing `path`'s inode (empty if unlinked/not linked).
    std::vector<std::string> siblings(const std::string& path) const;
  };

  /// rename-over-existing stash: destination -> old content+version.
  std::map<std::string, Stash> stash_;
  /// Content a forwarded unlink or rename-over removed, preserved under
  /// tmp_dir.
  struct ForwardStash {
    std::string preserved;
    proto::VersionId version;
    TimePoint since;
  };
  /// Peer side of the same pattern, by the name whose content was removed.
  /// A file_delta forwarded later names that content as its base (by
  /// version): the rename-over delta, or the delete-then-recreate delta
  /// (base_deleted).  The entry lives until the next forwarded record for
  /// its name other than the create that re-binds it, or until it is
  /// relation_timeout + upload_delay old — by then the sender's relation
  /// entry has expired and its delta has left the sender's queue.
  std::map<std::string, ForwardStash> forward_stash_;
  LinkGroups links_;
  /// version the cloud holds for files we preserved on unlink.
  std::map<std::string, proto::VersionId> preserved_versions_;
  std::set<std::string> recently_modified_;
  std::set<std::string> quarantine_;
  std::vector<std::string> detected_corruption_;

  /// In-flight reconciliation sessions by id.  At most a handful exist at
  /// once (queue pops pause while any is in flight).
  std::map<std::uint64_t, ReconSession> recon_sessions_;
  std::uint64_t recon_counter_ = 0;
  std::uint64_t recon_sessions_started_ = 0;
  std::uint64_t recon_rounds_sent_ = 0;
  std::uint64_t recon_fallbacks_ = 0;
  std::uint64_t recon_up_bytes_ = 0;
  std::uint64_t recon_down_bytes_ = 0;
  std::uint64_t recon_sig_bytes_saved_ = 0;

  /// Nodes matured while their path was claimed by a recon session;
  /// re-examined (in seq order) every upload batch.
  std::vector<SyncNode> deferred_;

  std::uint64_t preserve_counter_ = 0;
  bool tmp_dir_ready_ = false;
  std::uint64_t records_uploaded_ = 0;
  std::uint64_t deltas_triggered_ = 0;
  std::uint64_t conflicts_acked_ = 0;
  std::uint64_t errors_acked_ = 0;
  std::uint64_t forwards_applied_ = 0;
  std::uint64_t forward_base_missing_ = 0;
};

}  // namespace dcfs
