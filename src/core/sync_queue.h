// The Sync Queue (§III-B) with backindex causality spans (§III-E).
//
// Intercepted operations are enqueued as nodes awaiting upload (default
// delay 3 s).  Writes to the same file are linked into one *write node*
// (indexed by a hash table) for batching and easy deletion.  A write node
// is *packed* (made immutable) when its file is closed, renamed, deleted or
// truncated.  When delta encoding replaces a write node, the node is
// labeled a *tombstone* and a backindex span is recorded from the node's
// position to the tail (the delta node); every node inside a span is
// applied transactionally on the cloud.  Interleaving spans are merged.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "obs/obs.h"
#include "proto/messages.h"

namespace dcfs {

/// One coalesced write range inside a write node.
struct WriteSegment {
  std::uint64_t offset = 0;
  Bytes data;
};

struct SyncNode {
  enum class State : std::uint8_t { open, packed, tombstone };

  std::uint64_t seq = 0;
  State state = State::packed;
  proto::OpKind kind = proto::OpKind::write;
  std::string path;
  std::string path2;                   ///< rename/link target; delta base path
  std::vector<WriteSegment> segments;  ///< write nodes
  Bytes payload;                       ///< encoded delta
  std::uint64_t trunc_size = 0;
  proto::VersionId base_version;
  proto::VersionId new_version;
  TimePoint enqueue_time = 0;
  TimePoint last_touch = 0;

  /// Delta base lives in the cloud's tombstones (delete-then-recreate).
  bool base_deleted = false;
  /// A later queue node (e.g. a hard link) copies this node's effect on the
  /// cloud: the node must ship as-is and can never be tombstoned.
  bool pinned = false;

  /// Filled in at pop time from the covering backindex span.
  std::uint64_t txn_group = 0;
  bool txn_last = false;

  [[nodiscard]] std::uint64_t content_bytes() const noexcept {
    std::uint64_t total = payload.size();
    for (const WriteSegment& seg : segments) total += seg.data.size();
    return total;
  }
};

/// How causal consistency is preserved across Sync Queue optimizations.
enum class CausalityMode : std::uint8_t {
  /// The paper's design: backindex spans mark the nodes that must apply
  /// transactionally; everything else ships as soon as it matures.
  backindex,
  /// The ViewBox-style alternative the paper argues against (§III-E):
  /// periodic snapshots freeze the queue and ship it as one transactional
  /// group.  Frozen nodes accept no more changes, so a delta triggered
  /// after the snapshot boundary cannot replace its write node.
  snapshot,
};

class SyncQueue {
 public:
  explicit SyncQueue(Duration upload_delay = seconds(3),
                     CausalityMode mode = CausalityMode::backindex,
                     Duration snapshot_interval = seconds(3))
      : upload_delay_(upload_delay),
        mode_(mode),
        snapshot_interval_(snapshot_interval) {}

  /// Appends a meta-operation node (create/rename/unlink/...); returns its
  /// sequence number.
  std::uint64_t enqueue(SyncNode node, TimePoint now);

  /// Adds a write to the file's open write node, creating one at the tail
  /// if necessary (hash-table lookup per the paper).  Overlapping/adjacent
  /// segments are coalesced.  Returns the node (so the caller can assign
  /// versions when the node is fresh).
  SyncNode& add_write(std::string_view path, std::uint64_t offset,
                      ByteSpan data, TimePoint now);

  /// Packs the open write node for `path`, if any (file closed / renamed /
  /// deleted / truncated).  Returns its seq.
  std::optional<std::uint64_t> pack(std::string_view path);

  /// Finds the newest not-yet-uploaded write node (open or packed) for
  /// `path`; used by delta replacement.  Returns nullptr if none.
  SyncNode* find_write_node(std::string_view path);

  /// True if `node` can be tombstoned without losing data: no later queued
  /// node may depend on its content reaching the cloud (a link that copies
  /// it, a delta that uses its lineage as base, a rename that carries it
  /// somewhere a later consumer reads).  The single rename that triggered
  /// the current delta replacement is exempted via `allowed_seq`.
  [[nodiscard]] bool safe_to_replace(const SyncNode& node,
                                     std::uint64_t allowed_seq) const;

  /// Tombstones `node` (its data will travel as a delta instead) and
  /// records a backindex span from the node to the given tail seq.
  void replace_with_span(SyncNode& node, std::uint64_t tail_seq);

  /// Explicitly records a causality span [from_seq, to_seq] (merged with
  /// any overlapping span).
  void add_span(std::uint64_t from_seq, std::uint64_t to_seq);

  /// Pops every node whose upload delay has elapsed (all of them when
  /// `flush_all`).  Open write nodes idle longer than the delay are
  /// auto-packed; an actively-written open node blocks the pop (FIFO).
  /// Tombstones are dropped.  Popped nodes carry their txn_group labels.
  std::vector<SyncNode> pop_ready(TimePoint now, bool flush_all = false);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Total buffered content bytes (backpressure signal for Table III).
  [[nodiscard]] std::uint64_t pending_bytes() const noexcept {
    return pending_bytes_;
  }

  [[nodiscard]] Duration upload_delay() const noexcept { return upload_delay_; }
  [[nodiscard]] CausalityMode mode() const noexcept { return mode_; }

  /// Registers the queue's instruments (depth/pending-bytes gauges, merge
  /// counter, flush-latency histogram).  Null disables them again.
  void set_obs(obs::Obs* obs);

 private:
  void update_gauges() noexcept {
    obs::set(depth_gauge_, static_cast<std::int64_t>(nodes_.size()));
    obs::set(pending_bytes_gauge_, static_cast<std::int64_t>(pending_bytes_));
  }

  struct Span {
    std::uint64_t id = 0;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
  };

  /// Returns the span covering `seq`, if any.
  const Span* covering_span(std::uint64_t seq) const;

  Duration upload_delay_;
  CausalityMode mode_ = CausalityMode::backindex;
  Duration snapshot_interval_ = seconds(3);
  TimePoint next_snapshot_ = 0;
  std::uint64_t frozen_below_ = 0;  ///< nodes with seq < this are frozen
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_span_id_ = 1;
  std::deque<std::unique_ptr<SyncNode>> nodes_;
  std::unordered_map<std::string, SyncNode*> open_writes_;  ///< hash index
  std::vector<Span> spans_;
  std::uint64_t pending_bytes_ = 0;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* pending_bytes_gauge_ = nullptr;
  obs::Counter* write_merges_ = nullptr;
  obs::Histogram* flush_latency_us_ = nullptr;
};

}  // namespace dcfs
