// Wire protocol between DeltaCFS clients and the cloud.
//
// Every mutating record carries the paper's client-assigned version pair
// <CliID, VerCnt> (§III-C): `base_version` names the version the increment
// applies to, `new_version` the version it produces.  Records that belong
// to one backindex span share a `txn_group` and are applied transactionally
// by the server (§III-E).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "rsyncx/recon.h"

namespace dcfs::proto {

/// Coarse classification of a wire frame, used for per-type traffic
/// attribution (TrafficMeter breakdown, Fig. 8/9 honesty).
enum class MessageType : std::uint8_t {
  sync_record = 0,  ///< client-to-cloud SyncRecord frame
  ack,              ///< cloud-to-client Ack frame
  forward,          ///< cloud-to-client forwarded record (multi-device)
  recon,            ///< reconciliation round (query up, answer down)
  other,            ///< anything unclassified
};

inline constexpr std::size_t kMessageTypeCount = 5;

constexpr std::string_view to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::sync_record:
      return "sync_record";
    case MessageType::ack:
      return "ack";
    case MessageType::forward:
      return "forward";
    case MessageType::recon:
      return "recon";
    case MessageType::other:
      return "other";
  }
  return "?";
}

/// <CliID, VerCnt>: client-assigned, globally unique, partially ordered.
struct VersionId {
  std::uint32_t client_id = 0;
  std::uint64_t counter = 0;

  friend bool operator==(const VersionId&, const VersionId&) = default;
  [[nodiscard]] bool is_null() const noexcept {
    return client_id == 0 && counter == 0;
  }
};

std::string to_string(const VersionId& version);

enum class OpKind : std::uint8_t {
  create = 1,   ///< new empty file
  mkdir,
  rmdir,
  unlink,
  rename,       ///< path -> path2
  link,         ///< path2 becomes another name for path
  truncate,     ///< resize to `size`
  write,        ///< payload at `offset` (NFS-like file RPC)
  file_delta,   ///< payload = encoded rsyncx::Delta against base_version
  full_file,    ///< payload = entire content (bootstrap / recovery)
  // 11 is reserved and never decodes, so the kinds below keep their wire
  // values.
  /// Payload = encoded ReconRequest: one round of the recursive
  /// reconciliation exchange (rsyncx/recon.h).  Not a mutation — the
  /// server answers with a ReconResponse frame instead of an Ack.
  recon_query = 12,
  // 13-15 (the retired chunk-stream kinds) are reserved and never decode.
};

std::string_view to_string(OpKind kind);

/// One sync unit: a node popped from the Sync Queue, on the wire.
struct SyncRecord {
  std::uint64_t sequence = 0;  ///< client-local, echoed in acks
  OpKind kind = OpKind::write;
  std::string path;
  std::string path2;      ///< rename destination / link new name
  std::uint64_t offset = 0;
  std::uint64_t size = 0; ///< truncate target size
  Bytes payload;
  VersionId base_version;
  VersionId new_version;
  std::uint64_t txn_group = 0;  ///< 0 = standalone
  bool txn_last = false;        ///< closes its transactional group
  /// For file_delta: the base content belongs to a file the client deleted
  /// (delete-then-recreate pattern); the server resolves it from its
  /// tombstones rather than treating the stale version as a conflict.
  bool base_deleted = false;
  /// Payload is LZ-compressed (optional, ClientConfig::compress_uploads).
  bool compressed = false;
  /// Trace context minted by the client (0 = untraced).  Carries the flow
  /// id across the wire so server-side apply spans join the originating
  /// client op in the exported trace (obs/trace.h flow events).
  std::uint64_t trace_id = 0;

  friend bool operator==(const SyncRecord&, const SyncRecord&) = default;
};

/// Server response to one SyncRecord.
struct Ack {
  std::uint64_t sequence = 0;
  Errc result = Errc::ok;           ///< ok | conflict | ...
  VersionId server_version;         ///< version now current on the cloud
  std::string conflict_path;        ///< where a conflict copy landed, if any
  std::uint64_t trace_id = 0;       ///< echoed from the acked record

  friend bool operator==(const Ack&, const Ack&) = default;
};

/// Flow-id derivation from a record's trace context.  The base id binds the
/// upload edge (client.upload → server.apply); the ack and forward edges
/// reuse it with a high bit set so the three arrows of one transaction stay
/// distinct in the viewer while remaining correlatable by masking.
inline constexpr std::uint64_t kAckFlowBit = 1ull << 63;
inline constexpr std::uint64_t kForwardFlowBit = 1ull << 62;

constexpr std::uint64_t ack_flow_id(std::uint64_t trace_id) noexcept {
  return trace_id | kAckFlowBit;
}
constexpr std::uint64_t forward_flow_id(std::uint64_t trace_id) noexcept {
  return trace_id | kForwardFlowBit;
}
/// Strips the edge bits back to the minted trace id.
constexpr std::uint64_t base_trace_id(std::uint64_t flow_id) noexcept {
  return flow_id & ~(kAckFlowBit | kForwardFlowBit);
}

/// Payload of an OpKind::write record: the coalesced write segments of one
/// Sync Queue write node (batched, per §III-B).
struct Segment {
  std::uint64_t offset = 0;
  Bytes data;

  friend bool operator==(const Segment&, const Segment&) = default;
};

Bytes encode_segments(const std::vector<Segment>& segments);
Result<std::vector<Segment>> decode_segments(ByteSpan wire);

/// Byte-exact serialization (these frames are exactly what the traffic
/// meters see).
Bytes encode(const SyncRecord& record);
Result<SyncRecord> decode_record(ByteSpan wire);

Bytes encode(const Ack& ack);
Result<Ack> decode_ack(ByteSpan wire);

/// Appending variants: serialize onto the end of `out` (not cleared),
/// reserving the full encoded size up front.  The server writes its
/// downstream frames this way, after their one-byte tag; encode() wraps
/// these.
void encode_into(const SyncRecord& record, Bytes& out);
void encode_into(const Ack& ack, Bytes& out);

// ---- Recursive reconciliation rounds (rsyncx/recon.h) -----------------
//
// A recon round travels as an OpKind::recon_query SyncRecord whose payload
// is an encoded ReconRequest; `path`, `base_version`, `base_deleted` and
// `trace_id` ride in the enclosing record.  The server answers with a
// ReconResponse in a dedicated downstream frame (tag 0x03, see
// docs/PROTOCOL.md) — never an Ack, so the one-shot record path is
// untouched.

/// One round's question: which regions of the base to scan, and how.
struct ReconRequest {
  std::uint64_t session = 0;  ///< client-chosen, echoed in the response
  std::uint32_t round = 0;    ///< 0-based, echoed in the response
  enum class Want : std::uint8_t { shingles = 0, signatures = 1 };
  Want want = Want::shingles;
  /// Shingle level (Want::shingles): CDC params for this round.
  std::uint64_t minimum = 0;
  std::uint64_t average = 0;
  std::uint64_t maximum = 0;
  /// Block size (Want::signatures).
  std::uint32_t block_size = 0;
  /// Base regions to scan, in order; empty = the whole file.
  std::vector<rsyncx::recon::Region> regions;

  friend bool operator==(const ReconRequest&, const ReconRequest&) = default;
};

/// One round's answer.  `shingles` (concatenated in region order, absolute
/// offsets) or `signatures` (one per requested region, in order) — matching
/// the request's Want.
struct ReconResponse {
  std::uint64_t session = 0;
  std::uint32_t round = 0;
  /// ok, or not_found when the requested base version is gone (client
  /// falls back to a full upload).
  Errc result = Errc::ok;
  /// The base the server answered from: its version, whether it was
  /// resolved from a tombstone (delete-then-recreate pattern), and its
  /// total size.  The client pins `base` in follow-up rounds and stamps
  /// both fields into the final file_delta record.
  VersionId base;
  bool base_deleted = false;
  std::uint64_t base_size = 0;
  std::uint64_t trace_id = 0;  ///< echoed from the query record
  std::vector<rsyncx::recon::Shingle> shingles;
  std::vector<rsyncx::recon::RegionSignature> signatures;
};

Bytes encode(const ReconRequest& request);
Result<ReconRequest> decode_recon_request(ByteSpan wire);

Bytes encode(const ReconResponse& response);
void encode_into(const ReconResponse& response, Bytes& out);
Result<ReconResponse> decode_recon_response(ByteSpan wire);

}  // namespace dcfs::proto
