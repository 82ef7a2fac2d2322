#include "proto/messages.h"

#include <algorithm>

namespace dcfs::proto {
namespace {

/// Reserved (the retired record bundle): no OpKind may take this value.
/// The retired chunk-stream kinds 13-15 lie above the last OpKind, so the
/// range check in decode_record() rejects them.
constexpr std::uint8_t kRetiredBundleKind = 11;

void put_string(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  append(out, ByteSpan{reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()});
}

bool get_string(ByteSpan in, std::size_t& pos, std::string& out) {
  if (pos + 4 > in.size()) return false;
  const std::uint32_t length = get_u32(in, pos);
  pos += 4;
  if (pos + length > in.size()) return false;
  out.assign(reinterpret_cast<const char*>(in.data() + pos), length);
  pos += length;
  return true;
}

bool get_bytes(ByteSpan in, std::size_t& pos, Bytes& out) {
  if (pos + 4 > in.size()) return false;
  const std::uint32_t length = get_u32(in, pos);
  pos += 4;
  if (pos + length > in.size()) return false;
  out.assign(in.begin() + static_cast<std::ptrdiff_t>(pos),
             in.begin() + static_cast<std::ptrdiff_t>(pos + length));
  pos += length;
  return true;
}

void put_version(Bytes& out, const VersionId& v) {
  put_u32(out, v.client_id);
  put_u64(out, v.counter);
}

bool get_version(ByteSpan in, std::size_t& pos, VersionId& v) {
  if (pos + 12 > in.size()) return false;
  v.client_id = get_u32(in, pos);
  v.counter = get_u64(in, pos + 4);
  pos += 12;
  return true;
}

}  // namespace

Bytes encode_segments(const std::vector<Segment>& segments) {
  Bytes wire;
  put_u32(wire, static_cast<std::uint32_t>(segments.size()));
  for (const Segment& segment : segments) {
    put_u64(wire, segment.offset);
    put_u32(wire, static_cast<std::uint32_t>(segment.data.size()));
    append(wire, segment.data);
  }
  return wire;
}

Result<std::vector<Segment>> decode_segments(ByteSpan wire) {
  if (wire.size() < 4) return Status{Errc::corruption, "segments too short"};
  const std::uint32_t count = get_u32(wire, 0);
  std::size_t pos = 4;
  // Each segment needs at least 12 header bytes: larger counts are corrupt.
  if (count > wire.size() / 12 + 1) {
    return Status{Errc::corruption, "segment count implausible"};
  }
  std::vector<Segment> segments;
  segments.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (pos + 12 > wire.size()) {
      return Status{Errc::corruption, "segment header truncated"};
    }
    Segment segment;
    segment.offset = get_u64(wire, pos);
    const std::uint32_t length = get_u32(wire, pos + 8);
    pos += 12;
    if (pos + length > wire.size()) {
      return Status{Errc::corruption, "segment data truncated"};
    }
    segment.data.assign(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                        wire.begin() + static_cast<std::ptrdiff_t>(pos + length));
    pos += length;
    segments.push_back(std::move(segment));
  }
  return segments;
}

std::string to_string(const VersionId& version) {
  // Appended, not operator+: GCC 12 at -O3 raises a false -Wrestrict on a
  // chain that starts with `"<" + std::string&&`.
  std::string out = "<";
  out.append(std::to_string(version.client_id)).append(",");
  return out.append(std::to_string(version.counter)).append(">");
}

std::string_view to_string(OpKind kind) {
  switch (kind) {
    case OpKind::create: return "create";
    case OpKind::mkdir: return "mkdir";
    case OpKind::rmdir: return "rmdir";
    case OpKind::unlink: return "unlink";
    case OpKind::rename: return "rename";
    case OpKind::link: return "link";
    case OpKind::truncate: return "truncate";
    case OpKind::write: return "write";
    case OpKind::file_delta: return "file_delta";
    case OpKind::full_file: return "full_file";
    case OpKind::recon_query: return "recon_query";
  }
  return "unknown";
}

Bytes encode(const SyncRecord& record) {
  Bytes wire;
  encode_into(record, wire);
  return wire;
}

void encode_into(const SyncRecord& record, Bytes& wire) {
  // Every field below except the two paths and the payload: 80 bytes.  A
  // short reserve regrows the frame at its tail, doubling the buffer and
  // copying a multi-MiB payload a second time.
  constexpr std::size_t kFixedBytes = 80;
  wire.reserve(wire.size() + kFixedBytes + record.path.size() +
               record.path2.size() + record.payload.size());
  put_u64(wire, record.sequence);
  wire.push_back(static_cast<std::uint8_t>(record.kind));
  put_string(wire, record.path);
  put_string(wire, record.path2);
  put_u64(wire, record.offset);
  put_u64(wire, record.size);
  put_u32(wire, static_cast<std::uint32_t>(record.payload.size()));
  append(wire, record.payload);
  put_version(wire, record.base_version);
  put_version(wire, record.new_version);
  put_u64(wire, record.txn_group);
  wire.push_back(record.txn_last ? 1 : 0);
  wire.push_back(record.base_deleted ? 1 : 0);
  wire.push_back(record.compressed ? 1 : 0);
  put_u64(wire, record.trace_id);
}

Result<SyncRecord> decode_record(ByteSpan wire) {
  SyncRecord record;
  std::size_t pos = 0;
  if (wire.size() < 9) return Status{Errc::corruption, "record too short"};
  record.sequence = get_u64(wire, pos);
  pos += 8;
  const std::uint8_t kind = wire[pos++];
  if (kind < static_cast<std::uint8_t>(OpKind::create) ||
      kind > static_cast<std::uint8_t>(OpKind::recon_query) ||
      kind == kRetiredBundleKind) {
    return Status{Errc::corruption, "record kind unknown"};
  }
  record.kind = static_cast<OpKind>(kind);
  if (!get_string(wire, pos, record.path) ||
      !get_string(wire, pos, record.path2)) {
    return Status{Errc::corruption, "record paths truncated"};
  }
  if (pos + 16 > wire.size()) return Status{Errc::corruption, "record truncated"};
  record.offset = get_u64(wire, pos);
  record.size = get_u64(wire, pos + 8);
  pos += 16;
  if (!get_bytes(wire, pos, record.payload)) {
    return Status{Errc::corruption, "record payload truncated"};
  }
  if (!get_version(wire, pos, record.base_version) ||
      !get_version(wire, pos, record.new_version)) {
    return Status{Errc::corruption, "record versions truncated"};
  }
  if (pos + 19 > wire.size()) {
    return Status{Errc::corruption, "record tail truncated"};
  }
  record.txn_group = get_u64(wire, pos);
  record.txn_last = wire[pos + 8] != 0;
  record.base_deleted = wire[pos + 9] != 0;
  record.compressed = wire[pos + 10] != 0;
  record.trace_id = get_u64(wire, pos + 11);
  return record;
}

Bytes encode(const Ack& ack) {
  Bytes wire;
  encode_into(ack, wire);
  return wire;
}

void encode_into(const Ack& ack, Bytes& wire) {
  put_u64(wire, ack.sequence);
  wire.push_back(static_cast<std::uint8_t>(ack.result));
  put_version(wire, ack.server_version);
  put_string(wire, ack.conflict_path);
  put_u64(wire, ack.trace_id);
}

Result<Ack> decode_ack(ByteSpan wire) {
  if (wire.size() < 9) return Status{Errc::corruption, "ack too short"};
  Ack ack;
  std::size_t pos = 0;
  ack.sequence = get_u64(wire, pos);
  pos += 8;
  ack.result = static_cast<Errc>(wire[pos++]);
  if (!get_version(wire, pos, ack.server_version)) {
    return Status{Errc::corruption, "ack version truncated"};
  }
  if (!get_string(wire, pos, ack.conflict_path)) {
    return Status{Errc::corruption, "ack path truncated"};
  }
  if (pos + 8 > wire.size()) {
    return Status{Errc::corruption, "ack trace id truncated"};
  }
  ack.trace_id = get_u64(wire, pos);
  return ack;
}

// ---- Recon rounds -----------------------------------------------------

Bytes encode(const ReconRequest& request) {
  Bytes wire;
  wire.reserve(64 + request.regions.size() * 16);
  put_u64(wire, request.session);
  put_u32(wire, request.round);
  wire.push_back(static_cast<std::uint8_t>(request.want));
  put_u64(wire, request.minimum);
  put_u64(wire, request.average);
  put_u64(wire, request.maximum);
  put_u32(wire, request.block_size);
  put_u32(wire, static_cast<std::uint32_t>(request.regions.size()));
  for (const rsyncx::recon::Region& region : request.regions) {
    put_u64(wire, region.offset);
    put_u64(wire, region.length);
  }
  return wire;
}

Result<ReconRequest> decode_recon_request(ByteSpan wire) {
  // Fixed head: 8+4+1+8+8+8+4+4 = 45 bytes.
  if (wire.size() < 45) {
    return Status{Errc::corruption, "recon request too short"};
  }
  ReconRequest request;
  std::size_t pos = 0;
  request.session = get_u64(wire, pos);
  pos += 8;
  request.round = get_u32(wire, pos);
  pos += 4;
  const std::uint8_t want = wire[pos++];
  if (want > 1) return Status{Errc::corruption, "recon request bad want"};
  request.want = static_cast<ReconRequest::Want>(want);
  request.minimum = get_u64(wire, pos);
  request.average = get_u64(wire, pos + 8);
  request.maximum = get_u64(wire, pos + 16);
  pos += 24;
  request.block_size = get_u32(wire, pos);
  pos += 4;
  const std::uint32_t count = get_u32(wire, pos);
  pos += 4;
  // Each region is 16 bytes: larger counts cannot fit the frame.
  if (count > (wire.size() - pos) / 16) {
    return Status{Errc::corruption, "recon region count implausible"};
  }
  request.regions.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    rsyncx::recon::Region region;
    region.offset = get_u64(wire, pos);
    region.length = get_u64(wire, pos + 8);
    pos += 16;
    request.regions.push_back(region);
  }
  return request;
}

Bytes encode(const ReconResponse& response) {
  Bytes wire;
  encode_into(response, wire);
  return wire;
}

void encode_into(const ReconResponse& response, Bytes& wire) {
  wire.reserve(wire.size() + 64 + response.shingles.size() * 24);
  put_u64(wire, response.session);
  put_u32(wire, response.round);
  wire.push_back(static_cast<std::uint8_t>(response.result));
  put_version(wire, response.base);
  wire.push_back(response.base_deleted ? 1 : 0);
  put_u64(wire, response.base_size);
  put_u64(wire, response.trace_id);
  put_u32(wire, static_cast<std::uint32_t>(response.shingles.size()));
  for (const rsyncx::recon::Shingle& shingle : response.shingles) {
    put_u64(wire, shingle.offset);
    put_u64(wire, shingle.length);
    put_u64(wire, shingle.hash);
  }
  put_u32(wire, static_cast<std::uint32_t>(response.signatures.size()));
  for (const rsyncx::recon::RegionSignature& sig : response.signatures) {
    put_u64(wire, sig.region.offset);
    put_u64(wire, sig.region.length);
    put_u32(wire, sig.signature.block_size);
    put_u64(wire, sig.signature.file_size);
    put_u32(wire, static_cast<std::uint32_t>(sig.signature.weak.size()));
    for (const std::uint32_t weak : sig.signature.weak) put_u32(wire, weak);
    for (const Md5::Digest& strong : sig.signature.strong) {
      append(wire, ByteSpan{strong.data(), strong.size()});
    }
  }
}

Result<ReconResponse> decode_recon_response(ByteSpan wire) {
  // Fixed head: 8+4+1+12+1+8+8+4 = 46 bytes (second count follows later).
  if (wire.size() < 46) {
    return Status{Errc::corruption, "recon response too short"};
  }
  ReconResponse response;
  std::size_t pos = 0;
  response.session = get_u64(wire, pos);
  pos += 8;
  response.round = get_u32(wire, pos);
  pos += 4;
  response.result = static_cast<Errc>(wire[pos++]);
  if (!get_version(wire, pos, response.base)) {
    return Status{Errc::corruption, "recon response version truncated"};
  }
  response.base_deleted = wire[pos++] != 0;
  response.base_size = get_u64(wire, pos);
  response.trace_id = get_u64(wire, pos + 8);
  pos += 16;
  const std::uint32_t shingle_count = get_u32(wire, pos);
  pos += 4;
  // Each shingle is 24 bytes on the wire.
  if (shingle_count > (wire.size() - pos) / 24) {
    return Status{Errc::corruption, "recon shingle count implausible"};
  }
  response.shingles.reserve(shingle_count);
  for (std::uint32_t i = 0; i < shingle_count; ++i) {
    rsyncx::recon::Shingle shingle;
    shingle.offset = get_u64(wire, pos);
    shingle.length = get_u64(wire, pos + 8);
    shingle.hash = get_u64(wire, pos + 16);
    pos += 24;
    response.shingles.push_back(shingle);
  }
  if (pos + 4 > wire.size()) {
    return Status{Errc::corruption, "recon signature count truncated"};
  }
  const std::uint32_t sig_count = get_u32(wire, pos);
  pos += 4;
  // Each region signature carries a 32-byte header at minimum.
  if (sig_count > (wire.size() - pos) / 32 + 1) {
    return Status{Errc::corruption, "recon signature count implausible"};
  }
  response.signatures.reserve(sig_count);
  for (std::uint32_t i = 0; i < sig_count; ++i) {
    if (pos + 32 > wire.size()) {
      return Status{Errc::corruption, "recon signature header truncated"};
    }
    rsyncx::recon::RegionSignature sig;
    sig.region.offset = get_u64(wire, pos);
    sig.region.length = get_u64(wire, pos + 8);
    sig.signature.block_size = get_u32(wire, pos + 16);
    sig.signature.file_size = get_u64(wire, pos + 20);
    const std::uint32_t blocks = get_u32(wire, pos + 28);
    pos += 32;
    // Each block contributes 4 weak + 16 strong bytes.
    if (blocks > (wire.size() - pos) / 20) {
      return Status{Errc::corruption, "recon block count implausible"};
    }
    sig.signature.has_strong = true;
    sig.signature.weak.reserve(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      sig.signature.weak.push_back(get_u32(wire, pos));
      pos += 4;
    }
    sig.signature.strong.reserve(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      Md5::Digest digest;
      std::copy_n(wire.data() + pos, digest.size(), digest.begin());
      pos += digest.size();
      sig.signature.strong.push_back(digest);
    }
    response.signatures.push_back(std::move(sig));
  }
  return response;
}

}  // namespace dcfs::proto
