// A small LZ77 compressor with an LZ4-style token format.
//
// The Dropbox baseline compresses sync payloads (the paper suspects Snappy,
// §IV-C); this module provides a real, deterministic compressor so the
// baseline's traffic and CPU numbers reflect genuine compressibility of the
// workload rather than a hard-coded ratio.  DeltaCFS's own compression
// ablation (ClientConfig::compress_uploads) compresses record payloads with
// it too; frames themselves always ship uncompressed.
//
// Format (per sequence):
//   token: high nibble = literal count (15 => varint extension bytes follow),
//          low nibble  = match length - kMinMatch (15 => varint extension)
//   [literal-count extension*] [literals]
//   [2-byte LE offset, 1..65535] [match-length extension*]
// The final sequence may omit the match entirely (input exhausted after the
// literals).
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "common/status.h"

namespace dcfs::lz {

inline constexpr std::size_t kMinMatch = 4;
inline constexpr std::size_t kMaxOffset = 65535;

/// Worst-case compressed size for `input_size` bytes: one giant literal run
/// (token + varint extensions + the literals themselves) plus slack.
constexpr std::size_t max_compressed_size(std::size_t input_size) noexcept {
  return input_size + input_size / 255 + 16;
}

/// Compresses `input`; always succeeds (worst case max_compressed_size()).
Bytes compress(ByteSpan input);

/// Upper bound on accepted decompressed size — malformed or adversarial
/// streams demanding more are rejected instead of exhausting memory.
inline constexpr std::size_t kMaxDecompressedBytes = std::size_t{1} << 31;

/// Decompresses a buffer produced by compress().  Returns
/// Errc::corruption on malformed input or if the output would exceed
/// kMaxDecompressedBytes.
Result<Bytes> decompress(ByteSpan input);

/// Decompresses into `out`, reusing its allocation.  `out` is cleared first.
/// Streams whose output would exceed `max_bytes` are rejected with
/// Errc::corruption before any oversized allocation happens, which makes
/// this the right entry point for untrusted wire frames.
Status decompress_into(ByteSpan input, Bytes& out,
                       std::size_t max_bytes = kMaxDecompressedBytes);

/// Compressed size only, computed with a counting sink — no output buffer
/// is allocated, so ratio accounting (e.g. the Dropbox baseline) costs the
/// match-finding pass and nothing else.
std::size_t compressed_size(ByteSpan input);

}  // namespace dcfs::lz
