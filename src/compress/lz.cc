#include "compress/lz.h"

#include <array>
#include <cstring>

namespace dcfs::lz {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Sink writing compressed bytes into a Bytes buffer.
struct BytesSink {
  Bytes& out;
  void put(std::uint8_t byte) { out.push_back(byte); }
  void put_run(const std::uint8_t* data, std::size_t n) {
    out.insert(out.end(), data, data + n);
  }
};

/// Sink that only counts — compressed_size() without the allocation.
struct CountingSink {
  std::size_t size = 0;
  void put(std::uint8_t) { ++size; }
  void put_run(const std::uint8_t*, std::size_t n) { size += n; }
};

template <typename Sink>
void put_varint_run(Sink& out, std::size_t n) {
  // LZ4-style: repeated 255 bytes, terminated by a byte < 255.
  while (n >= 255) {
    out.put(255);
    n -= 255;
  }
  out.put(static_cast<std::uint8_t>(n));
}

/// Reads an LZ4-style extension run; returns false on truncation.
bool get_varint_run(ByteSpan in, std::size_t& pos, std::size_t& n) {
  while (true) {
    if (pos >= in.size()) return false;
    const std::uint8_t byte = in[pos++];
    n += byte;
    if (byte < 255) return true;
  }
}

template <typename Sink>
void emit_sequence(Sink& out, const std::uint8_t* literals,
                   std::size_t literal_count, std::size_t offset,
                   std::size_t match_length) {
  const std::size_t lit_nibble = literal_count < 15 ? literal_count : 15;
  const bool has_match = match_length >= kMinMatch;
  std::size_t match_nibble = 0;
  if (has_match) {
    const std::size_t encoded = match_length - kMinMatch;
    match_nibble = encoded < 15 ? encoded : 15;
  }
  out.put(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) put_varint_run(out, literal_count - 15);
  out.put_run(literals, literal_count);
  if (!has_match) return;
  out.put(static_cast<std::uint8_t>(offset));
  out.put(static_cast<std::uint8_t>(offset >> 8));
  if (match_nibble == 15) put_varint_run(out, match_length - kMinMatch - 15);
}

template <typename Sink>
void compress_to(ByteSpan input, Sink& out) {
  const std::uint8_t* base = input.data();
  const std::size_t size = input.size();

  if (size < kMinMatch + 1) {
    emit_sequence(out, base, size, 0, 0);
    return;
  }

  std::array<std::uint32_t, kHashSize> table{};  // position + 1; 0 = empty

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  const std::size_t match_limit = size - kMinMatch;

  while (pos <= match_limit) {
    const std::uint32_t h = hash4(base + pos);
    const std::uint32_t candidate_plus1 = table[h];
    table[h] = static_cast<std::uint32_t>(pos + 1);

    bool matched = false;
    if (candidate_plus1 != 0) {
      const std::size_t candidate = candidate_plus1 - 1;
      const std::size_t offset = pos - candidate;
      if (offset >= 1 && offset <= kMaxOffset &&
          std::memcmp(base + candidate, base + pos, kMinMatch) == 0) {
        // Extend the match forward.
        std::size_t length = kMinMatch;
        while (pos + length < size &&
               base[candidate + length] == base[pos + length]) {
          ++length;
        }
        emit_sequence(out, base + literal_start, pos - literal_start, offset,
                      length);
        pos += length;
        literal_start = pos;
        matched = true;
      }
    }
    if (!matched) ++pos;
  }

  if (literal_start < size) {
    emit_sequence(out, base + literal_start, size - literal_start, 0, 0);
  } else if (size == 0) {
    emit_sequence(out, base, 0, 0, 0);
  }
}

}  // namespace

Bytes compress(ByteSpan input) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  BytesSink sink{out};
  compress_to(input, sink);
  return out;
}

Status decompress_into(ByteSpan input, Bytes& out, std::size_t max_bytes) {
  out.clear();
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::uint8_t token = input[pos++];
    std::size_t literal_count = token >> 4;
    if (literal_count == 15 && !get_varint_run(input, pos, literal_count)) {
      return Status{Errc::corruption, "truncated literal length"};
    }
    if (pos + literal_count > input.size()) {
      return Status{Errc::corruption, "literal run past end"};
    }
    if (out.size() + literal_count > max_bytes) {
      return Status{Errc::corruption, "decompressed size implausible"};
    }
    out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(pos),
               input.begin() + static_cast<std::ptrdiff_t>(pos + literal_count));
    pos += literal_count;

    if (pos >= input.size()) break;  // final literal-only sequence

    if (pos + 2 > input.size()) {
      return Status{Errc::corruption, "truncated match offset"};
    }
    const std::size_t offset = static_cast<std::size_t>(input[pos]) |
                               static_cast<std::size_t>(input[pos + 1]) << 8;
    pos += 2;
    if (offset == 0 || offset > out.size()) {
      return Status{Errc::corruption, "bad match offset"};
    }
    std::size_t match_length = (token & 0xF);
    if (match_length == 15 && !get_varint_run(input, pos, match_length)) {
      return Status{Errc::corruption, "truncated match length"};
    }
    match_length += kMinMatch;

    if (out.size() + match_length > max_bytes) {
      return Status{Errc::corruption, "decompressed size implausible"};
    }
    // Byte-by-byte copy: overlapping matches (offset < length) are legal.
    std::size_t src = out.size() - offset;
    for (std::size_t i = 0; i < match_length; ++i) {
      out.push_back(out[src + i]);
    }
  }
  return Status::ok();
}

Result<Bytes> decompress(ByteSpan input) {
  Bytes out;
  if (Status status = decompress_into(input, out); !status.is_ok()) {
    return status;
  }
  return out;
}

std::size_t compressed_size(ByteSpan input) {
  CountingSink sink;
  compress_to(input, sink);
  return sink.size;
}

}  // namespace dcfs::lz
