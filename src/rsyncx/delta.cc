#include "rsyncx/delta.h"

#include <cstring>

#include "common/checksum.h"
#include "rsyncx/match.h"

namespace dcfs::rsyncx {

using detail::charge;

std::uint64_t Delta::literal_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Command& cmd : commands) {
    if (cmd.kind == Command::Kind::literal) total += cmd.data.size();
  }
  return total;
}

std::uint64_t Delta::copied_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Command& cmd : commands) {
    if (cmd.kind == Command::Kind::copy) total += cmd.length;
  }
  return total;
}

std::uint64_t Delta::wire_size() const noexcept {
  std::uint64_t total = 24;  // header: sizes + command count
  for (const Command& cmd : commands) {
    total += cmd.kind == Command::Kind::copy ? 17 : 5 + cmd.data.size();
  }
  return total;
}

Signature compute_signature(ByteSpan base, std::uint32_t block_size,
                            bool with_strong, CostMeter* meter) {
  Signature signature;
  signature.block_size = block_size;
  signature.file_size = base.size();
  signature.has_strong = with_strong;
  const std::size_t blocks = base.size() / block_size +
                             (base.size() % block_size != 0 ? 1 : 0);
  signature.weak.reserve(blocks);
  if (with_strong) signature.strong.reserve(blocks);

  charge(meter, CostKind::rolling_hash, base.size());
  if (with_strong) charge(meter, CostKind::strong_hash, base.size());

  for (std::size_t offset = 0; offset < base.size(); offset += block_size) {
    const std::size_t length =
        std::min<std::size_t>(block_size, base.size() - offset);
    const ByteSpan block = base.subspan(offset, length);
    signature.weak.push_back(weak_checksum(block));
    if (with_strong) signature.strong.push_back(Md5::hash(block));
  }
  return signature;
}

Delta compute_delta(const Signature& base_signature, ByteSpan target,
                    CostMeter* meter) {
  return detail::match_blocks(base_signature, target, meter,
                              detail::strong_confirm(base_signature));
}

Delta compute_delta_local(ByteSpan base, ByteSpan target,
                          std::uint32_t block_size, CostMeter* meter) {
  // Weak-only signature: the expensive MD5 pass over the base is skipped.
  const Signature signature =
      compute_signature(base, block_size, /*with_strong=*/false, meter);
  return compute_delta_local(signature, base, target, meter);
}

Delta compute_delta_local(const Signature& base_signature, ByteSpan base,
                          ByteSpan target, CostMeter* meter) {
  return detail::match_blocks(base_signature, target, meter,
                              detail::bitwise_confirm(base_signature, base));
}

Result<Bytes> apply_delta(ByteSpan base, const Delta& delta) {
  // Validate the patch before allocating anything: every copy must lie
  // within the base, and the command sizes must add up to target_size
  // (decoded deltas can carry arbitrary numbers).
  std::uint64_t expected = 0;
  for (const Command& cmd : delta.commands) {
    if (cmd.kind == Command::Kind::copy) {
      if (cmd.src_offset > base.size() ||
          cmd.length > base.size() - cmd.src_offset) {
        return Status{Errc::corruption, "copy range exceeds base"};
      }
      expected += cmd.length;
    } else {
      expected += cmd.data.size();
    }
  }
  if (expected != delta.target_size) {
    return Status{Errc::corruption, "reconstructed size mismatch"};
  }

  Bytes out;
  out.reserve(expected);
  for (const Command& cmd : delta.commands) {
    if (cmd.kind == Command::Kind::copy) {
      append(out, base.subspan(cmd.src_offset, cmd.length));
    } else {
      append(out, cmd.data);
    }
  }
  return out;
}

Bytes encode_delta(const Delta& delta) {
  Bytes wire;
  wire.reserve(delta.wire_size());
  put_u64(wire, delta.base_size);
  put_u64(wire, delta.target_size);
  put_u64(wire, delta.commands.size());
  for (const Command& cmd : delta.commands) {
    if (cmd.kind == Command::Kind::copy) {
      wire.push_back(0);
      put_u64(wire, cmd.src_offset);
      put_u64(wire, cmd.length);
    } else {
      wire.push_back(1);
      put_u32(wire, static_cast<std::uint32_t>(cmd.data.size()));
      append(wire, cmd.data);
    }
  }
  return wire;
}

Result<Delta> decode_delta(ByteSpan wire) {
  if (wire.size() < 24) return Status{Errc::corruption, "delta header short"};
  Delta delta;
  delta.base_size = get_u64(wire, 0);
  delta.target_size = get_u64(wire, 8);
  const std::uint64_t count = get_u64(wire, 16);
  std::size_t pos = 24;
  // Never trust a wire count for allocation: each command occupies at
  // least one byte, so anything larger is corrupt anyway.
  if (count > wire.size()) {
    return Status{Errc::corruption, "delta command count implausible"};
  }
  delta.commands.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (pos >= wire.size()) return Status{Errc::corruption, "delta truncated"};
    const std::uint8_t tag = wire[pos++];
    Command cmd;
    if (tag == 0) {
      if (pos + 16 > wire.size()) {
        return Status{Errc::corruption, "copy command truncated"};
      }
      cmd.kind = Command::Kind::copy;
      cmd.src_offset = get_u64(wire, pos);
      cmd.length = get_u64(wire, pos + 8);
      pos += 16;
    } else if (tag == 1) {
      if (pos + 4 > wire.size()) {
        return Status{Errc::corruption, "literal command truncated"};
      }
      const std::uint32_t length = get_u32(wire, pos);
      pos += 4;
      if (pos + length > wire.size()) {
        return Status{Errc::corruption, "literal data truncated"};
      }
      cmd.kind = Command::Kind::literal;
      cmd.data.assign(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                      wire.begin() + static_cast<std::ptrdiff_t>(pos + length));
      pos += length;
    } else {
      return Status{Errc::corruption, "unknown delta command"};
    }
    delta.commands.push_back(std::move(cmd));
  }
  return delta;
}

}  // namespace dcfs::rsyncx
