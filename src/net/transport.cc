#include "net/transport.h"

#include <utility>

namespace dcfs {

Duration Transport::client_send(Bytes frame, proto::MessageType type) {
  const std::uint64_t wire_bytes = frame.size() + profile_.frame_overhead;
  meter_.add_up(wire_bytes, type);
  to_server_.push_back(std::move(frame));
  const Duration wire_time = profile_.upload_time(wire_bytes);
  obs::observe(upload_wire_us_, static_cast<std::uint64_t>(wire_time));
  return wire_time;
}

std::optional<Bytes> Transport::client_poll() {
  if (to_client_.empty()) return std::nullopt;
  Bytes frame = std::move(to_client_.front());
  to_client_.pop_front();
  return frame;
}

std::deque<Bytes> Transport::client_poll_all() {
  return std::exchange(to_client_, {});
}

Duration Transport::server_send(Bytes frame, proto::MessageType type) {
  const std::uint64_t wire_bytes = frame.size() + profile_.frame_overhead;
  meter_.add_down(wire_bytes, type);
  to_client_.push_back(std::move(frame));
  const Duration wire_time = profile_.download_time(wire_bytes);
  obs::observe(download_wire_us_, static_cast<std::uint64_t>(wire_time));
  return wire_time;
}

std::optional<Bytes> Transport::server_poll() {
  if (to_server_.empty()) return std::nullopt;
  Bytes frame = std::move(to_server_.front());
  to_server_.pop_front();
  return frame;
}

}  // namespace dcfs
