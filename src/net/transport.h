// Simulated client<->cloud transport.
//
// Stand-in for the paper's EC2/WAN testbed: an in-process duplex frame
// queue with byte-exact traffic accounting and a bandwidth/latency profile.
// Frames are opaque byte vectors (encoded proto messages, sent as they are
// encoded); every frame pays a fixed framing overhead (TCP/TLS headers)
// like the real deployment.  The traffic meter and the NetProfile's
// wire-time model therefore see exactly the bytes that would cross the
// network.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/bytes.h"
#include "common/clock.h"
#include "metrics/traffic.h"
#include "obs/obs.h"

namespace dcfs {

/// Link characteristics of a deployment environment.
struct NetProfile {
  std::uint64_t up_bytes_per_sec = 0;
  std::uint64_t down_bytes_per_sec = 0;
  Duration rtt = 0;
  std::uint64_t frame_overhead = 66;  ///< TCP/IP + TLS record framing

  /// Broadband PC on WAN (the EC2 pair).
  static NetProfile pc_wan() noexcept {
    return {.up_bytes_per_sec = 12'500'000,    // 100 Mbit/s
            .down_bytes_per_sec = 12'500'000,
            .rtt = milliseconds(40),
            .frame_overhead = 66};
  }

  /// Cellular mobile uplink (the Note3 experiments: paper notes "the
  /// bandwidth of wide area network is very low" for the phone).
  static NetProfile mobile_wan() noexcept {
    return {.up_bytes_per_sec = 500'000,       // ~4 Mbit/s up
            .down_bytes_per_sec = 1'500'000,
            .rtt = milliseconds(80),
            .frame_overhead = 66};
  }

  /// Time to push `bytes` through the uplink (excluding rtt).
  [[nodiscard]] Duration upload_time(std::uint64_t bytes) const noexcept {
    if (up_bytes_per_sec == 0) return 0;
    return static_cast<Duration>(bytes * 1'000'000 / up_bytes_per_sec);
  }

  [[nodiscard]] Duration download_time(std::uint64_t bytes) const noexcept {
    if (down_bytes_per_sec == 0) return 0;
    return static_cast<Duration>(bytes * 1'000'000 / down_bytes_per_sec);
  }
};

/// One client's duplex link to the cloud.  Single-threaded by design: the
/// trace replayer drives client and server alternately in virtual time.
class Transport {
 public:
  explicit Transport(NetProfile profile, obs::Obs* obs = nullptr)
      : profile_(profile) {
    if (obs != nullptr) {
      upload_wire_us_ = &obs->registry.histogram("net.upload_wire_us");
      download_wire_us_ = &obs->registry.histogram("net.download_wire_us");
    }
  }

  // ---- client side ----

  /// Queues a frame for the server; accounts upstream traffic (attributed
  /// to `type`) and returns the modeled wire time for this frame.
  Duration client_send(Bytes frame,
                       proto::MessageType type = proto::MessageType::other);
  /// Next frame the server pushed down, if any.
  std::optional<Bytes> client_poll();
  /// Every frame the server pushed down, in arrival order; none remain.
  std::deque<Bytes> client_poll_all();

  // ---- server side ----

  Duration server_send(Bytes frame,
                       proto::MessageType type = proto::MessageType::other);
  std::optional<Bytes> server_poll();

  [[nodiscard]] const TrafficMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] const NetProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] bool idle() const noexcept {
    return to_server_.empty() && to_client_.empty();
  }

  void reset_meter() noexcept { meter_.reset(); }

 private:
  NetProfile profile_;
  TrafficMeter meter_;
  std::deque<Bytes> to_server_;
  std::deque<Bytes> to_client_;
  obs::Histogram* upload_wire_us_ = nullptr;
  obs::Histogram* download_wire_us_ = nullptr;
};

}  // namespace dcfs
