#include <gtest/gtest.h>

#include <deque>

#include "net/transport.h"

namespace dcfs {
namespace {

TEST(NetProfileTest, TransferTimes) {
  const NetProfile profile = NetProfile::pc_wan();
  EXPECT_EQ(profile.upload_time(12'500'000), seconds(1));
  EXPECT_EQ(profile.upload_time(0), 0);
  const NetProfile mobile = NetProfile::mobile_wan();
  EXPECT_GT(mobile.upload_time(1 << 20), profile.upload_time(1 << 20));
}

TEST(TransportTest, FramesFlowBothWays) {
  Transport transport(NetProfile::pc_wan());
  EXPECT_TRUE(transport.idle());

  transport.client_send(to_bytes("up1"));
  transport.client_send(to_bytes("up2"));
  EXPECT_FALSE(transport.idle());

  auto frame = transport.server_poll();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(as_text(*frame), "up1");
  frame = transport.server_poll();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(as_text(*frame), "up2");
  EXPECT_FALSE(transport.server_poll().has_value());

  transport.server_send(to_bytes("down"));
  frame = transport.client_poll();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(as_text(*frame), "down");
  EXPECT_TRUE(transport.idle());

  // client_poll_all takes every pending frame at once, in order.
  transport.server_send(to_bytes("down1"));
  transport.server_send(to_bytes("down2"));
  const std::deque<Bytes> frames = transport.client_poll_all();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(as_text(frames[0]), "down1");
  EXPECT_EQ(as_text(frames[1]), "down2");
  EXPECT_TRUE(transport.idle());
  EXPECT_TRUE(transport.client_poll_all().empty());
}

TEST(TransportTest, MeterCountsWireBytesIncludingOverhead) {
  Transport transport(NetProfile::pc_wan());
  const std::uint64_t overhead = transport.profile().frame_overhead;

  transport.client_send(Bytes(100, 'x'));
  EXPECT_EQ(transport.meter().up_bytes(), 100 + overhead);
  EXPECT_EQ(transport.meter().up_messages(), 1u);

  transport.server_send(Bytes(50, 'y'));
  EXPECT_EQ(transport.meter().down_bytes(), 50 + overhead);
  EXPECT_EQ(transport.meter().total_bytes(), 150 + 2 * overhead);

  transport.reset_meter();
  EXPECT_EQ(transport.meter().total_bytes(), 0u);
}

TEST(TransportTest, SendReturnsModeledWireTime) {
  Transport transport(NetProfile::mobile_wan());
  const Duration t = transport.client_send(Bytes(500'000, 'x'));
  EXPECT_GT(t, seconds(1) / 2);  // ~1s at 500 KB/s, minus nothing
}

TEST(TrafficMeterTest, TueComputation) {
  TrafficMeter meter;
  meter.add_up(3000);
  meter.add_down(1000);
  EXPECT_DOUBLE_EQ(meter.tue(1000), 4.0);
  EXPECT_DOUBLE_EQ(meter.tue(0), 0.0);
}

}  // namespace
}  // namespace dcfs
