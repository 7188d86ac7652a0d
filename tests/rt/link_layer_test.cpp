// The socket link layer (rt/link_layer.h) on both backends: admission caps
// on a directed link's egress queue and the drop accounting of stop().
//
// Every case parks envelopes before start(), so nothing reaches a socket
// and each count is exact. Each runs once per backend through the same
// template, because the queue, its caps and the stop path are one code
// path that both TcpTransport and UdpTransport inherit.
#include "rt/link_layer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "rt/tcp_transport.h"
#include "rt/udp_transport.h"
#include "testing/mailbox_rig.h"

namespace blockdag {
namespace {

// `count` envelopes sharing one immutable payload buffer.
std::vector<Envelope> shared_envelopes(std::size_t count,
                                       const std::shared_ptr<const Bytes>& payload) {
  return std::vector<Envelope>(count, Envelope{WireKind::kBlock, payload});
}

template <typename TransportT, typename ConfigT>
void expect_queued_at_stop_counted_as_dropped() {
  constexpr std::uint64_t kParked = 37;
  testing::MailboxRig rig(3);
  ConfigT cfg;
  cfg.n_servers = 3;
  TransportT transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  for (std::uint32_t i = 0; i < kParked; ++i) {
    transport.send(0, 1 + i % 2, WireKind::kBlock, testing::numbered_envelope(i));
  }
  EXPECT_EQ(rig.idle().count(), kParked);
  const WireMetrics before = transport.wire_metrics();
  EXPECT_EQ(before.total_messages(), kParked);  // charged at admission
  transport.stop();
  EXPECT_EQ(transport.wire_metrics().dropped - before.dropped, kParked);
  EXPECT_EQ(rig.idle().count(), 0u);
  transport.stop();  // idempotent: nothing counted twice
  EXPECT_EQ(transport.wire_metrics().dropped - before.dropped, kParked);
}

template <typename TransportT, typename ConfigT>
void expect_envelope_cap_evicts() {
  constexpr std::size_t kOver = 10;
  constexpr std::size_t kCap = rt::kMaxQueuedEnvelopesPerLink;
  testing::MailboxRig rig(2);
  ConfigT cfg;
  cfg.n_servers = 2;
  TransportT transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  const auto payload =
      std::make_shared<const Bytes>(testing::numbered_envelope(7));
  transport.send_many(0, 1, shared_envelopes(kCap + kOver, payload));

  const auto link = transport.link_stats(0, 1);
  EXPECT_EQ(link.enqueued, kCap);
  EXPECT_EQ(link.evicted, kOver);
  const auto stats = transport.stats();
  EXPECT_EQ(stats.evicted_envelopes, kOver);
  EXPECT_EQ(stats.evicted_bytes, kOver * payload->size());
  EXPECT_EQ(transport.wire_metrics().dropped, kOver);
  EXPECT_EQ(transport.wire_metrics().total_messages(), kCap);
  EXPECT_EQ(transport.link_stats(1, 0).evicted, 0u);  // per directed link
  EXPECT_EQ(rig.idle().count(), kCap);

  transport.stop();
  EXPECT_EQ(transport.wire_metrics().dropped, kCap + kOver);
  EXPECT_EQ(rig.idle().count(), 0u);
}

template <typename TransportT, typename ConfigT>
void expect_byte_budget_evicts() {
  // 1 MiB payloads, all one buffer: the budget trips long before the
  // envelope cap, and the test allocates 1 MiB, not the 64 MiB it queues.
  constexpr std::size_t kPayload = 1u << 20;
  constexpr std::size_t kFit = rt::kMaxQueuedBytesPerLink / kPayload;
  constexpr std::size_t kOver = 6;
  testing::MailboxRig rig(2);
  ConfigT cfg;
  cfg.n_servers = 2;
  TransportT transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  auto big = std::make_shared<Bytes>(kPayload, 0xab);
  (*big)[0] = static_cast<std::uint8_t>(WireKind::kBlock);
  const std::shared_ptr<const Bytes> payload = std::move(big);
  transport.send_many(0, 1, shared_envelopes(kFit + kOver, payload));

  EXPECT_EQ(transport.link_stats(0, 1).enqueued, kFit);
  EXPECT_EQ(transport.link_stats(0, 1).evicted, kOver);
  EXPECT_EQ(transport.stats().evicted_envelopes, kOver);
  EXPECT_EQ(transport.stats().evicted_bytes, kOver * kPayload);
  EXPECT_EQ(transport.wire_metrics().dropped, kOver);
  EXPECT_EQ(rig.idle().count(), kFit);

  transport.stop();
  EXPECT_EQ(transport.wire_metrics().dropped, kFit + kOver);
  EXPECT_EQ(rig.idle().count(), 0u);
}

TEST(LinkLayer, TcpEnvelopesQueuedAtStopCountAsDropped) {
  expect_queued_at_stop_counted_as_dropped<rt::TcpTransport, rt::TcpConfig>();
}

TEST(LinkLayer, UdpEnvelopesQueuedAtStopCountAsDropped) {
  expect_queued_at_stop_counted_as_dropped<rt::UdpTransport, rt::UdpConfig>();
}

TEST(LinkLayer, TcpEnvelopeCapEvictsNewEnvelopes) {
  expect_envelope_cap_evicts<rt::TcpTransport, rt::TcpConfig>();
}

TEST(LinkLayer, UdpEnvelopeCapEvictsNewEnvelopes) {
  expect_envelope_cap_evicts<rt::UdpTransport, rt::UdpConfig>();
}

TEST(LinkLayer, TcpByteBudgetEvictsNewEnvelopes) {
  expect_byte_budget_evicts<rt::TcpTransport, rt::TcpConfig>();
}

TEST(LinkLayer, UdpByteBudgetEvictsNewEnvelopes) {
  expect_byte_budget_evicts<rt::UdpTransport, rt::UdpConfig>();
}

}  // namespace
}  // namespace blockdag
