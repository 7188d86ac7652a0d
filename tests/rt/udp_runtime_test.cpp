// The protocol stack over lossy UDP sockets (rt/udp_transport.h).
//
// The acceptance property of the fourth Transport backend — and the most
// adversarial one: the same sans-io Shim/GossipServer/Interpreter code,
// now on real datagram sockets with the in-path fault injector actively
// dropping, reordering and duplicating wire traffic, still satisfies the
// paper's convergence claims — identical joint DAG everywhere (Lemma
// 3.7), identical digest_of interpretation of every block (Lemma 4.2),
// BRB totality, per-sender FIFO. The userspace reliability layer
// (net/datagram.h) is what closes the gap, and every test asserts its
// counters moved: injected losses really happened AND retransmission
// really recovered them — a silent no-op of either side fails the test.
// Run under ThreadSanitizer in CI (BUILDING.md).
//
// Ephemeral ports (base_port = 0) keep parallel ctest runs collision-free.
#include "rt/udp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "protocols/brb.h"
#include "protocols/fifo_brb.h"
#include "rt/threaded_runtime.h"
#include "testing/mailbox_rig.h"

namespace blockdag {
namespace {

using rt::LinkFault;
using rt::ThreadedConfig;
using rt::ThreadedRuntime;
using rt::TransportBackend;

ThreadedConfig udp_config(std::uint32_t n) {
  ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.pacing.interval = sim_ms(2);         // 2ms real-time beats
  cfg.gossip.fwd_retry_delay = sim_ms(5);  // quick FWD recovery
  cfg.seed = 11;
  cfg.backend = TransportBackend::kUdp;    // base_port 0: ephemeral
  cfg.udp.fault_seed = 77;
  // Aggressive recovery so injected loss costs milliseconds, not the
  // default human-scale RTOs.
  cfg.udp.channel.initial_rto_ns = 5'000'000;
  cfg.udp.channel.max_rto_ns = 80'000'000;
  return cfg;
}

void expect_identical_digests(ThreadedRuntime& runtime, std::uint32_t n) {
  // Lemma 3.7: identical joint DAG everywhere; Lemma 4.2: identical
  // interpretation of every block everywhere.
  const Bytes dag0 = runtime.dag_digest(0);
  const Bytes interp0 = runtime.interpretation_digest(0);
  EXPECT_FALSE(dag0.empty());
  for (ServerId s = 1; s < n; ++s) {
    EXPECT_EQ(runtime.dag_digest(s), dag0) << "server " << s;
    EXPECT_EQ(runtime.interpretation_digest(s), interp0) << "server " << s;
  }
}

TEST(UdpRuntime, ConvergesUnderSeededLossReorderAndDuplication) {
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  ThreadedConfig cfg = udp_config(n);
  // Every directed link hostile from the first datagram: 20% loss plus
  // reordering and duplication. Applies to data and acks alike.
  cfg.udp.default_fault.drop = 0.20;
  cfg.udp.default_fault.reorder = 0.25;
  cfg.udp.default_fault.duplicate = 0.10;
  ThreadedRuntime runtime(factory, cfg);
  ASSERT_NE(runtime.udp(), nullptr);
  ASSERT_TRUE(runtime.udp()->ok());
  runtime.start();

  for (ServerId s = 0; s < n; ++s) {
    runtime.request(s, 1 + s,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(s)}));
  }

  // Note: the faults stay active through convergence — retransmission,
  // not healing, is what closes the DAGs.
  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_identical_digests(runtime, n);

  // BRB totality at quiesce: every broadcast delivered at every server.
  for (ServerId s = 0; s < n; ++s) {
    EXPECT_EQ(runtime.indicated_count(1 + s), n) << "label " << 1 + s;
  }
  EXPECT_GT(runtime.total_blocks_inserted(), 0u);

  // The adversary really acted and the reliability layer really answered:
  // datagrams were dropped/duplicated in path, RTOs expired and re-sent,
  // the dedup window absorbed the duplicates, and none of it corrupted a
  // frame stream.
  const rt::UdpStats stats = runtime.udp()->stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_GT(stats.frames_received, 0u);
  EXPECT_GT(stats.acks_received, 0u);
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.injected_dups, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.corrupt_streams, 0u);
  EXPECT_EQ(stats.malformed_dropped, 0u);
  EXPECT_GT(runtime.wire_metrics().messages[static_cast<std::size_t>(WireKind::kBlock)],
            0u);

  // Per-peer accounting (the TcpStats pattern, per directed link): every
  // link carried traffic, and the aggregate equals the sum of its parts.
  std::uint64_t link_retransmits = 0;
  std::uint64_t link_drops = 0;
  for (ServerId a = 0; a < n; ++a) {
    for (ServerId b = 0; b < n; ++b) {
      if (a == b) continue;
      const rt::UdpLinkStats link = runtime.udp()->link_stats(a, b);
      EXPECT_GT(link.datagrams_sent, 0u) << "link " << a << "→" << b;
      EXPECT_GT(link.chunks_delivered, 0u) << "link " << a << "→" << b;
      link_retransmits += link.retransmits;
      link_drops += link.injected_drops;
    }
  }
  EXPECT_EQ(link_retransmits, stats.retransmits);
  EXPECT_EQ(link_drops, stats.injected_drops);
  EXPECT_GT(link_retransmits, 0u);
}

TEST(UdpRuntime, DelayedDatagramsSettleBeforeConvergenceSamples) {
  // The link-settle rule (rt/link_layer.h) under injected 1–8ms delays:
  // every frame between two hosted servers counts as outstanding work from
  // packing until its receiver's mailbox has it, so each convergence round
  // drains exactly — no fixed beat has to outlast the delay.
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  ThreadedConfig cfg = udp_config(n);
  cfg.udp.default_fault.delay_min_us = 1000;
  cfg.udp.default_fault.delay_max_us = 8000;
  ThreadedRuntime runtime(factory, cfg);
  ASSERT_TRUE(runtime.udp()->ok());
  runtime.start();
  for (ServerId s = 0; s < n; ++s) {
    runtime.request(s, 1 + s,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(s)}));
  }

  ASSERT_TRUE(runtime.quiesce_and_converge());
  EXPECT_TRUE(runtime.udp()->links_settled());
  expect_identical_digests(runtime, n);
  for (ServerId s = 0; s < n; ++s) {
    EXPECT_EQ(runtime.indicated_count(1 + s), n) << "label " << 1 + s;
  }
  EXPECT_GT(runtime.udp()->stats().injected_delays, 0u);
}

TEST(UdpRuntime, FifoOrderPreservedAcrossDuplicatedAndReorderedDatagrams) {
  // Per-sender FIFO is carried inside blocks; duplicated and reordered
  // datagrams must be absorbed by the channel layer (dedup window +
  // in-order delivery into the FrameDecoder) before the protocol ever
  // sees a payload — so order survives an actively hostile wire.
  fifo::FifoBrbFactory factory;
  const std::uint32_t n = 4;
  ThreadedConfig cfg = udp_config(n);
  cfg.udp.default_fault.duplicate = 0.35;
  cfg.udp.default_fault.reorder = 0.35;
  cfg.udp.default_fault.delay_min_us = 100;
  cfg.udp.default_fault.delay_max_us = 2000;
  ThreadedRuntime runtime(factory, cfg);
  ASSERT_TRUE(runtime.udp()->ok());
  runtime.start();

  constexpr int kMessages = 5;
  for (int i = 0; i < kMessages; ++i) {
    runtime.request(0, 1, fifo::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  ASSERT_TRUE(runtime.quiesce_and_converge());

  for (ServerId s = 0; s < n; ++s) {
    const auto payloads = runtime.call(s, [](Shim& shim) {
      std::vector<Bytes> out;
      for (const UserIndication& ind : shim.indications()) {
        if (ind.label == 1) out.push_back(ind.indication);
      }
      return out;
    });
    ASSERT_EQ(payloads.size(), static_cast<std::size_t>(kMessages)) << "server " << s;
    for (int i = 0; i < kMessages; ++i) {
      const auto delivered = fifo::parse_deliver(payloads[i]);
      ASSERT_TRUE(delivered.has_value());
      EXPECT_EQ(delivered->value, Bytes{static_cast<std::uint8_t>(i)})
          << "server " << s << " position " << i;
    }
  }

  // Duplication really exercised the dedup window.
  const rt::UdpStats stats = runtime.udp()->stats();
  EXPECT_GT(stats.injected_dups, 0u);
  EXPECT_GT(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.corrupt_streams, 0u);
}

TEST(UdpRuntime, BlackholeAndHealConvergesViaResetAndFwdRecovery) {
  // The datagram analogue of a TCP connection kill, held long enough to
  // exhaust the retransmit budget: server 0 is partitioned away mid-run,
  // its channels reset (epoch bump, queued frames dropped — transient
  // loss), and after healing the gossip FWD path must still converge the
  // cluster. This is the delivery-contract boundary: what dies in a
  // blackholed channel is exactly what dies in a dead TCP kernel buffer.
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  ThreadedConfig cfg = udp_config(n);
  cfg.udp.channel.max_retransmits = 4;  // reset after ~5+10+20+40ms of silence
  ThreadedRuntime runtime(factory, cfg);
  ASSERT_TRUE(runtime.udp()->ok());
  runtime.start();

  // Phase 1: clean traffic on all links.
  runtime.request(0, 1, brb::make_broadcast(Bytes{0xa0}));
  runtime.request(1, 2, brb::make_broadcast(Bytes{0xa1}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Phase 2: cut server 0 off while dissemination beats keep landing on
  // its links, long enough that retransmit budgets exhaust and channels
  // reset with frames queued.
  runtime.udp()->set_partition({0}, {1, 2, 3}, true);
  for (int round = 0; round < 4; ++round) {
    runtime.request(round % n, 10 + round,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(round)}));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }

  // Phase 3: heal and converge.
  runtime.udp()->set_partition({0}, {1, 2, 3}, false);
  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_identical_digests(runtime, n);
  for (const Label label :
       {Label{1}, Label{2}, Label{10}, Label{11}, Label{12}, Label{13}}) {
    EXPECT_EQ(runtime.indicated_count(label), n) << "label " << label;
  }

  // The blackhole really swallowed datagrams and really broke channels —
  // recovery came from resets + FWD, not from luck.
  const rt::UdpStats stats = runtime.udp()->stats();
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.channel_resets, 0u);
  EXPECT_GT(stats.retransmits, 0u);
}

TEST(UdpRuntime, StopAndShutdownAreCleanUnderActiveFaults) {
  // Start, inject under loss, shut down without converging: no hangs
  // (frames stuck in retransmission must be released to the idle
  // accounting on teardown), no leaks (Asan), no teardown races against
  // the poll thread (Tsan).
  brb::BrbFactory factory;
  ThreadedConfig cfg = udp_config(4);
  cfg.udp.default_fault.drop = 0.5;
  cfg.udp.default_fault.delay_min_us = 1000;
  cfg.udp.default_fault.delay_max_us = 5000;
  ThreadedRuntime runtime(factory, cfg);
  ASSERT_TRUE(runtime.udp()->ok());
  runtime.start();
  runtime.request(0, 1, brb::make_broadcast(Bytes{1}));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  runtime.stop();
  runtime.shutdown();  // idempotent with the destructor's shutdown
}

TEST(UdpRuntime, BindFailureIsReportedNotFatal) {
  // Two clusters on the same fixed base port: the second must report the
  // bind failure through ok() so a driver can pick another port.
  brb::BrbFactory factory;
  ThreadedConfig first = udp_config(2);
  first.udp.base_port = 0;
  ThreadedRuntime a(factory, first);
  ASSERT_TRUE(a.udp()->ok());

  ThreadedConfig second = udp_config(2);
  second.udp.base_port = a.udp()->port_of(0);  // already taken by `a`
  ThreadedRuntime b(factory, second);
  EXPECT_FALSE(b.udp()->ok());
}

TEST(UdpRuntime, SendManyCoalescesIntoKBatchFramesOverASocket) {
  // One send_many of 256 envelopes stages them together, so the next pump
  // must pack them into kBatch frames — each one reliability-layer frame
  // over the real socket — that arrive exactly once each, in send order.
  constexpr std::uint32_t kEnvelopes = 256;
  testing::MailboxRig rig(2);
  rt::UdpConfig cfg;
  cfg.n_servers = 2;
  rt::UdpTransport transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  std::vector<std::pair<ServerId, std::uint32_t>> got;  // server 1's thread
  std::atomic<std::uint32_t> arrived{0};
  transport.attach(1, [&](ServerId from, const Bytes& payload) {
    got.emplace_back(from, testing::envelope_number(payload));
    arrived.fetch_add(1);
  });
  transport.start();
  std::vector<Envelope> envelopes;
  for (std::uint32_t i = 0; i < kEnvelopes; ++i) {
    envelopes.push_back(
        {WireKind::kBlock,
         std::make_shared<const Bytes>(testing::numbered_envelope(i))});
  }
  transport.send_many(0, 1, envelopes);
  EXPECT_TRUE(testing::wait_until([&] { return arrived.load() >= kEnvelopes; },
                                  std::chrono::seconds(10)));
  transport.stop();
  rig.join();

  ASSERT_EQ(got.size(), kEnvelopes);
  for (std::uint32_t i = 0; i < kEnvelopes; ++i) {
    EXPECT_EQ(got[i], std::make_pair(ServerId{0}, i));
  }
  const rt::UdpStats stats = transport.stats();
  EXPECT_GT(stats.batches_sent, 0u);
  EXPECT_EQ(stats.batches_received, stats.batches_sent);
  EXPECT_EQ(stats.batched_envelopes_received, stats.batched_envelopes);
  EXPECT_EQ(stats.batch_decode_failures, 0u);
}

TEST(UdpRuntime, CountersSurviveStop) {
  // Retransmits, resets, dedup hits, injected faults and the channels'
  // dropped frames must read the same after stop() as before it: post-run
  // diagnostics read them after teardown.
  testing::MailboxRig rig(2);
  rt::UdpConfig cfg;
  cfg.n_servers = 2;
  // Fast RTOs: the blackhole below exhausts the default retransmit budget
  // in well under 100 ms.
  cfg.channel.initial_rto_ns = 1'000'000;
  cfg.channel.max_rto_ns = 8'000'000;
  rt::UdpTransport transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  std::atomic<std::uint32_t> arrived{0};
  transport.attach(1, [&](ServerId, const Bytes&) { arrived.fetch_add(1); });
  LinkFault lossy;
  lossy.drop = 0.3;
  lossy.duplicate = 0.3;
  transport.set_link_fault(0, 1, lossy);
  transport.start();

  // Phase 1: loss and duplication on 0 → 1, recovered by retransmission.
  // 1000-byte envelopes, so their frames span many datagrams.
  constexpr std::uint32_t kEnvelopes = 64;
  Bytes body(1000, 0xab);
  body[0] = static_cast<std::uint8_t>(WireKind::kBlock);
  for (std::uint32_t i = 0; i < kEnvelopes; ++i) {
    transport.send(0, 1, WireKind::kBlock, body);
  }
  ASSERT_TRUE(testing::wait_until([&] { return arrived.load() >= kEnvelopes; },
                                  std::chrono::seconds(10)));
  // Phase 2: a blackhole exhausts the retransmit budget, so the channel
  // resets and drops its queued frames.
  transport.set_partition({0}, {1}, true);
  transport.send(0, 1, WireKind::kBlock, testing::numbered_envelope(kEnvelopes));
  ASSERT_TRUE(testing::wait_until(
      [&] { return transport.stats().channel_resets > 0; },
      std::chrono::seconds(10)));

  const rt::UdpStats before = transport.stats();
  const rt::UdpLinkStats link_before = transport.link_stats(0, 1);
  const std::uint64_t dropped_before = transport.wire_metrics().dropped;
  EXPECT_GT(before.retransmits, 0u);
  EXPECT_GT(before.injected_drops, 0u);
  EXPECT_GT(before.injected_dups, 0u);
  EXPECT_GT(link_before.chunks_delivered, 0u);
  EXPECT_GT(dropped_before, 0u);

  transport.stop();
  rig.join();
  // Counters only grow while the poll thread runs on until stop() joins it.
  const rt::UdpStats after = transport.stats();
  const rt::UdpLinkStats link_after = transport.link_stats(0, 1);
  EXPECT_GE(after.retransmits, before.retransmits);
  EXPECT_GE(after.channel_resets, before.channel_resets);
  EXPECT_GE(after.duplicates_dropped, before.duplicates_dropped);
  EXPECT_GE(after.injected_drops, before.injected_drops);
  EXPECT_GE(after.injected_dups, before.injected_dups);
  EXPECT_GE(after.injected_delays, before.injected_delays);
  EXPECT_GE(link_after.retransmits, link_before.retransmits);
  EXPECT_GE(link_after.channel_resets, link_before.channel_resets);
  EXPECT_GE(link_after.injected_drops, link_before.injected_drops);
  EXPECT_GE(link_after.datagrams_sent, link_before.datagrams_sent);
  EXPECT_GE(link_after.chunks_delivered, link_before.chunks_delivered);
  EXPECT_GE(transport.wire_metrics().dropped, dropped_before);
  EXPECT_EQ(rig.idle().count(), 0u);
}

TEST(UdpRuntime, BroadcastAfterStopDropsOneEnvelopePerPeer) {
  testing::MailboxRig rig(4);
  rt::UdpConfig cfg;
  cfg.n_servers = 4;
  rt::UdpTransport transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  transport.start();
  transport.stop();
  const std::uint64_t before = transport.wire_metrics().dropped;
  transport.broadcast(0, WireKind::kBlock, testing::numbered_envelope(0));
  EXPECT_EQ(transport.wire_metrics().dropped - before, 3u);
}

}  // namespace
}  // namespace blockdag
