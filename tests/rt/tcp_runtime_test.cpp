// The protocol stack over real TCP sockets (rt/tcp_transport.h).
//
// The acceptance property of the third Transport backend: the same
// sans-io Shim/GossipServer/Interpreter code, now moved onto real
// localhost sockets — kernel buffering, stream fragmentation handled by
// net/frame.h, a dedicated poll thread posting complete frames into the
// per-server mailboxes — still satisfies the paper's convergence claims:
// identical joint DAG everywhere (Lemma 3.7), identical digest_of
// interpretation of every block (Lemma 4.2), BRB totality. Plus the
// failure mode sockets add that loopback cannot have: a connection dying
// mid-run loses whatever sat in kernel buffers, and the gossip FWD path
// (Algorithm 1 lines 10–13) must converge the cluster anyway. Run under
// ThreadSanitizer in CI (BUILDING.md).
//
// Ephemeral ports (base_port = 0) keep parallel ctest runs collision-free.
#include "rt/tcp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "protocols/brb.h"
#include "protocols/fifo_brb.h"
#include "rt/threaded_runtime.h"
#include "testing/mailbox_rig.h"

namespace blockdag {
namespace {

using rt::ThreadedConfig;
using rt::ThreadedRuntime;
using rt::TransportBackend;

ThreadedConfig tcp_config(std::uint32_t n) {
  ThreadedConfig cfg;
  cfg.n_servers = n;
  cfg.pacing.interval = sim_ms(2);           // 2ms real-time beats
  cfg.gossip.fwd_retry_delay = sim_ms(5);    // quick FWD recovery
  cfg.seed = 11;
  cfg.backend = TransportBackend::kTcp;      // base_port 0: ephemeral
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

TEST(TcpRuntime, ConvergesToIdenticalDagsAndInterpretationsOverSockets) {
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  ThreadedRuntime runtime(factory, tcp_config(n));
  ASSERT_NE(runtime.tcp(), nullptr);
  ASSERT_TRUE(runtime.tcp()->ok());
  runtime.start();

  for (ServerId s = 0; s < n; ++s) {
    runtime.request(s, 1 + s, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(s)}));
  }

  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_identical_digests(runtime, n);

  // BRB totality at quiesce: every broadcast delivered at every server.
  for (ServerId s = 0; s < n; ++s) {
    EXPECT_EQ(runtime.indicated_count(1 + s), n) << "label " << 1 + s;
  }
  EXPECT_GT(runtime.total_blocks_inserted(), 0u);

  // The payloads really crossed sockets: frames were written, read back
  // and decoded, and n·(n−1) directed links were established.
  const rt::TcpStats stats = runtime.tcp()->stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_GT(stats.frames_received, 0u);
  EXPECT_GE(stats.connects, static_cast<std::uint64_t>(n) * (n - 1));
  EXPECT_EQ(stats.corrupt_streams, 0u);
  EXPECT_GT(runtime.wire_metrics().messages[static_cast<std::size_t>(WireKind::kBlock)],
            0u);
}

TEST(TcpRuntime, FifoOrderPreservedOverSockets) {
  // Per-sender FIFO is carried inside blocks, so stream fragmentation and
  // socket scheduling must not be able to reorder deliveries.
  fifo::FifoBrbFactory factory;
  const std::uint32_t n = 4;
  ThreadedRuntime runtime(factory, tcp_config(n));
  ASSERT_TRUE(runtime.tcp()->ok());
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
}

TEST(TcpRuntime, ReconnectAfterConnectionKillConvergesViaFwdRecovery) {
  // The socket-only failure mode: a TCP connection dies mid-run. Bytes in
  // the dead kernel buffers are gone (transient loss, within Assumption
  // 1); the transport must re-dial, and blocks lost on the wire must come
  // back through the gossip FWD path once later blocks reference them.
  brb::BrbFactory factory;
  const std::uint32_t n = 3;
  ThreadedRuntime runtime(factory, tcp_config(n));
  ASSERT_TRUE(runtime.tcp()->ok());
  runtime.start();

  // Phase 1: traffic flowing on all links.
  runtime.request(0, 1, brb::make_broadcast(Bytes{0xa0}));
  runtime.request(1, 2, brb::make_broadcast(Bytes{0xa1}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Kill the 0↔1 link several times while dissemination beats keep
  // landing on it, so in-flight frames really die with it.
  for (int round = 0; round < 5; ++round) {
    runtime.tcp()->drop_connections(0, 1);
    runtime.request(round % n, 10 + round,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(round)}));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ASSERT_TRUE(runtime.quiesce_and_converge());
  expect_identical_digests(runtime, n);
  for (const Label label : {Label{1}, Label{2}, Label{10}, Label{11}, Label{12},
                            Label{13}, Label{14}}) {
    EXPECT_EQ(runtime.indicated_count(label), n) << "label " << label;
  }

  // The kills really happened and the transport really re-dialed.
  const rt::TcpStats stats = runtime.tcp()->stats();
  EXPECT_GT(stats.resets, 0u);
  EXPECT_GT(stats.dials, static_cast<std::uint64_t>(n) * (n - 1))
      << "re-dials beyond the initial link establishment";
}

TEST(TcpRuntime, ConnectionKilledAfterStopStillSettlesExactly) {
  // The link-settle rule (rt/link_layer.h) across a reset: after stop(),
  // frames still crossing the 0↔1 connections die with them. The reset
  // writes them off, so the drain neither waits on them forever nor
  // settles early; FWD recovery then closes the gap.
  brb::BrbFactory factory;
  const std::uint32_t n = 3;
  ThreadedRuntime runtime(factory, tcp_config(n));
  ASSERT_TRUE(runtime.tcp()->ok());
  runtime.start();
  for (ServerId s = 0; s < n; ++s) {
    runtime.request(s, 1 + s,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(s)}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  runtime.stop();
  runtime.tcp()->drop_connections(0, 1);

  ASSERT_TRUE(runtime.quiesce_and_converge());
  EXPECT_TRUE(runtime.tcp()->links_settled());
  expect_identical_digests(runtime, n);
  for (ServerId s = 0; s < n; ++s) {
    EXPECT_EQ(runtime.indicated_count(1 + s), n) << "label " << 1 + s;
  }
  EXPECT_GT(runtime.tcp()->stats().resets, 0u);
}

TEST(TcpRuntime, ResetWritesOffFramesInFlight) {
  // Connections killed while large frames are still inside kernel
  // buffers: each reset writes off the frames it destroyed, so the idle
  // count drains instead of waiting forever for frames that will never
  // reach the receiver's mailbox.
  testing::MailboxRig rig(2);
  rt::TcpConfig cfg;
  cfg.n_servers = 2;
  rt::TcpTransport transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  transport.attach(1, [](ServerId, const Bytes&) {});
  transport.start();
  Bytes big(48u << 10, 0x5a);  // each frame spans many socket reads
  big[0] = static_cast<std::uint8_t>(WireKind::kBlock);  // envelopes lead with their tag
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 64; ++i) transport.send(0, 1, WireKind::kBlock, big);
    transport.drop_connections(0, 1);
  }
  EXPECT_TRUE(rig.idle().wait_idle(std::chrono::seconds(10)));
  EXPECT_TRUE(transport.links_settled());
  EXPECT_GT(transport.stats().resets, 0u);
  transport.stop();
  rig.join();
}

TEST(TcpRuntime, StopAndShutdownAreClean) {
  // Start, inject, shut down without converging: no hangs, no leaks (Asan
  // covers leaks; Tsan covers teardown races against the poll thread and
  // in-flight timers).
  brb::BrbFactory factory;
  ThreadedRuntime runtime(factory, tcp_config(4));
  ASSERT_TRUE(runtime.tcp()->ok());
  runtime.start();
  runtime.request(0, 1, brb::make_broadcast(Bytes{1}));
  runtime.stop();
  runtime.shutdown();  // idempotent with the destructor's shutdown
}

TEST(TcpRuntime, ShutdownMidRunDropsArmedTimersAndReleasesEveryUnit) {
  // shutdown() lands mid-run, at a different point each round, while
  // dissemination beats, FWD retries (a killed link loses frames) and
  // checkpoint-writer jobs are in flight. The order under test: verifier
  // pool, sockets, checkpoint writers, then each mailbox closes, which
  // also drops its armed timers. Afterwards no unit of work is left, every
  // later post or timer is refused, and nothing runs any more. CI loops
  // this case under ThreadSanitizer.
  brb::BrbFactory factory;
  const std::uint32_t n = 4;
  std::uint64_t checkpoints = 0;
  std::uint64_t fwd_requests = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<sync::MemStore> stores(n);
    ThreadedConfig cfg = tcp_config(n);
    cfg.checkpoint.epoch_blocks = 4;  // a writer job every few beats
    cfg.storage = [&stores](ServerId s) { return &stores[s]; };
    ThreadedRuntime runtime(factory, cfg);
    ASSERT_TRUE(runtime.tcp()->ok());
    runtime.start();

    // Per server: a probe that re-arms itself every 100us like a beat, and
    // one timer due long after shutdown, which closing must drop.
    std::atomic<std::uint64_t> ticks{0};
    std::atomic<int> late_fired{0};
    std::vector<std::function<void()>> probes(n);
    for (ServerId s = 0; s < n; ++s) {
      TimerService& timers = runtime.raw_timers(s);
      std::function<void()>& probe = probes[s];
      probe = [&ticks, &timers, &probe] {
        ++ticks;
        timers.schedule_after(sim_us(100), probe);
      };
      ASSERT_TRUE(runtime.post(s, probe));
      timers.schedule_after(sim_sec(3600), [&late_fired] { ++late_fired; });
    }
    // Killing a link while beats land on it loses frames, so blocks wait
    // for missing predecessors with their FWD timers armed.
    for (int i = 0; i < 2 + 3 * round; ++i) {
      runtime.request(i % n, 1 + i,
                      brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
      runtime.tcp()->drop_connections(i % 2, 2 + i % 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }

    runtime.shutdown();
    // No armed timer, queued task, writer job or frame holds a unit.
    EXPECT_TRUE(runtime.wait_idle(std::chrono::nanoseconds(0)))
        << "round " << round;
    const std::uint64_t ticks_at_shutdown = ticks.load();
    EXPECT_GT(ticks_at_shutdown, 0u);
    for (ServerId s = 0; s < n; ++s) {
      EXPECT_FALSE(runtime.post(s, [&ticks] { ++ticks; }));
      EXPECT_EQ(runtime.raw_timers(s).schedule_after(0, [&ticks] { ++ticks; }),
                TimerService::kInvalidTimer);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(ticks.load(), ticks_at_shutdown) << "a task ran after shutdown";
    EXPECT_EQ(late_fired.load(), 0);
    // Once shut down, call() reads the servers on this thread.
    for (ServerId s = 0; s < n; ++s) {
      checkpoints += runtime.sync_snapshot(s).checkpointer.checkpoints_stored;
      fwd_requests += runtime.call(
          s, [](Shim& shim) { return shim.gossip().stats().fwd_requests_sent; });
    }
  }
  // The rounds really cut through writer jobs and FWD retries.
  EXPECT_GT(checkpoints, 0u);
  EXPECT_GT(fwd_requests, 0u);
}

TEST(TcpRuntime, BindFailureIsReportedNotFatal) {
  // Two clusters on the same fixed base port: the second must report the
  // bind failure through ok() so a driver can pick another port.
  brb::BrbFactory factory;
  ThreadedConfig first = tcp_config(2);
  first.tcp.base_port = 0;
  ThreadedRuntime a(factory, first);
  ASSERT_TRUE(a.tcp()->ok());

  ThreadedConfig second = tcp_config(2);
  second.tcp.base_port = a.tcp()->port_of(0);  // already taken by `a`
  ThreadedRuntime b(factory, second);
  EXPECT_FALSE(b.tcp()->ok());
}

TEST(TcpRuntime, ParkedEnvelopesCoalesceIntoKBatchFramesOverASocket) {
  // 256 sends parked on one link before start() are all pending at the
  // first flush, so they must cross the real socket as kBatch frames —
  // and still arrive exactly once each, in send order.
  constexpr std::uint32_t kEnvelopes = 256;
  testing::MailboxRig rig(2);
  rt::TcpConfig cfg;
  cfg.n_servers = 2;
  rt::TcpTransport transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  std::vector<std::pair<ServerId, std::uint32_t>> got;  // server 1's thread
  std::atomic<std::uint32_t> arrived{0};
  transport.attach(1, [&](ServerId from, const Bytes& payload) {
    got.emplace_back(from, testing::envelope_number(payload));
    arrived.fetch_add(1);
  });
  for (std::uint32_t i = 0; i < kEnvelopes; ++i) {
    transport.send(0, 1, WireKind::kBlock, testing::numbered_envelope(i));
  }
  transport.start();
  EXPECT_TRUE(testing::wait_until([&] { return arrived.load() >= kEnvelopes; },
                                  std::chrono::seconds(10)));
  transport.stop();
  rig.join();

  ASSERT_EQ(got.size(), kEnvelopes);
  for (std::uint32_t i = 0; i < kEnvelopes; ++i) {
    EXPECT_EQ(got[i], std::make_pair(ServerId{0}, i));
  }
  const rt::TcpStats stats = transport.stats();
  EXPECT_GT(stats.batches_sent, 0u);
  EXPECT_EQ(stats.batches_received, stats.batches_sent);
  EXPECT_EQ(stats.batched_envelopes_received, stats.batched_envelopes);
  EXPECT_EQ(stats.batch_decode_failures, 0u);
  EXPECT_EQ(transport.link_stats(0, 1).batches_sent, stats.batches_sent);
}

TEST(TcpRuntime, BroadcastAfterStopDropsOneEnvelopePerPeer) {
  testing::MailboxRig rig(4);
  rt::TcpConfig cfg;
  cfg.n_servers = 4;
  rt::TcpTransport transport(cfg, rig.mailboxes(), &rig.idle());
  ASSERT_TRUE(transport.ok());
  transport.start();
  transport.stop();
  const std::uint64_t before = transport.wire_metrics().dropped;
  transport.broadcast(0, WireKind::kBlock, testing::numbered_envelope(0));
  EXPECT_EQ(transport.wire_metrics().dropped - before, 3u);
}

}  // namespace
}  // namespace blockdag
