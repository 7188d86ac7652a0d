// Adversarial real-socket Transport: UDP datagrams + explicit reliability
// + in-path fault injection (DESIGN.md §9).
//
// The fourth backend of the Transport seam. TCP (rt/tcp_transport.h) gave
// the protocol stack a real kernel but also the kernel's reliability; this
// backend deliberately gives it a real kernel *without* reliability, then
// wins it back in userspace where every loss, reorder and duplicate is
// observable and injectable:
//   * each payload crosses the wire as the same length-prefixed frame TCP
//     sends (net/frame.h), chopped into MTU-sized chunks carried by
//     sequenced datagrams (net/datagram.h: seq + ack header, bounded
//     retransmission with exponential backoff, dedup/reorder windows,
//     epoch resets instead of infinite retry against a dead peer);
//   * an in-path FaultInjector sits between the channel layer and
//     sendto(): per directed link it drops, duplicates, delays and
//     reorders datagrams from a seeded profile, and links can be
//     blackholed outright (partitions). The faultplan grammar that PR 3
//     gave the simulator — partitions, asymmetric lossy links, geo-latency
//     regimes — thereby runs against live sockets and real concurrency
//     (`simctl fuzz --runtime udp`).
//
// Topology: one UDP socket per hosted server, bound to base_port + id (or
// an ephemeral port when the whole cluster is in-process), serviced by one
// poll thread per transport instance. Everything above the syscall — the
// send front door, the per-link egress queue and its caps, kBatch packing
// and the mailbox posts of decoded frames — is the link layer it shares
// with TCP (rt/link_layer.h). This backend keeps the per-link
// SenderChannel/ReceiverChannel pump, the fault injector and sendto().
//
// Delivery contract (Assumption 1): retransmission makes delivery between
// live, reachable endpoints eventual; what exceeds the retransmit budget
// (a peer dead or blackholed for seconds) is dropped with the channel
// reset — the transient-loss class the gossip FWD path recovers, exactly
// like frames lost in a dead TCP kernel buffer. Datagram `from` fields are
// transport metadata, as unauthenticated as everywhere else: a spoofed
// epoch bump can reset a channel, which is loss, never safety violation —
// all trust lives in signatures inside the payloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "net/datagram.h"
#include "net/frame.h"
#include "rt/link_layer.h"
#include "util/rng.h"

namespace blockdag::rt {

// Fault profile of one directed link, consulted per outbound datagram.
// Probabilities are independent per datagram; delays are sampled uniformly
// from [delay_min_us, delay_max_us] (the geo-latency knob); a reordered
// datagram is additionally held for ~reorder_hold_us so later datagrams
// overtake it; duplicates are re-sent after a short extra delay so the
// dedup window sees them out of order. All decisions flow from the
// transport's seeded RNG — the profile is deterministic, the socket timing
// is not (that is the point of running on real sockets).
struct LinkFault {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  std::uint32_t delay_min_us = 0;
  std::uint32_t delay_max_us = 0;
  std::uint32_t reorder_hold_us = 2000;
  bool blackhole = false;  // partition: every datagram on the link dies
};

// The shared deployment settings (n_servers, host, base_port,
// local_servers: see LinkConfig) plus what only datagrams need.
struct UdpConfig : LinkConfig {
  // Reliability tuning shared by every channel (MTU, RTO/backoff,
  // retransmit cap, windows).
  DatagramChannelConfig channel{};
  // Seed of the fault injector's RNG (decision stream).
  std::uint64_t fault_seed = 1;
  // Initial profile applied to every directed link (clean by default).
  LinkFault default_fault{};
};

// Envelope coalescing (DESIGN.md §13): pump() packs everything queued on a
// link into wire frames before offering them to the sender channel, so one
// frame — and its seq/ack/retransmit state — can carry many envelopes. The
// kBatch payload ceiling is deliberately smaller than TCP's: a frame is the
// retransmission unit here, and a fatter frame spans more MTU chunks, so
// one lost chunk under injected loss holds up more envelopes.
inline constexpr std::size_t kUdpMaxBatchBytes = 16u << 10;

// Aggregate counters. Everything the fault tests assert nonzero lives
// here, so injection can never silently no-op (tests/rt/udp_runtime_test).
// All of them survive stop().
struct UdpStats : LinkLayerStats {
  std::uint64_t datagrams_sent = 0;      // sendto() completions (all kinds)
  std::uint64_t datagrams_received = 0;  // recvfrom() datagrams
  std::uint64_t frames_sent = 0;         // frames accepted into channels
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;         // RTO-expired re-sends
  std::uint64_t duplicates_dropped = 0;  // receiver dedup-window hits
  std::uint64_t far_future_dropped = 0;  // forged/absurd seq, not buffered
  std::uint64_t malformed_dropped = 0;   // undecodable datagrams
  std::uint64_t channel_resets = 0;      // sender retransmit-cap resets
  std::uint64_t corrupt_streams = 0;     // FrameDecoder poisoned an epoch
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  std::uint64_t injected_delays = 0;     // datagrams held back (incl. reorders)
};

// Per-directed-link view: the egress counters plus the channel's.
// Sender-side counters are populated when `from` is hosted locally,
// receiver-side ones when `to` is. In an in-process cluster both halves are
// visible.
struct UdpLinkStats : LinkEgressStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t channel_resets = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t duplicates_dropped = 0;  // dedup at the receiving end
  std::uint64_t chunks_delivered = 0;
};

class UdpTransport final : public LinkLayer {
 public:
  // See LinkLayer for `mailboxes` and `idle`, which here also counts
  // offered-but-unacked frames, so wait_idle() covers the retransmission
  // pipeline. Sockets are bound here (check ok()); no traffic moves until
  // start().
  UdpTransport(UdpConfig config, std::vector<Mailbox*> mailboxes,
               IdleTracker* idle = nullptr);
  ~UdpTransport() override;  // stop()s

  // Adds the frames the sender channels dropped (queue overflow, resets).
  WireMetrics wire_metrics() const override;

  // ---- fault injection (thread-safe; applied to subsequent datagrams) ----

  // Overrides the profile of one directed link.
  void set_link_fault(ServerId from, ServerId to, const LinkFault& fault);
  // Blackholes (active=true) or heals (false) every directed link crossing
  // the cut, both directions — the real-socket analogue of
  // SimNetwork::partition, except healing is explicit.
  void set_partition(const std::vector<ServerId>& side_a,
                     const std::vector<ServerId>& side_b, bool active);

  UdpStats stats() const;
  UdpLinkStats link_stats(ServerId from, ServerId to) const;

 private:
  using Clock = std::chrono::steady_clock;

  // Channel state of one directed link. Kept across stop(), so its
  // counters stay readable after teardown.
  struct Link {
    std::unique_ptr<SenderChannel> sender;      // local from → to
    std::unique_ptr<ReceiverChannel> receiver;  // from → local to
    std::uint64_t injected_drops = 0;
    std::uint64_t injected_dups = 0;
    std::uint64_t injected_delays = 0;
    std::uint64_t datagrams_sent = 0;
  };
  struct Delayed {
    Clock::time_point due;
    ServerId from = 0;
    ServerId to = 0;
    std::shared_ptr<const Bytes> datagram;
    bool operator>(const Delayed& other) const { return due > other.due; }
  };

  // Link state of the directed pair, created on first use. mu_ held.
  Link& link(ServerId from, ServerId to);
  const LinkFault& fault_of(ServerId from, ServerId to) const;
  // Packs everything queued on the link into wire frames and offers them
  // to the sender channel. mu_ held (pump() calls it).
  void pack_queued(ServerId from, ServerId to, EgressQueue& q);
  // Injection decision + sendto()/delay-queue for one outbound datagram.
  // mu_ held. `injectable` is false for datagrams the injector already
  // processed (delayed releases, duplicate copies).
  void emit(ServerId from, ServerId to, std::shared_ptr<const Bytes> datagram,
            bool injectable, Clock::time_point now);
  void transmit(ServerId from, ServerId to, const Bytes& datagram);
  // Pump senders/acks/delayed queue; returns the earliest future deadline
  // (retransmit or delayed release). mu_ held.
  Clock::time_point pump(Clock::time_point now);
  void service_socket(ServerId owner);
  void poll_loop() override;
  void close_locked() override;  // mu_ held
  static std::uint64_t to_ns(Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }

  const DatagramChannelConfig channel_config_;
  std::map<std::pair<ServerId, ServerId>, Link> links_;  // (from, to)
  // Fault state: default + per-link overrides + partition bitmap (n×n,
  // row-major), consulted per outbound datagram.
  Rng fault_rng_;
  const LinkFault default_fault_;
  std::map<std::pair<ServerId, ServerId>, LinkFault> fault_overrides_;
  std::vector<bool> blackholed_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      delayed_;
  UdpStats stats_;  // the UDP-only fields; the rest live in the link layer
};

}  // namespace blockdag::rt
