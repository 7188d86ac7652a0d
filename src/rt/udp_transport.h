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
// poll thread per transport instance. Complete frames are posted into the
// owning server's mailbox — the single-writer-per-server discipline of
// rt/mailbox.h, identical to the TCP backend.
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
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "net/datagram.h"
#include "net/frame.h"
#include "net/transport.h"
#include "rt/mailbox.h"
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

struct UdpConfig {
  std::uint32_t n_servers = 0;
  std::string host = "127.0.0.1";
  // Server s binds base_port + s; 0 = kernel-assigned ephemeral ports
  // (race-free for parallel tests, all-local clusters only).
  std::uint16_t base_port = 0;
  // ServerIds hosted by this process. Empty = all of them.
  std::vector<ServerId> local_servers;
  // Reliability tuning shared by every channel (MTU, RTO/backoff,
  // retransmit cap, windows).
  DatagramChannelConfig channel{};
  // Seed of the fault injector's RNG (decision stream).
  std::uint64_t fault_seed = 1;
  // Initial profile applied to every directed link (clean by default).
  LinkFault default_fault{};
};

// Envelope coalescing (DESIGN.md §13): sends stage as envelopes per link
// and pump() packs everything staged into wire frames (pack_frame,
// net/codec.h) before offering them to the sender channel, so one frame —
// and its seq/ack/retransmit state — can carry many envelopes. The kBatch
// payload ceiling is deliberately smaller than TCP's: a frame is the
// retransmission unit here, and a fatter frame spans more MTU chunks, so
// one lost chunk under injected loss holds up more envelopes.
inline constexpr std::size_t kUdpMaxBatchBytes = 16u << 10;

// Aggregate counters. Everything the fault tests assert nonzero lives
// here, so injection can never silently no-op (tests/rt/udp_runtime_test).
struct UdpStats {
  std::uint64_t datagrams_sent = 0;      // sendto() completions (all kinds)
  std::uint64_t datagrams_received = 0;  // recvfrom() datagrams
  std::uint64_t frames_sent = 0;         // frames accepted into channels
  std::uint64_t frames_received = 0;     // complete frames decoded
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
  // Envelope coalescing (kBatch frames carrying >1 inner envelope).
  std::uint64_t batches_sent = 0;
  std::uint64_t batched_envelopes = 0;
  std::uint64_t batches_received = 0;
  std::uint64_t batched_envelopes_received = 0;
  // Malformed kBatch payloads: batch dropped, channel state untouched.
  std::uint64_t batch_decode_failures = 0;
};

// Per-directed-link view (the TcpStats pattern, but per peer): sender-side
// counters are populated when `from` is hosted locally, receiver-side ones
// when `to` is. In an in-process cluster both halves are visible.
struct UdpLinkStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t channel_resets = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t duplicates_dropped = 0;  // dedup at the receiving end
  std::uint64_t chunks_delivered = 0;
  std::uint64_t batches_sent = 0;        // kBatch frames packed on this link
  std::uint64_t batched_envelopes = 0;   // inners across those batches
};

class UdpTransport final : public Transport {
 public:
  // `mailboxes` is indexed by ServerId and must be non-null exactly for
  // the local servers; pointers must outlive the transport. `idle`
  // (optional) counts offered-but-unacked frames as outstanding work so
  // wait_idle() covers the retransmission pipeline. Sockets are bound in
  // the constructor (check ok()); no traffic moves until start().
  UdpTransport(UdpConfig config, std::vector<Mailbox*> mailboxes,
               IdleTracker* idle = nullptr);
  ~UdpTransport();  // stop()s

  // False if any socket failed to bind (port already in use).
  bool ok() const { return ok_; }
  std::uint16_t port_of(ServerId server) const;

  void start();  // launches the poll thread; idempotent
  void stop();   // closes every socket, drops queues, joins; idempotent

  // Transport interface.
  void attach(ServerId server, Handler handler) override;
  std::uint32_t size() const override { return config_.n_servers; }
  void send(ServerId from, ServerId to, WireKind kind, Bytes payload) override;
  void broadcast(ServerId from, WireKind kind, const Bytes& payload) override;
  void send_many(ServerId from, ServerId to,
                 const std::vector<Envelope>& envelopes) override;
  void broadcast_many(ServerId from,
                      const std::vector<Envelope>& envelopes) override;
  WireMetrics wire_metrics() const override;

  // Control plane: frames sent with WireKind::kControl are routed to this
  // handler instead of the attached protocol handler (multi-process
  // `simctl serve`/`join` digest exchange, same contract as TcpTransport).
  void set_control_handler(ServerId server, Handler handler);

  // ---- fault injection (thread-safe; applied to subsequent datagrams) ----

  // Overrides the profile of one directed link.
  void set_link_fault(ServerId from, ServerId to, const LinkFault& fault);
  // Replaces the default profile (links without an override).
  void set_default_fault(const LinkFault& fault);
  // Blackholes (active=true) or heals (false) every directed link crossing
  // the cut, both directions — the real-socket analogue of
  // SimNetwork::partition, except healing is explicit.
  void set_partition(const std::vector<ServerId>& side_a,
                     const std::vector<ServerId>& side_b, bool active);
  // Clears every override, partition and the default profile: a clean
  // network from here on (already-delayed datagrams still deliver).
  void heal_all_faults();

  UdpStats stats() const;
  UdpLinkStats link_stats(ServerId from, ServerId to) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Link {
    std::unique_ptr<SenderChannel> sender;      // local from → to
    std::unique_ptr<ReceiverChannel> receiver;  // from → local to
    // Envelopes staged for this link, packed into frames by pump() before
    // the sender channel sees them.
    std::deque<Envelope> staged;
    std::uint64_t injected_drops = 0;
    std::uint64_t injected_dups = 0;
    std::uint64_t injected_delays = 0;
    std::uint64_t datagrams_sent = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t batched_envelopes = 0;
  };
  struct Delayed {
    Clock::time_point due;
    ServerId from = 0;
    ServerId to = 0;
    std::shared_ptr<const Bytes> datagram;
    bool operator>(const Delayed& other) const { return due > other.due; }
  };

  bool is_local(ServerId s) const {
    return s < mailboxes_.size() && mailboxes_[s];
  }
  // Link state of the directed pair, created on first use. mu_ held.
  Link& link(ServerId from, ServerId to);
  const LinkFault& fault_of(ServerId from, ServerId to) const;
  void deliver_local_many(ServerId to, ServerId from,
                          const std::vector<Envelope>& envelopes);
  void deliver_frames(ServerId owner, std::vector<Frame>& frames);
  // Stages one envelope on the link. mu_ held.
  void stage_locked(Link& l, const Envelope& envelope);
  // Packs everything staged on the link into wire frames and offers them
  // to the sender channel. mu_ held (pump() calls it).
  void pack_staged(ServerId from, Link& l);
  // Injection decision + sendto()/delay-queue for one outbound datagram.
  // mu_ held. `injectable` is false for datagrams the injector already
  // processed (delayed releases, duplicate copies).
  void emit(ServerId from, ServerId to, std::shared_ptr<const Bytes> datagram,
            bool injectable, Clock::time_point now);
  void transmit(ServerId from, ServerId to, const Bytes& datagram);
  // Pump senders/acks/delayed queue; returns the earliest future deadline
  // (retransmit or delayed release). mu_ held.
  Clock::time_point pump(Clock::time_point now);
  void service_socket(ServerId owner, Clock::time_point now);
  void wake();
  void poll_loop();
  static std::uint64_t to_ns(Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }

  UdpConfig config_;
  std::vector<Mailbox*> mailboxes_;
  IdleTracker* idle_;
  bool ok_ = false;
  std::vector<int> socket_fds_;       // indexed by ServerId; -1 if remote
  std::vector<std::uint16_t> ports_;  // indexed by ServerId
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::thread thread_;

  mutable std::mutex mu_;
  bool running_ = false;
  bool stopping_ = false;
  std::map<std::pair<ServerId, ServerId>, Link> links_;  // (from, to)
  std::vector<std::shared_ptr<const Handler>> handlers_;
  std::vector<std::shared_ptr<const Handler>> control_;
  // Fault state: default + per-link overrides + partition bitmap (n×n,
  // row-major), consulted per outbound datagram.
  Rng fault_rng_;
  LinkFault default_fault_;
  std::map<std::pair<ServerId, ServerId>, LinkFault> fault_overrides_;
  std::vector<bool> blackholed_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      delayed_;
  WireMetrics metrics_;
  UdpStats stats_;
};

}  // namespace blockdag::rt
