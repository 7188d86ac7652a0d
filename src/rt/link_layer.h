// The socket link layer: everything the two real-socket Transports
// (rt/tcp_transport.h, rt/udp_transport.h) do above the syscall
// (DESIGN.md §8, §9, §13).
//
// Algorithm 1 asks one thing of a channel: eventual delivery between
// correct servers (Assumption 1). Both socket backends meet it with the same
// machinery above the socket, and it lives here once:
//   * the Transport front door — send/broadcast/send_many/broadcast_many,
//     self-delivery as one mailbox post, the stop latch (sends after stop()
//     count as dropped), WireMetrics charging and IdleTracker units;
//   * one egress queue per directed link with admission caps (an envelope
//     cap and a byte budget) and its eviction and batch counters;
//   * the only pack_frame call site (net/codec.h);
//   * ingress dispatch of decoded frames: kBatch unpacking, control-plane
//     routing and one mailbox post per frame;
//   * handler tables, the wake pipe, host parsing, port derivation and the
//     poll thread's lifetime;
//   * the exact link-settle rule (DESIGN.md §7): on every directed link
//     with both ends hosted here, frames sent must equal frames dispatched
//     to the receiver's mailbox. Each frame in between keeps one of its
//     envelopes' IdleTracker units, so wait_idle() also covers bytes still
//     inside kernel buffers. A reset that destroys frames in flight (a TCP
//     connection dying, a UDP channel reset) writes them off, so the count
//     can never wedge.
// A backend keeps only its syscall side: it binds its sockets, runs the
// poll loop, turns queued envelopes into wire traffic and hands decoded
// frames back to dispatch_locked().
#pragma once

#include <netinet/in.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "net/frame.h"
#include "net/transport.h"
#include "rt/mailbox.h"

namespace blockdag::rt {

// Admission caps of every directed link's egress queue. An envelope counts
// against them from admission until its backend retires it: on TCP when the
// kernel has taken its frame, on UDP when its frame enters the sender
// channel (which bounds itself, net/datagram.h). Whichever cap trips first
// evicts the new envelope — counted in WireMetrics::dropped and per link —
// which is transient loss that gossip FWD recovers. The byte budget exists
// because the envelope cap alone admits cap × payload bytes: tens of MiB
// per peer for ~2 KiB WOTS-signed blocks.
inline constexpr std::size_t kMaxQueuedEnvelopesPerLink = 16384;
inline constexpr std::size_t kMaxQueuedBytesPerLink = 64u << 20;

// Deployment settings every socket backend shares.
struct LinkConfig {
  std::uint32_t n_servers = 0;
  // Numeric IPv4 address every server binds and sends to (multi-process
  // clusters on one host use the loopback address).
  std::string host = "127.0.0.1";
  // Server s binds base_port + s. 0 = kernel-assigned ephemeral ports,
  // which is race-free for parallel test runs but only works when every
  // server is local (remote ports could not be derived).
  std::uint16_t base_port = 0;
  // ServerIds hosted by this process. Empty = all of them (the in-process
  // `--runtime tcp|udp` deployment).
  std::vector<ServerId> local_servers;
};

// Aggregate counters the link layer keeps for both backends. TcpStats and
// UdpStats extend this struct, so each field means the same on both.
struct LinkLayerStats {
  std::uint64_t frames_received = 0;  // complete wire frames decoded
  // Envelope coalescing (kBatch frames carrying >1 inner envelope).
  std::uint64_t batches_sent = 0;
  std::uint64_t batched_envelopes = 0;  // inners across batches_sent
  std::uint64_t batches_received = 0;
  std::uint64_t batched_envelopes_received = 0;
  // Malformed kBatch payloads: the batch is dropped, the link stays live
  // (payload-level corruption, unlike a framing violation).
  std::uint64_t batch_decode_failures = 0;
  // Admission-cap evictions (envelope cap or byte budget), all links.
  std::uint64_t evicted_envelopes = 0;
  std::uint64_t evicted_bytes = 0;
};

// Per-directed-link egress counters (from → to); TcpLinkStats is this
// struct and UdpLinkStats extends it.
struct LinkEgressStats {
  std::uint64_t enqueued = 0;           // envelopes admitted to the queue
  std::uint64_t evicted = 0;            // envelopes refused by the caps
  std::uint64_t batches_sent = 0;       // kBatch frames packed
  std::uint64_t batched_envelopes = 0;  // inners across those batches
};

// Socket helpers the backends share.
bool set_nonblocking(int fd);
void close_fd(int& fd);  // closes fd if open and sets it to -1

class LinkLayer : public Transport {
 public:
  // False if the host did not parse, the ports do not fit, or a socket
  // failed to bind (port already in use).
  bool ok() const { return ok_; }
  // Actual port of `server` (resolves ephemeral binds for local servers;
  // base_port + s for remote ones).
  std::uint16_t port_of(ServerId server) const;

  // Launches the poll thread; idempotent, and a no-op after stop().
  void start();
  // Joins the poll thread, closes every socket and drops what is still
  // queued (counted in WireMetrics::dropped). Sends from here on are
  // dropped too. Idempotent; counters stay readable afterwards. Each
  // backend's destructor calls it.
  void stop();

  // Transport interface.
  void attach(ServerId server, Handler handler) override;
  std::uint32_t size() const override { return n_; }
  void send(ServerId from, ServerId to, WireKind kind, Bytes payload) override;
  void broadcast(ServerId from, WireKind kind, const Bytes& payload) override;
  void send_many(ServerId from, ServerId to,
                 const std::vector<Envelope>& envelopes) override;
  void broadcast_many(ServerId from,
                      const std::vector<Envelope>& envelopes) override;
  WireMetrics wire_metrics() const override;

  // Control plane: frames sent with WireKind::kControl are routed to this
  // handler instead of the attached protocol handler (used by a
  // multi-process cluster member's digest exchange, runtime/scenario.cpp).
  void set_control_handler(ServerId server, Handler handler);

  // The link-settle rule: true when every directed link between two hosted
  // servers has dispatched every frame it sent (less the frames a reset
  // wrote off).
  bool links_settled() const;

 protected:
  // One directed link's egress queue. Node-stable (std::map) and kept
  // across stop(), so backends may hold pointers into it and its counters
  // stay readable after teardown.
  struct EgressQueue {
    std::deque<Envelope> pending;  // admitted, not yet packed into frames
    // Cap accounting: envelopes admitted and not yet retired, and their
    // payload bytes.
    std::size_t queued_envelopes = 0;
    std::size_t queued_bytes = 0;
    // The settle counts; both stay 0 unless the receiver is hosted here.
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_dispatched = 0;
    LinkEgressStats stats;
  };

  // `mailboxes` is indexed by ServerId and must be non-null exactly for the
  // local servers; pointers must outlive the transport. `idle` (optional)
  // counts queued envelopes as outstanding work so wait_idle() covers the
  // send path. `max_batch_bytes` is the backend's kBatch payload ceiling.
  // Parses the host, derives ports and opens the wake pipe; the backend's
  // constructor then binds one socket per local server with bind_local().
  LinkLayer(LinkConfig config, std::vector<Mailbox*> mailboxes,
            IdleTracker* idle, std::size_t max_batch_bytes);

  const std::vector<ServerId>& local_servers() const { return local_; }
  // Takes ownership of `fd` as local server `s`'s socket and binds it to
  // the host at base_port + s (or an ephemeral port, then recorded). False
  // on any failure, including fd < 0.
  bool bind_local(ServerId s, int fd);
  // The socket address of `server`, from the host parsed once.
  sockaddr_in address_of(ServerId server) const;

  // The poll thread's body; runs until stopping_ latches.
  virtual void poll_loop() = 0;
  // stop(), mu_ held, poll thread joined: close the backend's own sockets
  // and release the IdleTracker units it took itself. Queued envelopes are
  // the link layer's to drop afterwards. Runs once.
  virtual void close_locked() = 0;

  void wake();
  int wake_fd() const { return wake_rd_; }
  void drain_wake();

  // These run with mu_ held.
  // Packs the front of `q.pending` into one wire frame (net/codec.h),
  // counting batches. `q.pending` must be non-empty.
  PackedFrame pack_locked(ServerId from, EgressQueue& q);
  // retire_locked() for a frame of `envelopes` the backend has handed to
  // the wire (TCP: written to the kernel; UDP: accepted by the sender
  // channel). For a hosted receiver the frame is counted as sent and keeps
  // one unit until dispatch_locked() or write_off_locked() releases it.
  void sent_locked(ServerId to, EgressQueue& q, std::size_t envelopes,
                   std::size_t bytes);
  // Writes off the frames a reset destroyed: they will never be
  // dispatched, so their units are released and the link's settle counts
  // rebased.
  void write_off_locked(EgressQueue& q);
  // Releases `envelopes` units and `bytes` from the cap accounting once the
  // backend is done with them; `dropped` charges them to
  // WireMetrics::dropped.
  void retire_locked(EgressQueue& q, std::size_t envelopes, std::size_t bytes,
                     bool dropped);
  // Posts one decoded frame to `owner`'s mailbox: a kBatch frame is split
  // and every inner envelope dispatched in order by one task; kControl
  // envelopes go to the control handler. `frame.header.from` must be a
  // valid ServerId (each backend polices that its own way). `counted` is
  // false for a frame of a stream a reset already wrote off.
  void dispatch_locked(ServerId owner, Frame& frame, bool counted = true);
  LinkEgressStats egress_stats_locked(ServerId from, ServerId to) const;

  const std::uint32_t n_;
  IdleTracker* const idle_;
  bool ok_ = false;
  std::vector<int> fds_;  // per ServerId: the bound socket; -1 if remote

  mutable std::mutex mu_;
  bool stopping_ = false;  // latched by stop()
  std::map<std::pair<ServerId, ServerId>, EgressQueue> egress_;  // (from, to)
  WireMetrics metrics_;
  LinkLayerStats counters_;

 private:
  bool is_local(ServerId s) const {
    return s < mailboxes_.size() && mailboxes_[s];
  }
  // dispatch_locked's mailbox post.
  void post_locked(ServerId owner, Frame& frame);
  // Admits one envelope to the from → to queue or evicts it; true if the
  // queue was empty (the poll thread needs a wake). mu_ held.
  bool enqueue_locked(ServerId from, ServerId to, const Envelope& envelope);
  void deliver_local_many(ServerId to, ServerId from,
                          const std::vector<Envelope>& envelopes);

  std::vector<ServerId> local_;
  std::vector<Mailbox*> mailboxes_;
  const std::size_t max_batch_bytes_;
  in_addr addr_{};
  std::vector<std::uint16_t> ports_;  // per ServerId
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::thread thread_;
  bool running_ = false;  // guarded by mu_
  bool closed_ = false;   // guarded by mu_
  std::vector<std::shared_ptr<const Handler>> handlers_;
  std::vector<std::shared_ptr<const Handler>> control_;
};

}  // namespace blockdag::rt
