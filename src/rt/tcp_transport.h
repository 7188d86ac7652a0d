// Real-socket Transport for the threaded runtime (DESIGN.md §8).
//
// The third backend of the Transport seam: payloads cross real TCP
// sockets, framed by net/frame.h (TCP is a byte stream — one write can
// arrive split across any number of reads), so the same protocol stack
// that runs on the simulator and the loopback runtime spans OS processes.
//
// Topology: every server owns one acceptor (listening on base_port + id,
// or an ephemeral port when the whole cluster lives in one process) and
// one *outbound* connection per peer, used only for sending; inbound
// connections, accepted on the local server's acceptor, are used only for
// receiving. All sockets are nonblocking and serviced by one dedicated
// poll thread per transport instance; complete frames are posted into the
// owning server's mailbox, so handlers keep the single-writer-per-server
// discipline of rt/mailbox.h and protocol code never learns that bytes
// now move through a kernel.
//
// Delivery contract (Assumption 1): connects are retried with backoff
// forever and unsent frames queue across reconnects, so delivery between
// live endpoints is eventual. What a broken connection already carried
// into a dead kernel buffer is transiently lost — exactly the loss class
// the gossip FWD path recovers (tests/rt/tcp_runtime_test.cpp kills
// connections mid-run and converges). A corrupt frame stream (bad length,
// version or kind) resets the connection rather than attempting to
// re-synchronise against a potentially byzantine peer.
//
// Envelope coalescing (DESIGN.md §13): every send parks as a
// shared-payload envelope on its link — broadcast() shares one immutable
// payload buffer across all n−1 links, the SimNetwork single-allocation
// discipline. At flush time the poll thread packs everything pending into
// wire frames (pack_frame, net/codec.h) and drains the wire queue with
// writev(), so N small sends cost one frame and one syscall instead of N;
// a lone envelope on an idle link still ships at once as a plain frame.
// Receivers unpack kBatch frames (one mailbox task dispatches every inner
// envelope).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"
#include "rt/mailbox.h"

namespace blockdag::rt {

struct TcpConfig {
  std::uint32_t n_servers = 0;
  // Numeric IPv4 address every server binds and dials (multi-process
  // clusters on one host use the loopback address).
  std::string host = "127.0.0.1";
  // Server s listens on base_port + s. 0 = kernel-assigned ephemeral ports,
  // which is race-free for parallel test runs but only works when every
  // server is local (remote ports could not be derived).
  std::uint16_t base_port = 0;
  // ServerIds hosted by this process. Empty = all of them (the in-process
  // `--runtime tcp` deployment).
  std::vector<ServerId> local_servers;
  // Delay before re-dialing a failed or refused connection. Retries repeat
  // forever while traffic is queued: a joining process may come up later.
  std::chrono::milliseconds reconnect_delay{25};
  // ± fraction applied to every reconnect delay so links that failed
  // together (e.g. a peer process SIGKILLed mid-run) do not re-dial in
  // lockstep against the reborn listener. 0 disables (tests that pin the
  // retry schedule). See net/backoff.h.
  double reconnect_jitter = 0.25;
  std::uint64_t reconnect_jitter_seed = 0x7c0ffee5ULL;
  // Per-peer send queue ceiling in *envelopes*; beyond it new sends are
  // dropped (counted in WireMetrics::dropped and per-link evictions) —
  // transient loss, recovered by gossip FWD.
  std::size_t max_queued_frames_per_peer = 16384;
  // Companion byte budget on the same queue: a frame cap alone admits
  // cap × payload bytes, which for ~2 KiB WOTS-signed blocks is tens of
  // MiB per peer. Whichever cap trips first evicts the new envelope.
  std::size_t max_queued_bytes_per_peer = 64u << 20;
  // Frame payload ceiling, enforced on receive and on kBatch packing.
  std::size_t max_frame_payload = kMaxFramePayload;
};

// kBatch payload ceiling on TCP (the envelope ceiling is kMaxBatchEnvelopes,
// net/codec.h). The flush window is adaptive with no timer: new work on an
// idle link wakes the poll thread at once, and whatever accumulates while
// the socket or the poll thread is busy coalesces up to the ceilings — the
// latency bound is the poll servicing latency, well under a few ms.
inline constexpr std::size_t kTcpMaxBatchBytes = 128u << 10;

struct TcpStats {
  std::uint64_t dials = 0;           // connect() attempts
  std::uint64_t connects = 0;        // successful outbound establishments
  std::uint64_t accepts = 0;         // inbound connections accepted
  std::uint64_t resets = 0;          // established connections lost/reset
  std::uint64_t frames_sent = 0;     // wire frames fully written (batch = 1)
  std::uint64_t frames_received = 0; // complete wire frames decoded
  std::uint64_t corrupt_streams = 0; // inbound streams poisoned by FrameDecoder
  // Envelope coalescing (kBatch frames carrying >1 inner envelope).
  std::uint64_t batches_sent = 0;
  std::uint64_t batched_envelopes = 0;           // inners across batches_sent
  std::uint64_t batches_received = 0;
  std::uint64_t batched_envelopes_received = 0;
  // Malformed kBatch payloads: the batch is dropped, the stream stays live
  // (payload-level corruption, unlike a framing violation).
  std::uint64_t batch_decode_failures = 0;
  std::uint64_t writev_calls = 0;    // gather-writes issued on flush
  // Send-queue cap evictions (frame cap or byte budget), all links.
  std::uint64_t evicted_envelopes = 0;
  std::uint64_t evicted_bytes = 0;
};

// Per-directed-link counters (from → to).
struct TcpLinkStats {
  std::uint64_t enqueued = 0;          // envelopes admitted to the queue
  std::uint64_t evicted = 0;           // envelopes refused by the caps
  std::uint64_t batches_sent = 0;      // kBatch frames packed
  std::uint64_t batched_envelopes = 0; // inners across those batches
};

class TcpTransport final : public Transport {
 public:
  // `mailboxes` is indexed by ServerId and must be non-null exactly for the
  // local servers; pointers must outlive the transport. `idle` (optional)
  // counts queued-but-unsent frames as outstanding work so wait_idle()
  // covers the send path. Acceptors are bound in the constructor (check
  // ok()); no traffic moves until start().
  TcpTransport(TcpConfig config, std::vector<Mailbox*> mailboxes,
               IdleTracker* idle = nullptr);
  ~TcpTransport();  // stop()s

  // False if any acceptor failed to bind/listen (port already in use).
  bool ok() const { return ok_; }
  // Actual listen port of `server` (resolves ephemeral binds for local
  // servers; base_port + s for remote ones).
  std::uint16_t port_of(ServerId server) const;

  void start();  // launches the poll thread; idempotent
  void stop();   // closes every socket, drains queues, joins; idempotent

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
  // handler instead of the attached protocol handler (used by the
  // multi-process runtime for its digest-exchange settle protocol).
  void set_control_handler(ServerId server, Handler handler);

  // Test hook: hard-closes every established socket between `a` and `b`
  // (both directions). Queued-but-unsent frames survive and are resent
  // after the automatic re-dial; bytes already in kernel buffers are lost —
  // the transient-loss scenario the gossip FWD path must recover.
  void drop_connections(ServerId a, ServerId b);

  TcpStats stats() const;
  TcpLinkStats link_stats(ServerId from, ServerId to) const;

 private:
  // One encoded wire frame awaiting the kernel; `units` is the number of
  // envelopes it carries (1 for a plain frame, k for a kBatch), so idle
  // tracking and drop accounting stay per-envelope.
  struct WireFrame {
    std::shared_ptr<const Bytes> bytes;
    std::uint32_t units = 1;
    std::size_t payload_bytes = 0;  // byte-budget accounting
  };
  struct OutConn {
    enum class State { kIdle, kConnecting, kConnected, kBackoff };
    int fd = -1;
    State state = State::kIdle;
    std::chrono::steady_clock::time_point retry_at{};
    // Envelopes admitted but not yet packed into frames.
    std::deque<Envelope> pending;
    // Encoded frames awaiting the kernel.
    std::deque<WireFrame> queue;
    std::size_t front_offset = 0;  // bytes of queue.front() already written
    // Cap accounting across pending + queue, in envelopes and payload bytes.
    std::size_t queued_envelopes = 0;
    std::size_t queued_bytes = 0;
    // Per-link counters live here so they survive stop() clearing out_.
    TcpLinkStats* link = nullptr;  // owned by link_stats_
  };
  struct InConn {
    int fd = -1;
    ServerId owner = 0;                 // local server whose acceptor accepted
    ServerId peer = kInvalidServer;     // claimed sender, from frame headers
    FrameDecoder decoder;
    bool dead = false;
  };

  bool is_local(ServerId s) const { return s < mailboxes_.size() && mailboxes_[s]; }
  void deliver_local_many(ServerId to, ServerId from,
                          const std::vector<Envelope>& envelopes);
  void wake();
  void poll_loop();
  // These run with mu_ held.
  bool admit_locked(OutConn& out, std::size_t payload_bytes);
  bool enqueue_envelope_locked(ServerId from, ServerId to,
                               const Envelope& envelope);
  void dial(ServerId from, ServerId to, OutConn& out);
  void fail_out(OutConn& out);
  void service_in(InConn& in);
  void flush_out(ServerId from, OutConn& out);
  std::chrono::steady_clock::duration reconnect_backoff();

  TcpConfig config_;
  std::vector<Mailbox*> mailboxes_;
  IdleTracker* idle_;
  bool ok_ = false;
  std::vector<int> acceptor_fds_;        // indexed by ServerId; -1 if remote
  std::vector<std::uint16_t> ports_;     // indexed by ServerId
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::thread thread_;

  mutable std::mutex mu_;
  bool running_ = false;
  bool stopping_ = false;
  std::map<std::pair<ServerId, ServerId>, OutConn> out_;  // (from, to)
  // Per-link counters, node-stable (OutConn::link points in) and retained
  // across stop() so post-run diagnostics can still read them.
  std::map<std::pair<ServerId, ServerId>, TcpLinkStats> link_stats_;
  std::vector<std::unique_ptr<InConn>> in_;
  std::vector<std::shared_ptr<const Handler>> handlers_;
  std::vector<std::shared_ptr<const Handler>> control_;
  std::uint64_t reconnect_prng_;  // jitter stream; guarded by mu_
  WireMetrics metrics_;
  TcpStats stats_;
};

}  // namespace blockdag::rt
