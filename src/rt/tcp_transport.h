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
// Everything above the syscall — the send front door, the per-link egress
// queue and its caps, kBatch packing and ingress dispatch — is the shared
// link layer (rt/link_layer.h). This backend keeps dialing with jittered
// backoff, the writev() flush, the stream FrameDecoder and the
// drop_connections() test hook. At flush time the poll thread packs
// everything queued on a link into wire frames and drains them with
// writev(), so N small sends cost one frame and one syscall instead of N;
// a lone envelope on an idle link still ships at once as a plain frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/frame.h"
#include "rt/link_layer.h"

namespace blockdag::rt {

// TCP needs only the deployment settings every socket backend shares:
// n_servers, host, base_port (server s listens on base_port + s; 0 =
// ephemeral, all-local clusters only) and local_servers (empty = all).
using TcpConfig = LinkConfig;

// kBatch payload ceiling on TCP (the envelope ceiling is kMaxBatchEnvelopes,
// net/codec.h). The flush window is adaptive with no timer: new work on an
// idle link wakes the poll thread at once, and whatever accumulates while
// the socket or the poll thread is busy coalesces up to the ceilings — the
// latency bound is the poll servicing latency, well under a few ms.
inline constexpr std::size_t kTcpMaxBatchBytes = 128u << 10;

// Delay before re-dialing a failed or refused connection. Retries repeat
// forever while traffic is queued: a joining process may come up later.
inline constexpr std::chrono::milliseconds kTcpReconnectDelay{25};
// ± fraction applied to every reconnect delay so links that failed
// together (e.g. a peer process SIGKILLed mid-run) do not re-dial in
// lockstep against the reborn listener (net/backoff.h), and its seed.
inline constexpr double kTcpReconnectJitter = 0.25;
inline constexpr std::uint64_t kTcpReconnectJitterSeed = 0x7c0ffee5ULL;

struct TcpStats : LinkLayerStats {
  std::uint64_t dials = 0;           // connect() attempts
  std::uint64_t connects = 0;        // successful outbound establishments
  std::uint64_t accepts = 0;         // inbound connections accepted
  std::uint64_t resets = 0;          // established connections lost/reset
  std::uint64_t frames_sent = 0;     // wire frames fully written (batch = 1)
  std::uint64_t corrupt_streams = 0; // inbound streams poisoned by FrameDecoder
  std::uint64_t writev_calls = 0;    // gather-writes issued on flush
};

// Per-directed-link counters (from → to).
using TcpLinkStats = LinkEgressStats;

class TcpTransport final : public LinkLayer {
 public:
  // See LinkLayer for `mailboxes` and `idle`; acceptors are bound here
  // (check ok()), and no traffic moves until start().
  TcpTransport(TcpConfig config, std::vector<Mailbox*> mailboxes,
               IdleTracker* idle = nullptr);
  ~TcpTransport() override;  // stop()s

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
    EgressQueue* egress = nullptr;  // this link's queue in the link layer
    // Encoded frames awaiting the kernel. Their envelopes stay counted in
    // egress->queued_envelopes until written.
    std::deque<WireFrame> queue;
    std::size_t front_offset = 0;  // bytes of queue.front() already written
  };
  struct InConn {
    int fd = -1;
    ServerId owner = 0;                 // local server whose acceptor accepted
    ServerId peer = kInvalidServer;     // claimed sender, from frame headers
    FrameDecoder decoder;
    bool dead = false;
  };

  void poll_loop() override;
  // These run with mu_ held.
  void close_locked() override;
  void dial(ServerId to, OutConn& out);
  // Fails the connection, writing off the frames it had in flight.
  void fail_out(OutConn& out);
  void service_in(InConn& in);
  void flush_out(ServerId from, ServerId to, OutConn& out);
  std::chrono::steady_clock::duration reconnect_backoff();

  std::map<std::pair<ServerId, ServerId>, OutConn> out_;  // (from, to)
  std::vector<std::unique_ptr<InConn>> in_;
  std::uint64_t reconnect_prng_ = kTcpReconnectJitterSeed;  // jitter stream
  TcpStats stats_;  // the TCP-only fields; the rest live in the link layer
};

}  // namespace blockdag::rt
