// Transport: the message-passing seam between the protocol stack and
// whatever actually moves bytes.
//
// Algorithm 1 only assumes reliable eventual delivery between correct
// servers (Assumption 1) — nothing about *how* messages move. Everything
// above this interface (gossip, shim, the direct-network baseline) is
// written sans-io against it; everything below is an interchangeable
// substrate:
//   * SimNetwork (sim/network.h) — the deterministic discrete-event
//     simulation, with latency models, drops, partitions and partial
//     synchrony;
//   * LoopbackTransport (rt/loopback_transport.h) — an in-process
//     multi-threaded runtime, one mailbox per server;
//   * TcpTransport (rt/tcp_transport.h) — real localhost/LAN TCP sockets,
//     framed by net/frame.h, spanning one or several OS processes;
//   * UdpTransport (rt/udp_transport.h) — real UDP datagrams with
//     userspace reliability (net/datagram.h) and in-path fault injection.
// The two socket backends share one link layer above the syscall
// (rt/link_layer.h).
//
// Delivery contract: the transport invokes the attached handler with the
// complete payload of one send. Handlers run one at a time per server
// (single-writer-per-server; see rqsts in gossip/request_buffer.h) — the
// simulator guarantees this trivially, threaded transports by funnelling
// all of a server's events through one mailbox drained by one thread.
// Byzantine senders may deliver arbitrary bytes; receivers must treat the
// payload as untrusted (decode_wire returns nullopt on garbage).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/types.h"

namespace blockdag {

// Traffic classes, so benches can attribute wire cost.
enum class WireKind : std::uint8_t {
  kBlock = 0,      // gossip block dissemination
  kFwdRequest,     // gossip FWD ref(B) requests
  kFwdReply,       // gossip replies carrying a full block
  kProtocol,       // baseline protocols' direct messages
  kControl,        // runtime control plane (multi-process digest exchange);
                   // never delivered to the protocol stack
  kSyncRequest,    // state sync: "send me your checkpoint + recent blocks"
  kSyncManifest,   // state sync: payload size/hash announcement
  kSyncChunk,      // state sync: one chunk of the sync payload
  kSyncDone,       // state sync: provider has no more chunks / refusal
  kBatch,          // envelope coalescing: a length-prefixed sequence of
                   // inner envelopes (net/codec encode_batch/split_batch);
                   // never nested, unpacked by the transport on receive
  kCount,
};

const char* wire_kind_name(WireKind kind);

// Wire metrics (message and byte counts per traffic class), which feed the
// compression benchmarks (DESIGN.md CLAIM-COMPRESS). Self-sends are local
// and never counted.
struct WireMetrics {
  std::uint64_t messages[static_cast<std::size_t>(WireKind::kCount)] = {};
  std::uint64_t bytes[static_cast<std::size_t>(WireKind::kCount)] = {};
  std::uint64_t dropped = 0;

  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;
  void reset() { *this = WireMetrics{}; }
};

// One tagged payload awaiting the wire: what a single send() would carry.
// The payload is shared so a broadcast can hand the same buffer to every
// peer queue without copying.
struct Envelope {
  WireKind kind = WireKind::kCount;
  std::shared_ptr<const Bytes> payload;
};

class Transport {
 public:
  // Receives (from, payload) on the attached server. `from` is transport
  // metadata (who the substrate says sent this), not authenticated — all
  // trust decisions live in signatures carried inside the payload.
  using Handler = std::function<void(ServerId from, const Bytes& payload)>;

  virtual ~Transport() = default;

  // Registers (or replaces, with an empty handler: detaches) the ingress
  // handler of `server`. Deliveries to a detached server are dropped.
  virtual void attach(ServerId server, Handler handler) = 0;

  // Number of servers this transport connects.
  virtual std::uint32_t size() const = 0;

  // Sends `payload` from `from` to `to`. Reliable between correct servers
  // in the "eventual" sense of Assumption 1: a transport may delay,
  // reorder, or transiently drop (the gossip FWD path recovers), but must
  // not lose messages forever.
  virtual void send(ServerId from, ServerId to, WireKind kind, Bytes payload) = 0;

  // Sends to every server including `from` itself (self-delivery is local
  // and free of wire cost, matching Algorithm 1 line 17 where a server
  // trivially has its own block). Implementations should encode/share the
  // payload once across the n−1 remote recipients.
  virtual void broadcast(ServerId from, WireKind kind, const Bytes& payload) = 0;

  // Batched variants: hand the transport several ready envelopes for the
  // same destination in one call, so socket backends can coalesce them
  // into one wire frame / one wakeup (DESIGN.md §13). Semantically
  // identical to calling send()/broadcast() once per envelope in order —
  // the defaults do exactly that, which keeps the deterministic simulator
  // byte-identical whether or not callers batch.
  virtual void send_many(ServerId from, ServerId to,
                         const std::vector<Envelope>& envelopes) {
    for (const Envelope& e : envelopes) send(from, to, e.kind, *e.payload);
  }
  virtual void broadcast_many(ServerId from,
                              const std::vector<Envelope>& envelopes) {
    for (const Envelope& e : envelopes) broadcast(from, e.kind, *e.payload);
  }

  // Snapshot of the wire counters. Thread-safe on concurrent transports.
  virtual WireMetrics wire_metrics() const = 0;
};

}  // namespace blockdag
