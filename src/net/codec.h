// Tagged-envelope codec: the shared payload framing every backend speaks.
//
// Every Transport payload is self-describing: one WireKind tag byte
// followed by an opaque body. The tag byte used to live inside the gossip
// module (as a private WireTag enum that mirrored WireKind one-for-one);
// it is transport-level framing, not protocol content, so it lives here —
// gossip owns only the *bodies* (blocks and FWD refs, gossip/wire.h),
// exactly like a real stack separates framing from messages.
//
// The envelope is deliberately minimal: on datagram-like substrates
// (SimNetwork, LoopbackTransport) one send carries one envelope and the
// tag is all the receiver needs. On byte-stream substrates (TCP) the
// envelope travels inside a length-prefixed frame (net/frame.h) whose
// header repeats the kind for pre-decode routing; the in-payload tag stays
// authoritative for the protocol decoder, so a payload means the same
// thing on every backend.
#pragma once

#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/transport.h"

namespace blockdag {

// A decoded envelope: the tag and a view of the body (aliases the input).
struct TaggedView {
  WireKind kind;
  std::span<const std::uint8_t> body;
};

// One tag byte + body. `kind` must be a concrete traffic class (< kCount).
Bytes encode_tagged(WireKind kind, std::span<const std::uint8_t> body);

// Splits an envelope into (kind, body view). nullopt on empty input or a
// tag byte that is not a concrete WireKind — byzantine senders may deliver
// arbitrary bytes, so an unknown tag is an ordinary decode failure.
std::optional<TaggedView> split_tagged(std::span<const std::uint8_t> wire);

// --- kBatch envelopes (DESIGN.md §13) ---
//
// Layout: [kBatch tag] then, per inner envelope, [u32 LE length][that many
// bytes] where the bytes are a complete tagged envelope of a concrete kind
// other than kBatch (batches never nest). The whole thing travels as one
// frame/datagram payload, so one syscall and one mailbox wakeup carry many
// blocks/replies.

// One decoded batch entry: the inner tag (for pre-decode routing, e.g. the
// runtime control plane) and a view of the complete inner envelope — tag
// byte included, so the entry can be handed to the same per-envelope
// handlers an unbatched send would reach. Views alias the input buffer.
struct BatchEntry {
  WireKind kind;
  std::span<const std::uint8_t> envelope;
};

// Packs `inners` (each a complete tagged envelope) into one kBatch
// envelope. Callers guarantee each inner is a valid non-batch envelope and
// that the batch is non-empty.
Bytes encode_batch(std::span<const std::span<const std::uint8_t>> inners);

// Splits a kBatch envelope. Hardened against forged bytes: every entry
// length is bounds-checked against the remaining input *before* anything
// is allocated for it, inner tags must name a concrete kind, nested
// batches are refused, and trailing garbage or an empty batch fails the
// whole envelope. nullopt on any violation — the transport drops the
// batch (counted) but must keep the connection live; batch corruption is
// payload-level, not stream-level.
std::optional<std::vector<BatchEntry>> split_batch(
    std::span<const std::uint8_t> wire);

// --- Packing a link's envelope queue into wire frames ---

// Inner envelopes per kBatch frame, on every socket backend. The payload
// byte ceiling differs per backend (kTcpMaxBatchBytes, kUdpMaxBatchBytes).
inline constexpr std::size_t kMaxBatchEnvelopes = 64;

// One wire frame packed from the front of an envelope queue.
struct PackedFrame {
  Bytes frame;                    // a complete net/frame.h frame
  std::size_t envelopes = 0;      // envelopes it carries (>1 = a kBatch)
  std::size_t payload_bytes = 0;  // their payload bytes, summed
};

// The greedy kBatch grouping both socket backends share. Removes the
// longest prefix of `queue` that fits kMaxBatchEnvelopes and a kBatch
// payload of at most `batch_byte_limit` — always at least one envelope — and
// encodes it as one frame from `from`: a lone envelope as a plain frame of
// its own kind, two or more as a kBatch frame. Called at flush time, so the
// grouping adapts to load: an idle link packs the one envelope that woke
// the flush, a backed-up link packs full batches. `queue` must be
// non-empty.
PackedFrame pack_frame(ServerId from, std::deque<Envelope>& queue,
                       std::size_t batch_byte_limit);

}  // namespace blockdag
