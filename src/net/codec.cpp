#include "net/codec.h"

#include <cassert>

#include "net/frame.h"

namespace blockdag {

Bytes encode_tagged(WireKind kind, std::span<const std::uint8_t> body) {
  assert(kind < WireKind::kCount);
  Bytes out;
  out.reserve(1 + body.size());
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<TaggedView> split_tagged(std::span<const std::uint8_t> wire) {
  if (wire.empty()) return std::nullopt;
  const std::uint8_t tag = wire[0];
  if (tag >= static_cast<std::uint8_t>(WireKind::kCount)) return std::nullopt;
  return TaggedView{static_cast<WireKind>(tag), wire.subspan(1)};
}

Bytes encode_batch(std::span<const std::span<const std::uint8_t>> inners) {
  assert(!inners.empty());
  std::size_t total = 1;
  for (const auto& inner : inners) total += 4 + inner.size();
  Bytes out;
  out.reserve(total);
  out.push_back(static_cast<std::uint8_t>(WireKind::kBatch));
  for (const auto& inner : inners) {
    assert(!inner.empty());
    assert(inner[0] < static_cast<std::uint8_t>(WireKind::kCount));
    assert(inner[0] != static_cast<std::uint8_t>(WireKind::kBatch));
    const std::uint32_t len = static_cast<std::uint32_t>(inner.size());
    out.push_back(static_cast<std::uint8_t>(len & 0xff));
    out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
    out.insert(out.end(), inner.begin(), inner.end());
  }
  return out;
}

std::optional<std::vector<BatchEntry>> split_batch(
    std::span<const std::uint8_t> wire) {
  if (wire.empty()) return std::nullopt;
  if (wire[0] != static_cast<std::uint8_t>(WireKind::kBatch)) return std::nullopt;
  std::span<const std::uint8_t> rest = wire.subspan(1);
  std::vector<BatchEntry> entries;
  while (!rest.empty()) {
    // A forged length can claim up to 4 GiB; checking it against the bytes
    // actually remaining *before* recording the entry means a lie costs
    // the attacker the whole batch and us no allocation.
    if (rest.size() < 4) return std::nullopt;
    const std::uint32_t len = static_cast<std::uint32_t>(rest[0]) |
                              (static_cast<std::uint32_t>(rest[1]) << 8) |
                              (static_cast<std::uint32_t>(rest[2]) << 16) |
                              (static_cast<std::uint32_t>(rest[3]) << 24);
    rest = rest.subspan(4);
    if (len == 0 || len > rest.size()) return std::nullopt;
    const std::span<const std::uint8_t> inner = rest.first(len);
    const std::uint8_t tag = inner[0];
    if (tag >= static_cast<std::uint8_t>(WireKind::kCount)) return std::nullopt;
    if (tag == static_cast<std::uint8_t>(WireKind::kBatch)) return std::nullopt;
    entries.push_back(BatchEntry{static_cast<WireKind>(tag), inner});
    rest = rest.subspan(len);
  }
  if (entries.empty()) return std::nullopt;
  return entries;
}

PackedFrame pack_frame(ServerId from, std::deque<Envelope>& queue,
                       std::size_t batch_byte_limit) {
  assert(!queue.empty());
  std::size_t take = 1;
  std::size_t batch_bytes = 1 + 4 + queue.front().payload->size();
  while (take < queue.size() && take < kMaxBatchEnvelopes) {
    const std::size_t next = 4 + queue[take].payload->size();
    if (batch_bytes + next > batch_byte_limit) break;
    batch_bytes += next;
    ++take;
  }
  PackedFrame packed;
  packed.envelopes = take;
  if (take == 1) {
    const Envelope& e = queue.front();
    packed.frame =
        encode_frame(FrameHeader{kFrameVersion, e.kind, from}, *e.payload);
    packed.payload_bytes = e.payload->size();
  } else {
    std::vector<std::span<const std::uint8_t>> inners;
    inners.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      inners.emplace_back(*queue[i].payload);
      packed.payload_bytes += queue[i].payload->size();
    }
    packed.frame = encode_frame(FrameHeader{kFrameVersion, WireKind::kBatch, from},
                                encode_batch(inners));
  }
  queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(take));
  return packed;
}

}  // namespace blockdag
