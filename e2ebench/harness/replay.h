// Serial per-layer replay of one server's block history.
//
// After a traced run the harness feeds the blocks a server inserted, in its
// insertion order, through each layer's public functions one at a time —
// encode_block_envelope/decode_wire (net), SignatureProvider::verify
// (crypto), BlockDag::insert (dag), Interpreter::run (interpret, with a
// TimingFactory so protocol time can be split off) — and times each call.
// On one thread and without a network in between, the layer times add up
// and can be compared across layers and workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "dag/block.h"
#include "protocol/protocol.h"

namespace e2ebench {

struct ReplayResult {
  bool ok = false;
  std::string error;
  std::size_t blocks = 0;
  std::size_t empty_blocks = 0;       // rs empty
  std::size_t requests = 0;           // sum of |rs|
  std::uint64_t wire_bytes = 0;       // encoded block envelopes
  std::uint64_t codec_ns = 0;         // encode + decode
  std::uint64_t verify_ns = 0;
  std::uint64_t insert_ns = 0;
  std::uint64_t interpret_ns = 0;     // Interpreter::run, protocol calls included
  std::uint64_t protocol_ns = 0;      // on_request + on_message + clone
  blockdag::Bytes interpretation_digest;  // of the replayed DAG
};

// One replay pass over `blocks`. `sigs` is reused across passes, so its
// lazily filled caches are warm on the second. `gc_every` > 0 applies the
// checkpointer's epoch GC (prune below all n tips) every that many
// interpreted blocks, as the live server did; the pruning itself is not
// timed.
ReplayResult replay_pass(const std::vector<blockdag::BlockPtr>& blocks,
                         const blockdag::ProtocolFactory& factory,
                         blockdag::SignatureProvider& sigs,
                         std::uint32_t n_servers, std::uint64_t gc_every);

}  // namespace e2ebench
