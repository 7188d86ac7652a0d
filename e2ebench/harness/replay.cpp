#include "replay.h"

#include <optional>
#include <variant>

#include "dag/dag.h"
#include "decorators.h"
#include "gossip/wire.h"
#include "interpret/interpreter.h"
#include "rt/threaded_runtime.h"

namespace e2ebench {

using namespace blockdag;

namespace {

// GossipServer::collect_garbage's rule on a bare DAG: prune every block
// below the highest-seqno live block of each of the n builders.
void collect_garbage(BlockDag& dag, Interpreter& interp, std::uint32_t n) {
  std::vector<std::optional<std::pair<SeqNo, Hash256>>> best(n);
  for (const BlockPtr& b : dag.topological_order()) {
    if (b->n() >= n) continue;
    auto& slot = best[b->n()];
    if (!slot || b->k() > slot->first) slot.emplace(b->k(), b->ref());
  }
  std::vector<Hash256> tips;
  for (const auto& slot : best) {
    if (!slot) return;
    tips.push_back(slot->second);
  }
  if (dag.prune_common_ancestors(tips) != 0) interp.forget_pruned();
}

}  // namespace

ReplayResult replay_pass(const std::vector<BlockPtr>& blocks,
                         const ProtocolFactory& factory, SignatureProvider& sigs,
                         std::uint32_t n_servers, std::uint64_t gc_every) {
  ReplayResult r;
  BlockDag dag;
  TimingFactory timed(factory);
  Interpreter interp(dag, timed, n_servers);
  std::uint64_t interpreted_since_gc = 0;
  for (const BlockPtr& original : blocks) {
    std::int64_t t0 = now_ns();
    const Bytes wire = encode_block_envelope(*original, WireKind::kBlock);
    std::optional<WireMessage> decoded = decode_wire(wire);
    r.codec_ns += static_cast<std::uint64_t>(now_ns() - t0);
    r.wire_bytes += wire.size();
    auto* envelope = decoded ? std::get_if<BlockEnvelope>(&*decoded) : nullptr;
    if (envelope == nullptr) {
      r.error = "replay: block envelope failed to decode";
      return r;
    }
    auto block = std::make_shared<const Block>(std::move(envelope->block));
    ++r.blocks;
    r.requests += block->rs().size();
    if (block->rs().empty()) ++r.empty_blocks;

    t0 = now_ns();
    const bool valid = sigs.verify(block->n(), block->ref().span(), block->sigma());
    r.verify_ns += static_cast<std::uint64_t>(now_ns() - t0);
    if (!valid) {
      r.error = "replay: signature of a live block failed to verify";
      return r;
    }

    t0 = now_ns();
    const bool inserted = dag.insert(block);
    r.insert_ns += static_cast<std::uint64_t>(now_ns() - t0);
    if (!inserted) {
      r.error = "replay: block did not insert in recorded order";
      return r;
    }

    t0 = now_ns();
    interpreted_since_gc += interp.run();
    r.interpret_ns += static_cast<std::uint64_t>(now_ns() - t0);
    if (gc_every != 0 && interpreted_since_gc >= gc_every) {
      collect_garbage(dag, interp, n_servers);
      interpreted_since_gc = 0;
    }
  }
  const CallTotals calls = timed.totals();
  r.protocol_ns = calls.busy_ns() + calls.clone_ns;
  r.interpretation_digest = rt::interpretation_digest(interp, dag);
  r.ok = true;
  return r;
}

}  // namespace e2ebench
