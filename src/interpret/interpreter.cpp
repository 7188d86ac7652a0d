#include "interpret/interpreter.h"

#include <cassert>
#include <utility>

#include "crypto/sha256.h"
#include "util/serialize.h"

namespace blockdag {

Interpreter::Interpreter(const BlockDag& dag, const ProtocolFactory& factory,
                         std::uint32_t n_servers)
    : dag_(dag), factory_(factory), n_servers_(n_servers) {}

bool Interpreter::is_interpreted(const Hash256& ref) const {
  return interpreted_at(dag_.index_of(ref));
}

bool Interpreter::eligible_at(BlockIdx idx) const {
  // eligible(B): B ∈ G, I[B] = false, and I[Bi] for every Bi ∈ B.preds.
  // A pruned-then-forgotten pred reads as uninterpreted, exactly like the
  // hash-keyed representation did.
  if (!dag_.alive(idx) || interpreted_at(idx)) return false;
  for (BlockIdx p : dag_.preds_of(idx)) {
    if (!interpreted_at(p)) return false;
  }
  return true;
}

bool Interpreter::eligible(const Hash256& ref) const {
  const BlockIdx idx = dag_.index_of(ref);
  return idx != kNoBlockIdx && eligible_at(idx);
}

const BlockInterpretation* Interpreter::state_at(BlockIdx idx) const {
  return interpreted_at(idx) ? &states_[idx] : nullptr;
}

const BlockInterpretation* Interpreter::state_of(const Hash256& ref) const {
  return state_at(dag_.index_of(ref));
}

std::size_t Interpreter::run() {
  sync_states();
  const std::size_t n = dag_.node_count();
  std::size_t done = 0;
  while (cursor_ < n) {
    if (!dag_.alive(cursor_) || states_[cursor_].interpreted) {
      ++cursor_;
      continue;
    }
    if (!eligible_at(cursor_)) break;  // can only happen after pruning
    interpret_block(cursor_);
    ++cursor_;
    ++done;
  }
  return done;
}

bool Interpreter::interpret_one(const Hash256& ref) {
  sync_states();
  const BlockIdx idx = dag_.index_of(ref);
  if (idx == kNoBlockIdx || !eligible_at(idx)) return false;
  interpret_block(idx);
  return true;
}

void Interpreter::interpret_block(BlockIdx idx) {
  const Block& block = *dag_.block_at(idx);
  const ServerId owner = block.n();
  const std::vector<BlockIdx>& preds = dag_.preds_of(idx);  // deduplicated
  BlockInterpretation st;

  // Line 4: copy the parent's process-instance states. B.PIs is
  // persistent, so this shares the parent's tree; instances clone only when
  // they process an event, and only their tree paths are copied.
  const BlockIdx parent = dag_.parent_of(idx);
  if (parent != kNoBlockIdx && dag_.alive(parent)) {
    assert(states_[parent].interpreted);
    st.pis = states_[parent].pis;
  }

  std::vector<std::pair<Label, Bytes>> raised;  // indications to emit last

  // Tracks per-label mutable working copies so multiple events to the same
  // label within this block clone at most once. A label with no inherited
  // instance starts fresh directly as the working copy (lazy start of
  // P(ℓ, B.n), Section 4) — no immutable placeholder + clone double
  // allocation, and fresh creates are not counted as clones.
  FlatMap<Label, std::unique_ptr<Process>> working;
  const auto working_for = [&](Label label) -> Process& {
    auto wit = working.find(label);
    if (wit == working.end()) {
      std::unique_ptr<Process> instance;
      if (const auto* inherited = st.pis.find(label)) {
        ++stats_.instance_clones;
        instance = (*inherited)->process().clone();
      } else {
        instance = factory_.create(label, owner, n_servers_);
      }
      wit = working.emplace(label, std::move(instance)).first;
    }
    return *wit->second;
  };
  const auto absorb = [&](Label label, StepResult&& result) {
    auto& out = st.ms_out[label];
    for (auto& m : result.messages) {
      ++stats_.messages_materialized;
      out.push_back(std::move(m));
    }
    for (auto& i : result.indications) {
      raised.emplace_back(label, std::move(i));
    }
  };

  // Lines 5–6: feed the literal requests carried by this block, in the
  // order they were inscribed.
  for (const LabeledRequest& lr : block.rs()) {
    ++stats_.requests_processed;
    absorb(lr.label, working_for(lr.label).on_request(lr.request));
  }

  // Lines 7–9: collect in-messages addressed to B.n from the out-buffers
  // of direct predecessors. Ms[in, ℓ] has set semantics (∪), realized by
  // sorting each flat per-label buffer in <M order and dropping duplicates
  // — which also provides the line 10 iteration order.
  FlatMap<Label, std::vector<Message>> inbox;
  for (BlockIdx p : preds) {
    if (!interpreted_at(p)) continue;  // pruned-away ancestor
    for (const auto& [label, msgs] : states_[p].ms_out) {
      for (const Message& m : msgs) {
        if (m.receiver == owner) inbox[label].push_back(m);
      }
    }
  }
  for (auto& [label, msgs] : inbox) {
    std::sort(msgs.begin(), msgs.end(), MessageOrder{});
    msgs.erase(std::unique(msgs.begin(), msgs.end()), msgs.end());
  }

  // Lines 10–11: feed each in-message in <M order; the fed buffers are
  // exactly B.Ms[in].
  for (const auto& [label, msgs] : inbox) {
    for (const Message& m : msgs) {
      ++stats_.messages_delivered;
      absorb(label, working_for(label).on_message(m));
    }
  }
  st.ms_in = std::move(inbox);

  // Commit the advanced instances into B.PIs.
  for (auto& [label, proc] : working) {
    st.pis.insert_or_assign(label, std::make_shared<const Instance>(std::move(proc)));
  }

  // Line 12: I[B] = true.
  st.interpreted = true;
  ++stats_.blocks_interpreted;
  states_[idx] = std::move(st);

  // Lines 13–14: surface indications as (ℓ, i, B.n).
  for (auto& [label, indication] : raised) {
    ++stats_.indications;
    if (on_indication_) on_indication_(label, indication, owner);
  }
}

bool Interpreter::restore_block(
    const Hash256& ref, Bytes cached_digest,
    FlatMap<Label, std::vector<Message>> ms_out,
    const std::vector<std::pair<Label, Bytes>>& pis_serialized) {
  sync_states();
  const BlockIdx idx = dag_.index_of(ref);
  if (idx == kNoBlockIdx || !dag_.alive(idx) || states_[idx].interpreted) {
    return false;
  }
  BlockInterpretation st;
  const ServerId owner = dag_.block_at(idx)->n();
  for (const auto& [label, bytes] : pis_serialized) {
    auto instance = factory_.deserialize(label, owner, n_servers_, bytes);
    if (!instance) return false;
    st.pis.insert_or_assign(label, std::make_shared<const Instance>(std::move(instance)));
  }
  st.ms_out = std::move(ms_out);
  st.cached_digest = std::move(cached_digest);
  st.interpreted = true;
  states_[idx] = std::move(st);
  return true;
}

Bytes interpretation_digest_of(bool interpreted, const InstanceMap& pis,
                               const MessageBuffers& ms_in,
                               const MessageBuffers& ms_out) {
  Writer w;
  w.u8(interpreted ? 1 : 0);
  if (interpreted) {
    w.u32(static_cast<std::uint32_t>(pis.size()));
    for (const auto& [label, instance] : pis) {
      w.u64(label);
      w.bytes(instance->state_digest());
    }
    const auto put_buffers = [&w](const MessageBuffers& ms) {
      w.u32(static_cast<std::uint32_t>(ms.size()));
      for (const auto& [label, msgs] : ms) {
        w.u64(label);
        w.u32(static_cast<std::uint32_t>(msgs.size()));
        for (const Message& m : msgs) w.bytes(m.canonical());
      }
    };
    put_buffers(ms_in);
    put_buffers(ms_out);
  }
  const auto digest = Sha256::digest(w.data());
  return Bytes(digest.begin(), digest.end());
}

Bytes Interpreter::digest_of(const Hash256& ref) const {
  const BlockInterpretation* st = state_of(ref);
  // Checkpoint-restored blocks return the digest computed at first
  // interpretation verbatim (ms_in was consumed, not checkpointed).
  if (st && !st->cached_digest.empty()) return st->cached_digest;
  if (!st) return interpretation_digest_of(false, {}, {}, {});
  return interpretation_digest_of(st->interpreted, st->pis, st->ms_in, st->ms_out);
}

void Interpreter::forget_pruned() {
  sync_states();
  const std::size_t n = dag_.node_count();
  // Slot stability: pruning tombstones slots, it never compacts them —
  // node_count() is monotone, so every states_ slot keeps its meaning.
  assert(states_.size() == n);
  for (BlockIdx i = 0; i < n; ++i) {
    if (!dag_.alive(i)) states_[i] = BlockInterpretation{};
  }
  // Dense indices are stable across pruning, so the cursor's invariant
  // (every slot below it is interpreted or tombstoned) still holds — no
  // rescan from zero. Just skip ahead over now-dead slots so resume_index()
  // points at the first live uninterpreted block.
  while (cursor_ < n && (!dag_.alive(cursor_) || states_[cursor_].interpreted)) {
    ++cursor_;
  }
}

}  // namespace blockdag
