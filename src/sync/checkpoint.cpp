#include "sync/checkpoint.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "util/serialize.h"

namespace blockdag::sync {

namespace {

// Per-builder tips: the only blocks whose PIs can still be read (Algorithm
// 2 line 4 copies states from the parent, and only a builder's latest
// block can be the parent of its next one).
std::unordered_set<Hash256> builder_tips(const BlockDag& dag) {
  std::map<ServerId, std::pair<SeqNo, Hash256>> best;
  for (const BlockPtr& b : dag.topological_order()) {
    const auto it = best.find(b->n());
    if (it == best.end() || b->k() > it->second.first) {
      best[b->n()] = {b->k(), b->ref()};
    }
  }
  std::unordered_set<Hash256> tips;
  for (const auto& [n, kv] : best) {
    (void)n;
    tips.insert(kv.second);
  }
  return tips;
}

Bytes encode_payload(const Checkpoint& cp) {
  Writer w;
  w.u64(cp.epoch);
  w.u32(cp.self);
  w.u32(cp.n_servers);
  w.u64(cp.next_k);
  w.u32(static_cast<std::uint32_t>(cp.building_preds.size()));
  for (const Hash256& h : cp.building_preds) w.raw(h.span());
  w.u32(static_cast<std::uint32_t>(cp.horizon.size()));
  for (const Hash256& h : cp.horizon) w.raw(h.span());
  w.u32(static_cast<std::uint32_t>(cp.blocks.size()));
  for (const Bytes& b : cp.blocks) w.bytes(b);
  for (const CheckpointRecord& rec : cp.records) {
    w.bytes(rec.digest);
    w.u32(static_cast<std::uint32_t>(rec.ms_out.size()));
    for (const auto& [label, msgs] : rec.ms_out) {
      w.u64(label);
      w.u32(static_cast<std::uint32_t>(msgs.size()));
      for (const Message& m : msgs) w.raw(m.canonical());
    }
    w.u32(static_cast<std::uint32_t>(rec.pis.size()));
    for (const auto& [label, state] : rec.pis) {
      w.u64(label);
      w.bytes(state);
    }
  }
  w.u32(static_cast<std::uint32_t>(cp.indications.size()));
  for (const UserIndication& ind : cp.indications) {
    w.u64(ind.label);
    w.bytes(ind.indication);
    w.u64(ind.at);
  }
  return std::move(w).take();
}

bool read_hashes(Reader& r, std::vector<Hash256>& out) {
  const auto count = r.u32();
  // Count bounded by actual bytes BEFORE the reserve (forged-count
  // hardening, same as Block::decode).
  if (!count || *count > r.remaining() / Hash256::kSize) return false;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto raw = r.raw(Hash256::kSize);
    if (!raw) return false;
    Sha256::Digest d;
    std::copy(raw->begin(), raw->end(), d.begin());
    out.emplace_back(d);
  }
  return true;
}

std::optional<Checkpoint> decode_payload(const Bytes& payload) {
  Checkpoint cp;
  Reader r(payload);
  const auto epoch = r.u64();
  const auto self = r.u32();
  const auto n_servers = r.u32();
  const auto next_k = r.u64();
  if (!epoch || !self || !n_servers || !next_k) return std::nullopt;
  cp.epoch = *epoch;
  cp.self = *self;
  cp.n_servers = *n_servers;
  cp.next_k = *next_k;
  if (!read_hashes(r, cp.building_preds)) return std::nullopt;
  if (!read_hashes(r, cp.horizon)) return std::nullopt;

  const auto n_blocks = r.u32();
  if (!n_blocks || *n_blocks > r.remaining()) return std::nullopt;
  cp.blocks.reserve(*n_blocks);
  for (std::uint32_t i = 0; i < *n_blocks; ++i) {
    auto b = r.bytes();
    if (!b) return std::nullopt;
    cp.blocks.push_back(std::move(*b));
  }
  cp.records.reserve(*n_blocks);
  for (std::uint32_t i = 0; i < *n_blocks; ++i) {
    CheckpointRecord rec;
    auto digest = r.bytes();
    // The digest is returned verbatim by Interpreter::digest_of after
    // restore; anything but a SHA-256 output is malformed.
    if (!digest || digest->size() != Sha256::kDigestSize) return std::nullopt;
    rec.digest = std::move(*digest);
    const auto n_out = r.u32();
    if (!n_out || *n_out > r.remaining()) return std::nullopt;
    rec.ms_out.reserve(*n_out);
    for (std::uint32_t j = 0; j < *n_out; ++j) {
      const auto label = r.u64();
      const auto n_msgs = r.u32();
      if (!label || !n_msgs || *n_msgs > r.remaining()) return std::nullopt;
      if (!rec.ms_out.empty() && *label <= rec.ms_out.back().first) {
        return std::nullopt;  // canonical: labels strictly ascending
      }
      std::vector<Message> msgs;
      msgs.reserve(*n_msgs);
      for (std::uint32_t m = 0; m < *n_msgs; ++m) {
        auto msg = Message::decode_canonical(r);
        if (!msg) return std::nullopt;
        msgs.push_back(std::move(*msg));
      }
      rec.ms_out.emplace_back(*label, std::move(msgs));
    }
    const auto n_pis = r.u32();
    if (!n_pis || *n_pis > r.remaining()) return std::nullopt;
    rec.pis.reserve(*n_pis);
    for (std::uint32_t j = 0; j < *n_pis; ++j) {
      const auto label = r.u64();
      auto state = r.bytes();
      if (!label || !state) return std::nullopt;
      if (!rec.pis.empty() && *label <= rec.pis.back().first) {
        return std::nullopt;
      }
      rec.pis.emplace_back(*label, std::move(*state));
    }
    cp.records.push_back(std::move(rec));
  }

  const auto n_inds = r.u32();
  if (!n_inds || *n_inds > r.remaining()) return std::nullopt;
  cp.indications.reserve(*n_inds);
  for (std::uint32_t i = 0; i < *n_inds; ++i) {
    const auto label = r.u64();
    auto ind = r.bytes();
    const auto at = r.u64();
    if (!label || !ind || !at) return std::nullopt;
    cp.indications.push_back(UserIndication{*label, std::move(*ind), *at});
  }
  if (!r.done()) return std::nullopt;  // trailing garbage
  return cp;
}

}  // namespace

std::optional<CheckpointSnapshot> snapshot_checkpoint(const Shim& shim) {
  const BlockDag& dag = shim.dag();
  const Interpreter& interp = shim.interpreter();
  const std::unordered_set<Hash256> tips = builder_tips(dag);

  CheckpointSnapshot snap;
  snap.self = shim.self();
  snap.next_k = shim.gossip().next_seq();
  snap.building_preds = shim.gossip().building_preds();

  std::unordered_set<Hash256> horizon_seen;
  for (const BlockPtr& b : dag.topological_order()) {
    const BlockInterpretation* st = interp.state_of(b->ref());
    // Checkpoints are cut at an interpretation fixpoint; an uninterpreted
    // live block means the caller should retry after the next tick.
    if (!st || !st->interpreted) return std::nullopt;

    for (const Hash256& p : b->preds()) {
      if (!dag.contains(p) && horizon_seen.insert(p).second) {
        snap.horizon.push_back(p);
      }
    }
    CheckpointSnapshot::LiveBlock live;
    live.block = b;
    live.builder_tip = tips.count(b->ref()) != 0;
    live.pis = st->pis;
    if (st->cached_digest.empty()) live.ms_in = st->ms_in;
    live.ms_out = st->ms_out;
    live.cached_digest = st->cached_digest;
    snap.blocks.push_back(std::move(live));
  }
  snap.indications = shim.indications();
  return snap;
}

std::optional<Checkpoint> build_checkpoint(const CheckpointSnapshot& snap,
                                           std::uint64_t epoch,
                                           std::uint32_t n_servers) {
  Checkpoint cp;
  cp.epoch = epoch;
  cp.self = snap.self;
  cp.n_servers = n_servers;
  cp.next_k = snap.next_k;
  cp.building_preds = snap.building_preds;
  cp.horizon = snap.horizon;
  cp.blocks.reserve(snap.blocks.size());
  cp.records.reserve(snap.blocks.size());
  for (const CheckpointSnapshot::LiveBlock& live : snap.blocks) {
    CheckpointRecord rec;
    rec.digest = live.cached_digest.empty()
                     ? interpretation_digest_of(true, live.pis, live.ms_in,
                                                live.ms_out)
                     : live.cached_digest;
    rec.ms_out.reserve(live.ms_out.size());
    for (const auto& [label, msgs] : live.ms_out) {
      rec.ms_out.emplace_back(label, msgs);
    }
    if (live.builder_tip) {
      rec.pis.reserve(live.pis.size());
      for (const auto& [label, instance] : live.pis) {
        Bytes state = instance->process().serialize();
        // An empty serialization marks a protocol without checkpoint
        // support (Process::serialize default) — checkpointing is off for
        // such deployments.
        if (state.empty()) return std::nullopt;
        rec.pis.emplace_back(label, std::move(state));
      }
    }
    cp.blocks.push_back(live.block->encode());
    cp.records.push_back(std::move(rec));
  }
  cp.indications = snap.indications;
  return cp;
}

std::optional<Checkpoint> build_checkpoint(const Shim& shim,
                                           std::uint64_t epoch,
                                           std::uint32_t n_servers) {
  const auto snap = snapshot_checkpoint(shim);
  if (!snap) return std::nullopt;
  return build_checkpoint(*snap, epoch, n_servers);
}

Bytes checkpoint_preimage(const Checkpoint& cp) {
  // σ signs (version ‖ payload) so a version byte swap also breaks the
  // signature, not just the decode.
  Bytes preimage;
  preimage.push_back(kCheckpointVersion);
  const Bytes payload = encode_payload(cp);
  preimage.insert(preimage.end(), payload.begin(), payload.end());
  return preimage;
}

Bytes seal_checkpoint(const Bytes& preimage, const Bytes& sigma) {
  Writer w;
  w.u8(kCheckpointVersion);
  w.bytes(std::span<const std::uint8_t>(preimage).subspan(1));
  w.bytes(sigma);
  return std::move(w).take();
}

Bytes encode_signed_checkpoint(const Checkpoint& cp, SignatureProvider& sigs) {
  const Bytes preimage = checkpoint_preimage(cp);
  return seal_checkpoint(preimage, sigs.sign(cp.self, preimage));
}

std::optional<Checkpoint> decode_signed_checkpoint(const Bytes& wire,
                                                   SignatureProvider* sigs,
                                                   ServerId expected_signer) {
  Reader r(wire);
  const auto version = r.u8();
  if (!version || *version != kCheckpointVersion) return std::nullopt;
  auto payload = r.bytes();
  auto sigma = r.bytes();
  if (!payload || !sigma || !r.done()) return std::nullopt;
  if (sigs != nullptr) {
    Bytes preimage;
    preimage.push_back(*version);
    preimage.insert(preimage.end(), payload->begin(), payload->end());
    if (!sigs->verify(expected_signer, preimage, *sigma)) return std::nullopt;
  }
  auto cp = decode_payload(*payload);
  if (!cp || cp->self != expected_signer) return std::nullopt;
  return cp;
}

bool restore_checkpoint(Shim& shim, const Checkpoint& cp) {
  if (!shim.restoring()) return false;  // must run inside begin_restore()
  if (cp.blocks.size() != cp.records.size()) return false;
  if (cp.self != shim.self()) return false;

  std::vector<BlockPtr> blocks;
  blocks.reserve(cp.blocks.size());
  for (const Bytes& wire : cp.blocks) {
    auto block = Block::decode(wire);
    if (!block) return false;
    blocks.push_back(std::make_shared<const Block>(std::move(*block)));
  }
  if (!shim.gossip().restore_parts(cp.horizon, blocks, cp.next_k,
                                   cp.building_preds)) {
    return false;
  }

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const CheckpointRecord& rec = cp.records[i];
    FlatMap<Label, std::vector<Message>> ms_out;
    ms_out.reserve(rec.ms_out.size());
    for (const auto& [label, msgs] : rec.ms_out) ms_out[label] = msgs;
    if (!shim.interpreter().restore_block(blocks[i]->ref(), rec.digest,
                                          std::move(ms_out), rec.pis)) {
      return false;
    }
  }
  shim.restore_indications(cp.indications);
  return true;
}

}  // namespace blockdag::sync
