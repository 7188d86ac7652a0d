#include "gossip/gossip.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <queue>
#include <utility>

namespace blockdag {

GossipServer::GossipServer(ServerId self, TimerService& timers, Transport& net,
                           SignatureProvider& sigs, RequestBuffer& rqsts,
                           GossipConfig config, SeqNoMode seq_mode)
    : self_(self),
      timers_(timers),
      net_(net),
      sigs_(sigs),
      rqsts_(rqsts),
      config_(config),
      validator_(sigs, seq_mode) {}

void GossipServer::on_network(ServerId from, const Bytes& wire) {
  if (halted_) return;
  auto decoded = decode_wire(wire);
  if (!decoded) return;  // malformed (byzantine) traffic is dropped

  if (auto* env = std::get_if<BlockEnvelope>(&*decoded)) {
    handle_block(std::move(env->block));
  } else if (auto* fwd = std::get_if<FwdRequestEnvelope>(&*decoded)) {
    handle_fwd_request(from, fwd->ref);
  }
}

void GossipServer::handle_block(Block&& block) {
  ++stats_.blocks_received;
  const Hash256 ref = block.ref();
  // Line 4: only blocks not already in G (nor already buffered/rejected,
  // nor awaiting an off-thread signature verdict).
  // known() rather than contains(): re-deliveries of since-pruned history
  // (state sync replays old blocks) are dropped instead of re-accepted.
  if (dag_.known(ref) || pending_.count(ref) || rejected_.count(ref) ||
      verifying_.count(ref))
    return;

  // Definition 3.3(i) can be checked immediately; a bad signature can never
  // become valid, so reject outright. With an async verifier installed the
  // check runs off-thread and the verdict re-enters through on_verified()
  // on this server's own thread.
  if (async_verify_) {
    auto ptr = std::make_shared<const Block>(std::move(block));
    const auto& sigma = ptr->sigma();
    verifying_.emplace(ref, ptr);
    async_verify_(ptr->n(), ref, Bytes(sigma.begin(), sigma.end()),
                  [this, ref](bool ok) { on_verified(ref, ok); });
    return;
  }
  if (!sigs_.verify(block.n(), ref.span(), block.sigma())) {
    mark_rejected(ref);
    ++stats_.blocks_rejected;
    return;
  }

  buffer(ref, std::make_shared<const Block>(std::move(block)));
}

void GossipServer::on_verified(const Hash256& ref, bool ok) {
  if (halted_) return;
  const auto it = verifying_.find(ref);
  if (it == verifying_.end()) return;
  BlockPtr block = std::move(it->second);
  verifying_.erase(it);
  if (!ok) {
    mark_rejected(ref);
    ++stats_.blocks_rejected;
    return;
  }
  if (dag_.known(ref)) return;  // resolved out-of-band while in flight
  buffer(ref, std::move(block));
}

void GossipServer::mark_rejected(const Hash256& ref) {
  if (!rejected_.insert(ref).second) return;
  if (config_.rejected_capacity == 0) return;  // unbounded
  rejected_order_.push_back(ref);
  while (rejected_order_.size() > config_.rejected_capacity) {
    rejected_.erase(rejected_order_.front());
    rejected_order_.pop_front();
    ++stats_.rejected_evicted;
  }
}

void GossipServer::buffer(const Hash256& ref, BlockPtr block) {
  for (const Hash256& p : block->preds()) {
    if (dag_.contains(p)) continue;
    std::vector<Hash256>& waiters = waiting_on_[p];
    if (waiters.empty() || waiters.back() != ref) waiters.push_back(ref);
  }
  pending_.emplace(ref, std::move(block));
  recheck_.push_back(ref);
  sweep_pending();

  // Lines 10–11: for buffered blocks with unknown predecessors, arm a FWD
  // timer towards the builder of the referencing block. The others' missing
  // preds were armed when they arrived, unless rearm_all_ says otherwise.
  const auto arm = [this](const BlockPtr& cand) {
    for (const Hash256& p : cand->preds()) {
      if (!dag_.contains(p) && !pending_.count(p)) schedule_fwd(p, cand->n());
    }
  };
  if (std::exchange(rearm_all_, false)) {
    for (const auto& entry : pending_) arm(entry.second);
  } else if (const auto it = pending_.find(ref); it != pending_.end()) {
    arm(it->second);
  }
}

ValidityError GossipServer::pending_verdict(const Block& cand) const {
  // σ was verified once at ingress (handle_block); only the structural
  // conditions can change as the DAG grows.
  // A pred that was pruned can never come back: in crash-fault runs
  // every direct referencer of a pruned block was already in the DAG
  // when GC ran (the tip-closure argument in collect_garbage), so a
  // *new* block referencing pruned history can only be byzantine-built
  // — reject it instead of FWD-chasing a block nobody stores anymore.
  const bool pruned_pred =
      std::any_of(cand.preds().begin(), cand.preds().end(),
                  [this](const Hash256& p) { return dag_.known(p) && !dag_.contains(p); });
  return pruned_pred ? ValidityError::kNoParent
                     : validator_.check(cand, dag_, /*skip_signature=*/true);
}

void GossipServer::sweep_pending() {
  // Lines 6–9: insert every buffered block that became valid, until a
  // fixed point. The outcome is that of scanning blks in its iteration order
  // pass after pass until one changes nothing; it fixes the order of the
  // references in the block under construction, so it is kept exactly. But
  // a scan is O(|blks|) per arrival, and a server walking a gap back by FWD
  // buffers thousands. So only blocks that can have left kMissingPred are
  // visited, each at the (pass, position) where the scan would reach it.
  std::vector<Hash256> seeds = std::exchange(recheck_, {});
  std::erase_if(seeds, [this](const Hash256& ref) {
    const auto it = pending_.find(ref);
    return it == pending_.end() || pending_verdict(*it->second) == ValidityError::kMissingPred;
  });
  if (seeds.empty()) return;

  // Erasing from an unordered_map keeps the others' iteration order.
  std::vector<Hash256> order;
  std::unordered_map<Hash256, std::size_t> position;
  for (const auto& entry : pending_) {
    position.emplace(entry.first, order.size());
    order.push_back(entry.first);
  }
  using Visit = std::pair<std::size_t, std::size_t>;  // (pass, position)
  std::priority_queue<Visit, std::vector<Visit>, std::greater<>> visits;
  for (const Hash256& ref : seeds) visits.push({0, position.at(ref)});

  while (!visits.empty()) {
    const Visit at = visits.top();
    visits.pop();
    const auto it = pending_.find(order[at.second]);
    if (it == pending_.end()) continue;  // decided at an earlier visit
    const BlockPtr cand = it->second;
    const ValidityError err = pending_verdict(*cand);
    if (err == ValidityError::kMissingPred) continue;
    pending_.erase(it);
    if (err == ValidityError::kOk) {
      insert_valid(cand);  // every pred it waited on entered G before it
    } else {
      for (const Hash256& p : cand->preds()) {
        const auto waiters = waiting_on_.find(p);
        if (waiters == waiting_on_.end()) continue;
        std::erase(waiters->second, cand->ref());
        if (waiters->second.empty()) waiting_on_.erase(waiters);
      }
      mark_rejected(cand->ref());
      ++stats_.blocks_rejected;
      rearm_all_ = true;  // its referencers now miss it
    }
    // The scan reaches a woken block later in this pass, or in the next.
    for (const Hash256& ref : std::exchange(recheck_, {})) {
      const std::size_t pos = position.at(ref);
      visits.push({pos > at.second ? at.first : at.first + 1, pos});
    }
  }
}

void GossipServer::insert_valid(const BlockPtr& block) {
  const bool ok = dag_.insert(block);
  assert(ok);
  (void)ok;
  wake_waiters(block->ref());
  ++stats_.blocks_inserted;
  // Line 8: reference the newly valid block in the block under
  // construction. This runs exactly once per block — insertion is gated on
  // DAG membership — which is Lemma A.6 (at most one reference),
  // the ingredient of no-duplication (Lemma 4.3(2)).
  building_preds_.push_back(block->ref());
  if (on_inserted_) on_inserted_(block);
}

void GossipServer::wake_waiters(const Hash256& inserted) {
  const auto it = waiting_on_.find(inserted);
  if (it == waiting_on_.end()) return;
  recheck_.insert(recheck_.end(), it->second.begin(), it->second.end());
  waiting_on_.erase(it);
}

void GossipServer::schedule_fwd(const Hash256& missing, ServerId ask) {
  if (fwd_armed_.count(missing)) return;
  fwd_armed_.insert(missing);
  timers_.schedule_after(config_.fwd_retry_delay,
                         [this, missing, ask] { fire_fwd(missing, ask, 1); });
}

void GossipServer::fire_fwd(const Hash256& missing, ServerId ask, std::uint32_t attempt) {
  if (halted_) return;
  // known(), not contains(): the block may have arrived (e.g. via state
  // sync) and *already been pruned* by a checkpoint-epoch GC before this
  // timer fired. Re-requesting pruned history would loop forever — every
  // reply is idempotently dropped as known-pruned — pinning a timer that
  // keeps the runtime from ever going idle.
  if (dag_.known(missing) || pending_.count(missing)) {
    fwd_armed_.erase(missing);
    return;  // resolved meanwhile
  }
  ++stats_.fwd_requests_sent;
  net_send(ask, WireKind::kFwdRequest, encode_fwd_request(missing));
  if (config_.max_fwd_retries != 0 && attempt >= config_.max_fwd_retries) {
    fwd_armed_.erase(missing);
    rearm_all_ = true;
    return;  // give up: only byzantine-referenced blocks can dangle forever
  }
  timers_.schedule_after(config_.fwd_retry_delay, [this, missing, ask, attempt] {
    fire_fwd(missing, ask, attempt + 1);
  });
}

void GossipServer::handle_fwd_request(ServerId from, const Hash256& ref) {
  // Lines 12–13: answer only for blocks we actually hold in G.
  const BlockPtr block = dag_.get(ref);
  if (!block) return;
  ++stats_.fwd_replies_sent;
  net_send(from, WireKind::kFwdReply,
           encode_block_envelope(*block, WireKind::kFwdReply));
}

void GossipServer::disseminate(bool even_if_empty) {
  if (halted_) return;
  std::vector<LabeledRequest> rs = rqsts_.get(config_.max_requests_per_block);

  if (!even_if_empty && rs.empty()) {
    // Nothing to say: no requests and no references beyond our own parent.
    const std::size_t baseline = next_k_ > 0 ? 1 : 0;
    if (building_preds_.size() <= baseline) return;
  }

  // Line 15: stamp requests and sign. σ signs ref(B), which covers
  // (n, k, preds, rs) but not σ itself (Definition 3.1).
  const Hash256 ref = Block::compute_ref(self_, next_k_, building_preds_, rs);
  Bytes sigma = sigs_.sign(self_, ref.span());
  auto block = std::make_shared<const Block>(self_, next_k_, building_preds_,
                                             std::move(rs), std::move(sigma));
  assert(block->ref() == ref);

  // Line 16: our own block is valid by construction — every referenced
  // block is already in G and our parent linkage is correct (Lemma A.4).
  assert(validator_.valid(*block, dag_));
  const bool ok = dag_.insert(block);
  assert(ok);
  (void)ok;
  wake_waiters(ref);
  ++stats_.blocks_built;
  ++stats_.blocks_inserted;
  if (on_inserted_) on_inserted_(block);
  // The insert hook may fail-stop this server (its block log refused the
  // block): the block must then never be sent and k must not advance.
  if (halted_) return;

  // Line 17: send B to every server. (Self-delivery short-circuits: the
  // block is already in G, so the receive path ignores it.)
  net_broadcast(WireKind::kBlock, encode_block_envelope(*block, WireKind::kBlock));

  // Line 18: start the next block with the parent reference.
  ++next_k_;
  building_preds_.assign(1, ref);
}

void GossipServer::net_send(ServerId to, WireKind kind, Bytes payload) {
  if (!egress_batching_) {
    net_.send(self_, to, kind, std::move(payload));
    return;
  }
  egress_.push_back(EgressEntry{
      to, Envelope{kind, std::make_shared<const Bytes>(std::move(payload))}});
}

void GossipServer::net_broadcast(WireKind kind, const Bytes& payload) {
  if (!egress_batching_) {
    net_.broadcast(self_, kind, payload);
    return;
  }
  egress_.push_back(EgressEntry{
      kInvalidServer, Envelope{kind, std::make_shared<const Bytes>(payload)}});
}

void GossipServer::set_egress_batching(bool on) {
  if (!on) flush_egress();
  egress_batching_ = on;
}

void GossipServer::flush_egress() {
  if (egress_.empty()) return;
  if (halted_) {
    // A crashed server emits no ghost traffic; what it buffered but never
    // flushed died with it, like bytes in a dead kernel buffer.
    egress_.clear();
    return;
  }
  std::vector<Envelope> run;
  std::size_t i = 0;
  while (i < egress_.size()) {
    const ServerId dest = egress_[i].to;
    std::size_t j = i + 1;
    while (j < egress_.size() && egress_[j].to == dest) ++j;
    if (j - i == 1) {
      Envelope& e = egress_[i].envelope;
      if (dest == kInvalidServer) {
        net_.broadcast(self_, e.kind, *e.payload);
      } else {
        net_.send(self_, dest, e.kind, Bytes(*e.payload));
      }
    } else {
      run.clear();
      run.reserve(j - i);
      for (std::size_t t = i; t < j; ++t) {
        run.push_back(std::move(egress_[t].envelope));
      }
      if (dest == kInvalidServer) {
        net_.broadcast_many(self_, run);
      } else {
        net_.send_many(self_, dest, run);
      }
    }
    i = j;
  }
  egress_.clear();
}

std::size_t GossipServer::collect_garbage(std::uint32_t n_servers) {
  if (n_servers == 0) return 0;
  // Tip census: the highest-seqno live block per builder. Correctness of
  // the prune rule rests on correct servers referencing *everything they
  // hold* when building (Algorithm 1 line 14): a correct server's block
  // therefore ancestor-covers its builder's whole DAG at build time, so a
  // block below every tip has been referenced exactly once by every server
  // — no future block or FWD request can mention it again.
  std::vector<std::optional<std::pair<SeqNo, Hash256>>> best(n_servers);
  for (const BlockPtr& b : dag_.topological_order()) {
    if (b->n() >= n_servers) continue;  // out-of-range builder: never a tip
    auto& slot = best[b->n()];
    if (!slot || b->k() > slot->first) slot.emplace(b->k(), b->ref());
  }
  std::vector<Hash256> tips;
  tips.reserve(n_servers);
  for (const auto& slot : best) {
    if (!slot) return 0;  // some server has no block yet: GC must wait
    tips.push_back(slot->second);
  }
  const std::size_t removed = dag_.prune_common_ancestors(tips);
  if (removed != 0) {
    // A buffered block may now reference pruned history: look at all again.
    for (const auto& entry : pending_) recheck_.push_back(entry.first);
    ++stats_.gc_runs;
    stats_.blocks_pruned += removed;
  }
  return removed;
}

bool GossipServer::restore_parts(const std::vector<Hash256>& horizon,
                                 const std::vector<BlockPtr>& blocks,
                                 SeqNo next_k,
                                 std::vector<Hash256> building_preds) {
  if (dag_.size() != 0) return false;
  BlockDag staged;
  for (const Hash256& h : horizon) staged.register_pruned(h);
  for (const BlockPtr& b : blocks) {
    // Signature/validity were checked before the checkpoint was signed;
    // structurally every pred must resolve (live or horizon tombstone).
    if (!b || !staged.insert(b)) return false;
  }
  if (staged.size() != blocks.size()) return false;  // duplicate entries
  dag_ = std::move(staged);
  for (const auto& entry : pending_) recheck_.push_back(entry.first);
  next_k_ = next_k;
  building_preds_ = std::move(building_preds);
  if (on_inserted_) {
    for (const BlockPtr& b : dag_.topological_order()) on_inserted_(b);
  }
  return true;
}

bool GossipServer::restore_own_block(const BlockPtr& block) {
  if (!block || block->n() != self_) return false;
  if (dag_.known(block->ref())) return false;  // log/checkpoint overlap
  if (!dag_.insert(block)) return false;
  wake_waiters(block->ref());
  ++stats_.blocks_built;
  ++stats_.blocks_inserted;
  if (on_inserted_) on_inserted_(block);
  // Line 18, replayed: the next block after B starts at (k+1, [ref(B)]).
  next_k_ = block->k() + 1;
  building_preds_.assign(1, block->ref());
  return true;
}

}  // namespace blockdag
