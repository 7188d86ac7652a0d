#include "sync/checkpointer.h"

#include <algorithm>
#include <utility>

#include "sync/checkpoint.h"

namespace blockdag::sync {

Checkpointer::Checkpointer(Shim& shim, SignatureProvider& sigs,
                           std::uint32_t n_servers, StorageSink* storage,
                           CheckpointerConfig config, CheckpointWriter* writer)
    : shim_(shim),
      sigs_(sigs),
      n_servers_(n_servers),
      storage_(storage),
      config_(config),
      writer_(writer != nullptr ? writer : &inline_writer_) {
  next_checkpoint_at_ = config_.epoch_blocks;
  shim_.set_maintenance_hook([this] { on_tick(); });
  shim_.set_block_sink([this](const BlockPtr& block) { on_block(block); });
}

void Checkpointer::on_block(const BlockPtr& block) {
  if (!storage_) return;
  const LogKind kind = block->n() == shim_.self() ? LogKind::kOwnBlock
                                                  : LogKind::kRecvBlock;
  if (storage_->append_block(kind, block->encode())) {
    ++stats_.blocks_logged;
    return;
  }
  ++stats_.store_failures;
  // An unlogged own block must never leave: a restart would replay the
  // shorter log, reuse its (n, k) and equivocate. Fail-stop instead. A lost
  // received block is refetched by state sync, so that failure is benign.
  if (kind == LogKind::kOwnBlock) shim_.halt();
}

void Checkpointer::on_tick() {
  if (config_.epoch_blocks == 0) return;
  const std::uint64_t interpreted =
      shim_.interpreter().stats().blocks_interpreted;
  if (interpreted < next_checkpoint_at_) return;
  // Epoch step: GC first so the checkpoint captures the already-pruned
  // live set (and so memory is reclaimed even if the step is deferred).
  shim_.collect_garbage();
  if (in_flight_) {
    ++stats_.checkpoints_skipped;  // one step at a time; retry next tick
    return;
  }
  auto snapshot = snapshot_checkpoint(shim_);
  if (!snapshot) {
    // Not at an interpretation fixpoint (some live block's preds are still
    // in flight). Retry on the next tick rather than forcing one.
    ++stats_.checkpoints_skipped;
    return;
  }
  // From here on the boundary is taken: whatever the step's outcome, the
  // next one waits a full epoch, so a failing sink is not retried per tick.
  next_checkpoint_at_ = interpreted + config_.epoch_blocks;
  const std::uint64_t epoch = last_boundary_ + 1;
  last_boundary_ = epoch;
  if (storage_ == nullptr) {
    // Nothing persists: the epoch is the GC point alone.
    epoch_ = epoch;
    ++stats_.checkpoints_stored;
    return;
  }
  if (!storage_->append_block(LogKind::kEpochBoundary,
                              epoch_boundary_payload(epoch))) {
    ++stats_.store_failures;  // appends stay in the previous epoch's log
    return;
  }
  in_flight_ = true;
  const bool submitted = writer_->submit([this, epoch,
                                          snapshot = std::move(*snapshot)] {
    std::optional<Signable> signable;
    if (auto cp = build_checkpoint(snapshot, epoch, n_servers_)) {
      signable.emplace();
      signable->preimage = checkpoint_preimage(*cp);
      // The O(bytes) hashing half of the signature; the key is used on the
      // server thread (SignatureProvider::prepare_to_sign).
      signable->prepared = sigs_.prepare_to_sign(snapshot.self, signable->preimage);
    }
    writer_->post_back([this, epoch, signable = std::move(signable)]() mutable {
      sign_and_store(epoch, std::move(signable));
    });
  });
  if (!submitted) in_flight_ = false;  // writer shut down: step dropped
}

void Checkpointer::sign_and_store(std::uint64_t epoch,
                                  std::optional<Signable> signable) {
  if (shim_.gossip().halted()) {
    in_flight_ = false;  // crashed meanwhile: the step dies with the server
    return;
  }
  if (!signable) {
    ++stats_.checkpoints_skipped;  // a tip instance cannot serialize
    in_flight_ = false;
    return;
  }
  Bytes sigma = sigs_.sign_prepared(shim_.self(), signable->prepared);
  const bool submitted = writer_->submit(
      [this, epoch, preimage = std::move(signable->preimage),
       sigma = std::move(sigma)] {
        const bool stored =
            storage_->store_checkpoint(epoch, seal_checkpoint(preimage, sigma));
        writer_->post_back([this, epoch, stored] { finish_step(epoch, stored); });
      });
  if (!submitted) in_flight_ = false;  // writer shut down: step dropped
}

void Checkpointer::finish_step(std::uint64_t epoch, bool stored) {
  in_flight_ = false;
  if (!stored) {
    // Keep the old epoch: its checkpoint and logs are still on disk, and
    // the blocks since sit in the chain after it.
    ++stats_.store_failures;
    return;
  }
  epoch_ = epoch;
  ++stats_.checkpoints_stored;
}

bool Checkpointer::restore_from_storage() {
  restore_stats_ = RestoreStats{};
  if (!storage_) return true;
  std::uint64_t epoch = 0;
  Bytes ckpt_wire;
  std::vector<LogRecord> log;
  if (!storage_->load_latest(epoch, ckpt_wire, log)) return false;
  if (ckpt_wire.empty() && log.empty()) return true;  // fresh data dir

  shim_.begin_restore();
  bool ok = true;
  if (!ckpt_wire.empty()) {
    // The signature check is what rejects a checkpoint file copied in from
    // another server's data dir (wrong signer) on top of the storage CRC.
    auto cp = decode_signed_checkpoint(ckpt_wire, &sigs_, shim_.self());
    if (cp && cp->n_servers == n_servers_ && cp->epoch == epoch &&
        restore_checkpoint(shim_, *cp)) {
      epoch_ = cp->epoch;
      last_boundary_ = cp->epoch;
      restore_stats_.checkpoint_epoch = cp->epoch;
      restore_stats_.blocks_from_checkpoint = cp->blocks.size();
    } else {
      ok = false;
    }
  }
  for (std::size_t i = 0; ok && i < log.size(); ++i) {
    if (log[i].kind == LogKind::kEpochBoundary) {
      // Only the numbering survives: the next boundary goes above every
      // epoch that already has a log.
      const auto boundary = decode_epoch_boundary(log[i].payload);
      if (!boundary) {
        ok = false;
        break;
      }
      last_boundary_ = std::max(last_boundary_, *boundary);
      continue;
    }
    auto block = Block::decode(log[i].payload);
    // The log passed its per-record CRCs; bytes that then fail to decode
    // as a block (or re-apply) mean corrupted storage, not a torn tail —
    // refuse the whole restore instead of resuming from a silent gap in
    // our own blocks (which would make the server equivocate on rebuild).
    if (!block) {
      ok = false;
      break;
    }
    if (log[i].kind == LogKind::kOwnBlock) {
      auto ptr = std::make_shared<const Block>(std::move(*block));
      if (ptr->n() != shim_.self() ||
          !shim_.gossip().restore_own_block(ptr)) {
        ok = false;
        break;
      }
      ++restore_stats_.own_blocks_from_log;
    } else {
      shim_.gossip().ingest(std::move(*block));
      ++restore_stats_.recv_blocks_from_log;
    }
  }
  // One interpreter pass over the replayed suffix (checkpointed blocks are
  // already marked interpreted, so only log blocks run) — still inside the
  // restore window, so indications rebuild the log without re-firing the
  // user handler.
  if (ok) shim_.interpreter().run();
  shim_.end_restore();
  if (!ok) return false;

  restore_stats_.restored = true;
  if (config_.epoch_blocks != 0) {
    next_checkpoint_at_ =
        shim_.interpreter().stats().blocks_interpreted + config_.epoch_blocks;
  }
  return true;
}

}  // namespace blockdag::sync
