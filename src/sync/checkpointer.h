// Checkpointer: the epoch cadence driver tying Shim, checkpoint building
// and durable storage together.
//
// Mounted on a Shim via its maintenance hook and block sink, it
//   * appends every inserted block to the StorageSink's block log (own vs
//     received kind, so replay can rebuild the construction state). Appends
//     stay synchronous on the server thread: a failed own-block append
//     halts the shim before the block is sent; a failed received-block
//     append is only counted;
//   * every K interpreted blocks (CheckpointerConfig::epoch_blocks) runs
//     one epoch step, cut in two so that nothing that grows with the
//     labels in history runs on the server thread:
//
//       server thread              writer
//       ─────────────              ──────
//       collect_garbage()
//       snapshot_checkpoint()  ──▶ build_checkpoint(snapshot)
//       boundary record e          (digest_of per live block, B.PIs of
//                                  the tips), checkpoint_preimage,
//                                  prepare_to_sign (hashes the preimage)
//       sign_prepared          ◀──
//                              ──▶ seal_checkpoint, store_checkpoint(e)
//                                  (write, fsync, rename, fsync dir,
//                                  then delete epochs < e)
//       epoch = e, stats       ◀──
//
//     The snapshot is handles and per-block buffers, O(live blocks), plus
//     a copy of the indication log (sync/checkpoint.h). The boundary
//     record starts epoch e's log, so blocks inserted while the writer
//     works land in a log the store keeps (the log-chain invariant,
//     sync/storage.h). The signature itself is made on the server thread,
//     because a WOTS provider's one-time key index is owner-thread state;
//     the writer only hashes the preimage (SignatureProvider::
//     prepare_to_sign, which leaves O(1) for the owner with the ideal and
//     hmac schemes). At most one step is in flight: a boundary reached
//     while the writer is busy is deferred to a later tick and counted in
//     checkpoints_skipped. Every outcome, a failed store included, is
//     counted on the server thread. A step whose server halted (crash)
//     meanwhile is dropped: its durable effect is what reached the sink.
//
// The CheckpointWriter decides where the writer column runs. The default
// runs it inline, so the simulator and tests take the same two phases in
// one call and stay deterministic; ThreadedRuntime gives every server with
// a checkpointer its own writer thread (rt/threaded_runtime.h).
//
// restore_from_storage() is the one crash-recovery orchestration: the
// simulated Cluster, ThreadedRuntime and serve/join all restart a fresh
// Shim through it. It loads the newest checkpoint + the log chain from its
// epoch on, restores the checkpoint (DAG + interpretation records +
// indications), replays the logs through the normal receive path (own
// blocks via GossipServer::restore_own_block to re-run the line-18
// construction reset; boundary records only advance the epoch counter, so
// a restart never reuses an epoch that has a log), then runs the
// interpreter once.
// The whole choreography sits inside begin_restore()/end_restore(), so no
// indication re-fires and nothing re-interprets checkpointed history —
// RestoreStats is how tests assert "no full replay happened".
//
// Checkpointing assumes crash-fault deployments (GC's tip census is not
// equivocation-safe); callers gate it exactly like collect_garbage(). With
// epoch_blocks = 0 only the block log is kept, which is safe under
// equivocation: that is how the Cluster mounts it on every correct server.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "crypto/signature.h"
#include "shim/shim.h"
#include "sync/storage.h"

namespace blockdag::sync {

struct CheckpointerConfig {
  // Checkpoint every K interpreted blocks; 0 disables the epoch cadence
  // (the block log still accumulates if a sink is attached).
  std::uint64_t epoch_blocks = 0;
};

// Where the writer half of an epoch step runs. submit() hands a job to
// the writer; post_back() hands a continuation back to the server thread
// that owns the Checkpointer. Either returns false once its side has shut
// down, and the task is then dropped.
class CheckpointWriter {
 public:
  virtual ~CheckpointWriter() = default;
  virtual bool submit(std::function<void()> job) = 0;
  virtual bool post_back(std::function<void()> task) = 0;
};

// Runs both sides in the caller: an epoch step completes inside the tick
// that started it.
class InlineCheckpointWriter final : public CheckpointWriter {
 public:
  bool submit(std::function<void()> job) override {
    job();
    return true;
  }
  bool post_back(std::function<void()> task) override {
    task();
    return true;
  }
};

struct CheckpointerStats {
  std::uint64_t checkpoints_stored = 0;
  // Epoch steps deferred to the next tick (no interpretation fixpoint
  // yet, or the writer still busy with the previous step) or abandoned
  // after their boundary (a tip instance that cannot serialize; retried
  // one epoch later).
  std::uint64_t checkpoints_skipped = 0;
  std::uint64_t store_failures = 0;
  std::uint64_t blocks_logged = 0;
};

// What restore_from_storage() recovered, per source. The crash/restart
// tests assert blocks_from_checkpoint > 0 together with a small
// interpreter blocks_interpreted count — checkpointed history was NOT
// re-interpreted (that is the "resume without full replay" claim).
struct RestoreStats {
  bool restored = false;  // storage had state and it was applied
  std::uint64_t checkpoint_epoch = 0;
  std::uint64_t blocks_from_checkpoint = 0;
  std::uint64_t own_blocks_from_log = 0;
  std::uint64_t recv_blocks_from_log = 0;
};

class Checkpointer {
 public:
  // Installs itself as `shim`'s maintenance hook and block sink. `storage`
  // may be null: epoch GC still runs (memory stays flat) but nothing is
  // built or persisted. `writer` runs the writer half of each epoch step;
  // null means inline. Outlives neither shim, storage nor writer, and the
  // writer must finish or drop every job before the Checkpointer dies.
  Checkpointer(Shim& shim, SignatureProvider& sigs, std::uint32_t n_servers,
               StorageSink* storage, CheckpointerConfig config = {},
               CheckpointWriter* writer = nullptr);

  // Call once on a freshly constructed shim, before start(). True if the
  // shim is ready to run — either storage was empty (fresh server) or the
  // durable state was fully restored. False means corrupt/alien storage:
  // the shim is left un-restored and must be discarded, not started
  // (simctl maps this to its own exit code).
  bool restore_from_storage();

  // Epoch of the newest stored checkpoint (0 = none yet).
  std::uint64_t epoch() const { return epoch_; }
  // True while an epoch step's writer half is outstanding.
  bool step_in_flight() const { return in_flight_; }
  const CheckpointerStats& stats() const { return stats_; }
  const RestoreStats& restore_stats() const { return restore_stats_; }

 private:
  void on_tick();
  void on_block(const BlockPtr& block);
  // A built checkpoint's signature preimage and its prepare_to_sign() hash.
  struct Signable {
    Bytes preimage;
    Bytes prepared;
  };
  // Server-thread continuations of the step for `epoch`.
  void sign_and_store(std::uint64_t epoch, std::optional<Signable> signable);
  void finish_step(std::uint64_t epoch, bool stored);

  Shim& shim_;
  SignatureProvider& sigs_;
  const std::uint32_t n_servers_;
  StorageSink* const storage_;
  const CheckpointerConfig config_;
  InlineCheckpointWriter inline_writer_;
  CheckpointWriter* const writer_;
  std::uint64_t epoch_ = 0;
  // Highest epoch whose boundary was taken (or found in the restored log
  // chain): the next boundary is one above it.
  std::uint64_t last_boundary_ = 0;
  bool in_flight_ = false;
  std::uint64_t next_checkpoint_at_ = 0;
  CheckpointerStats stats_;
  RestoreStats restore_stats_;
};

}  // namespace blockdag::sync
