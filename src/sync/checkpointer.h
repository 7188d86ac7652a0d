// Checkpointer: the epoch cadence driver tying Shim, checkpoint building
// and durable storage together.
//
// Mounted on a Shim via its maintenance hook and block sink, it
//   * appends every inserted block to the StorageSink's block log (own vs
//     received kind, so replay can rebuild the construction state). A
//     failed own-block append halts the shim before the block is sent;
//     a failed received-block append is only counted;
//   * every K interpreted blocks (CheckpointerConfig::epoch_blocks) runs
//     one epoch step: collect_garbage() → build_checkpoint → sign → store.
//     Storing rotates the block log, so disk usage stays proportional to
//     the live DAG, not history (bench_pruning measures this flat).
//
// restore_from_storage() is the one crash-recovery orchestration: the
// simulated Cluster, ThreadedRuntime and serve/join all restart a fresh
// Shim through it. It loads the newest checkpoint + log, restores the
// checkpoint (DAG + interpretation records + indications), replays the log
// through the normal receive path (own blocks via
// GossipServer::restore_own_block to re-run the line-18 construction
// reset), then runs the interpreter once.
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

#include "crypto/signature.h"
#include "shim/shim.h"
#include "sync/storage.h"

namespace blockdag::sync {

struct CheckpointerConfig {
  // Checkpoint every K interpreted blocks; 0 disables the epoch cadence
  // (the block log still accumulates if a sink is attached).
  std::uint64_t epoch_blocks = 0;
};

struct CheckpointerStats {
  std::uint64_t checkpoints_stored = 0;
  std::uint64_t checkpoints_skipped = 0;  // no fixpoint yet; retried next tick
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
  // may be null: epoch checkpoints + GC still run (memory stays flat) but
  // nothing persists. Outlives neither shim nor storage.
  Checkpointer(Shim& shim, SignatureProvider& sigs, std::uint32_t n_servers,
               StorageSink* storage, CheckpointerConfig config = {});

  // Call once on a freshly constructed shim, before start(). True if the
  // shim is ready to run — either storage was empty (fresh server) or the
  // durable state was fully restored. False means corrupt/alien storage:
  // the shim is left un-restored and must be discarded, not started
  // (simctl maps this to its own exit code).
  bool restore_from_storage();

  // Epoch of the newest stored checkpoint (0 = none yet).
  std::uint64_t epoch() const { return epoch_; }
  const CheckpointerStats& stats() const { return stats_; }
  const RestoreStats& restore_stats() const { return restore_stats_; }

 private:
  void on_tick();
  void on_block(const BlockPtr& block);

  Shim& shim_;
  SignatureProvider& sigs_;
  std::uint32_t n_servers_;
  StorageSink* storage_;
  CheckpointerConfig config_;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_checkpoint_at_ = 0;
  CheckpointerStats stats_;
  RestoreStats restore_stats_;
};

}  // namespace blockdag::sync
