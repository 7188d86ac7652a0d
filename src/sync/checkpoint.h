// Epoch checkpoints: a signed, self-contained snapshot of everything a
// crashed server needs to resume without re-interpreting pruned history.
//
// A checkpoint captures, at an interpretation fixpoint right after epoch
// GC (Shim::collect_garbage):
//   * gossip construction state — next_k and the accumulated
//     building_preds (losing these would violate reference-once, Lemma
//     A.6, and manufacture duplicate self-deliveries);
//   * the horizon — refs of pruned preds still named by live blocks,
//     restored as DAG tombstones so every live block's preds resolve;
//   * the live blocks in topological order (full wire encodings);
//   * one interpretation record per live block: the digest_of() output
//     (returned verbatim after restore — Ms[in] was consumed and is not
//     persisted), the Ms[out] buffers (future children of the block
//     gather their in-messages from them), and — only for per-builder
//     tips, the only blocks that can become parents of new blocks — the
//     serialized process-instance states (B.PIs);
//   * the user-indication log (so indications() survives the crash
//     without re-interpretation).
//
// The whole payload is signed by the owning server via the
// SignatureProvider seam: a checkpoint is trusted *own* storage plus an
// integrity CRC at the storage layer, and the signature is what lets a
// server refuse a checkpoint file swapped in from another server's data
// dir. Decoding is hardened like every wire decoder: counts are bounded
// by remaining bytes before any allocation (checkpoint_fuzz_test sweeps
// truncations, flips and forged counts).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "crypto/signature.h"
#include "shim/shim.h"
#include "util/types.h"

namespace blockdag::sync {

// Bumped on every payload layout change; decode_signed_checkpoint refuses
// any other version.
inline constexpr std::uint8_t kCheckpointVersion = 2;

// Interpretation artifacts of one live block (aligned with Checkpoint::
// blocks by position).
struct CheckpointRecord {
  Bytes digest;  // Interpreter::digest_of output (32 bytes), cached verbatim
  // Ms[out] per label (labels ascending, messages in materialization order).
  std::vector<std::pair<Label, std::vector<Message>>> ms_out;
  // Serialized B.PIs (labels ascending) — non-empty only for builder tips.
  std::vector<std::pair<Label, Bytes>> pis;
};

struct Checkpoint {
  std::uint64_t epoch = 0;
  ServerId self = 0;
  std::uint32_t n_servers = 0;
  SeqNo next_k = 0;
  std::vector<Hash256> building_preds;
  std::vector<Hash256> horizon;  // pruned preds of live blocks
  std::vector<Bytes> blocks;     // encoded live blocks, topological order
  std::vector<CheckpointRecord> records;  // one per block, same order
  std::vector<UserIndication> indications;
};

// What the server thread captures at an epoch boundary: handles to the
// live state. Apart from the indication log (one entry per delivered
// label), nothing here grows with the labels in history. Per live block
// that is the block itself, its B.PIs handle (an O(1) copy of
// the persistent map, util/persistent_map.h), copies of its message
// buffers (sized by the block's own messages) and its cached digest. The
// live DAG may move on after the snapshot (GC prunes, interpretation
// commits new trees): every handle here points at immutable state, so the
// snapshot stays exact for as long as it lives.
struct CheckpointSnapshot {
  struct LiveBlock {
    BlockPtr block;
    bool builder_tip = false;  // only tips' B.PIs are serialized
    InstanceMap pis;
    MessageBuffers ms_in;   // empty when cached_digest is set
    MessageBuffers ms_out;
    Bytes cached_digest;    // checkpoint-restored blocks only
  };
  ServerId self = 0;
  SeqNo next_k = 0;
  std::vector<Hash256> building_preds;
  std::vector<Hash256> horizon;    // pruned preds of live blocks
  std::vector<LiveBlock> blocks;   // topological order
  std::vector<UserIndication> indications;
};

// Server-thread half of a checkpoint: O(live blocks) plus the indication
// log copy. Requires an
// interpretation fixpoint (every live block interpreted); nullopt
// otherwise — the caller skips this epoch and retries after the next tick.
std::optional<CheckpointSnapshot> snapshot_checkpoint(const Shim& shim);

// Writer half: everything that grows with labels in history — each live
// block's digest (interpretation_digest_of) and the serialized B.PIs of
// every builder tip. Touches nothing but the snapshot, so it may run on
// another thread. nullopt if a tip instance cannot serialize (a protocol
// without checkpoint support: checkpointing is off for it).
std::optional<Checkpoint> build_checkpoint(const CheckpointSnapshot& snapshot,
                                           std::uint64_t epoch,
                                           std::uint32_t n_servers);

// Both halves at once, on the calling thread.
std::optional<Checkpoint> build_checkpoint(const Shim& shim,
                                           std::uint64_t epoch,
                                           std::uint32_t n_servers);

// version byte + payload + signature by cp.self over (version ‖ payload).
Bytes encode_signed_checkpoint(const Checkpoint& cp, SignatureProvider& sigs);

// encode_signed_checkpoint in its three steps, so that only the signature
// runs on the thread owning `sigs` (a WOTS provider's one-time key index
// is owner-thread state): the preimage σ covers (version ‖ payload), the
// signature, and the sealed wire bytes — byte-identical to
// encode_signed_checkpoint.
Bytes checkpoint_preimage(const Checkpoint& cp);
Bytes seal_checkpoint(const Bytes& preimage, const Bytes& sigma);

// Decodes and — when `sigs` is non-null — verifies the signature against
// `expected_signer` (also enforced to equal the payload's self field).
// nullopt on any malformation, version skew, or signature mismatch.
std::optional<Checkpoint> decode_signed_checkpoint(const Bytes& wire,
                                                   SignatureProvider* sigs,
                                                   ServerId expected_signer);

// Restores a decoded checkpoint into a *fresh* shim (phases 1–2 of the
// restore choreography; the caller wraps this and the log replay in
// begin_restore()/end_restore()). False on any inconsistency — the shim
// must then be discarded, not used half-restored.
bool restore_checkpoint(Shim& shim, const Checkpoint& cp);

}  // namespace blockdag::sync
