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

// Captures the shim's current state. Requires an interpretation fixpoint
// (every live block interpreted) and serializable protocol instances;
// returns nullopt otherwise — the caller skips this epoch and retries
// after the next tick.
std::optional<Checkpoint> build_checkpoint(const Shim& shim,
                                           std::uint64_t epoch,
                                           std::uint32_t n_servers);

// version byte + payload + signature by cp.self over (version ‖ payload).
Bytes encode_signed_checkpoint(const Checkpoint& cp, SignatureProvider& sigs);

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
