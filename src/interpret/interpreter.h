// The interpret module (Algorithm 2): replaying a deterministic protocol P
// over a block DAG.
//
// For every block B (taken in an eligibility-respecting order: all preds
// interpreted first), the interpreter
//   1. copies the process-instance states from B.parent (line 4; genesis
//     blocks start fresh instances — lazily, as §4 suggests for
//     implementations);
//   2. feeds every request (ℓ, r) ∈ B.rs to B.n's simulated instance of ℓ
//     (lines 5–6), collecting triggered messages into B.Ms[out, ℓ];
//   3. gathers the in-messages addressed to B.n from the out-buffers of
//     B's *direct* predecessors (lines 7–9) and feeds them in the fixed
//     order <M (lines 10–11), collecting newly triggered messages into
//     B.Ms[out, ℓ]. Line 7 ranges over labels requested in B's ancestry;
//     no separate label set is kept, because a pred's Ms[out, ℓ] exists
//     only for such labels (Lemma A.12);
//   4. raises every indication of the simulated instances as
//     (ℓ, i, B.n) (lines 13–14).
//
// Interpretation is a pure function of the DAG (Lemma 4.2): it never looks
// at who is interpreting, wall-clock time, or network state. The
// interpreter is incremental — as gossip grows the DAG, newly eligible
// blocks are interpreted on demand.
//
// Messages materialized here are never sent on any wire: this is the
// paper's message compression (Section 4 discussion).
//
// Layout: interpretation state is a contiguous std::vector indexed by the
// DAG's dense BlockIdx. B.PIs is a persistent ordered map
// (util/persistent_map.h), so line 4's copy is one handle copy and a block
// pays O(log L) only for each label it advances, however many labels the
// history holds. The per-block message buffers are sorted flat vectors
// (FlatMap): their size follows the block's own messages. Both iterate in
// ascending label order, as std::map did, which keeps digest_of() bytes
// stable across representation changes.
//
// B.Ms[in] is kept after its block is interpreted because digest_of()
// hashes it (the Lemma 4.2 digest). Dropping it would mean computing every
// block's digest while interpreting it, which hashes every instance of
// B.PIs per block, or changing that digest.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "dag/dag.h"
#include "protocol/protocol.h"
#include "util/flat_map.h"
#include "util/persistent_map.h"

namespace blockdag {

// One committed process instance of B.PIs. Immutable once committed, and
// shared by every block that inherits it without advancing it. Its
// state_digest() is computed at most once, by the first digest_of() that
// reads it, never on the interpret path; the memo lives here rather than in
// a tree node so that every path copy of B.PIs shares it. Race-free: the
// server thread (digest_of) and its checkpoint writer (which digests the
// live blocks of an epoch snapshot, sync/checkpoint.h) may both read one
// instance, and the memo is filled exactly once under std::call_once.
// Everything else about an Instance is immutable, so it may be read, and
// its last handle dropped, on either thread.
class Instance {
 public:
  explicit Instance(std::unique_ptr<Process> process)
      : process_(std::move(process)) {}

  const Process& process() const { return *process_; }

  const Bytes& state_digest() const {
    std::call_once(digest_once_,
                   [this] { digest_ = process_->state_digest(); });
    return digest_;
  }

 private:
  std::unique_ptr<const Process> process_;
  mutable std::once_flag digest_once_;
  mutable Bytes digest_;
};

using InstanceMap = PersistentMap<Label, std::shared_ptr<const Instance>>;
using MessageBuffers = FlatMap<Label, std::vector<Message>>;

// The Lemma 4.2 digest of one block's post-interpretation state: B.PIs
// (each instance by its state_digest()), B.Ms[in] and B.Ms[out]; an
// uninterpreted block hashes to a fixed marker. Interpreter::digest_of and
// the checkpoint writer both call it, so a checkpoint record holds exactly
// the bytes digest_of returns. Reads only immutable shared state, so it
// may run off the server thread on handles copied from it.
Bytes interpretation_digest_of(bool interpreted, const InstanceMap& pis,
                               const MessageBuffers& ms_in,
                               const MessageBuffers& ms_out);

// Interpretation state attached to a block (the paper's B.PIs / B.Ms /
// I[B]). Exposed read-only so tests can check Figure 4 buffer contents.
struct BlockInterpretation {
  bool interpreted = false;  // I[B]

  // B.PIs[ℓ]: state of instance ℓ of server B.n after interpreting B.
  // A persistent map: B shares its parent's tree and owns only the paths
  // to the labels it advanced; unadvanced instances are shared handles.
  InstanceMap pis;

  // B.Ms[in, ℓ] / B.Ms[out, ℓ]. Sized by B's own messages, not by history.
  MessageBuffers ms_in;
  MessageBuffers ms_out;

  // Checkpoint-restored blocks carry the digest_of() output computed when
  // the block was first interpreted instead of re-derivable state (ms_in is
  // not checkpointed); digest_of returns it verbatim. Empty for blocks
  // interpreted live.
  Bytes cached_digest;
};

struct InterpreterStats {
  std::uint64_t blocks_interpreted = 0;
  std::uint64_t requests_processed = 0;
  std::uint64_t messages_delivered = 0;    // fed via receive(m), line 11
  std::uint64_t messages_materialized = 0; // appended to some Ms[out]
  std::uint64_t indications = 0;
  std::uint64_t instance_clones = 0;       // copy-on-write clones performed
                                           // (fresh creates are not clones)

  // Always 0: no parallel engine exists; kept because e2ebench reads them.
  std::uint64_t parallel_batches = 0;
  std::uint64_t serial_batches = 0;
  std::uint64_t merge_ns = 0;
};

class Interpreter {
 public:
  // Indication callback: (ℓ, indication, server-on-whose-behalf) —
  // Algorithm 2 line 14 `indicate(ℓj, i, B.n)`.
  using IndicationHandler =
      std::function<void(Label, const Bytes&, ServerId)>;

  Interpreter(const BlockDag& dag, const ProtocolFactory& factory,
              std::uint32_t n_servers);

  void set_indication_handler(IndicationHandler handler) {
    on_indication_ = std::move(handler);
  }

  // Interprets every currently-eligible uninterpreted block, following the
  // DAG's insertion (= topological) order. Returns blocks interpreted.
  std::size_t run();

  // Interprets exactly `ref` if it is eligible; returns false otherwise.
  // Lets tests exercise arbitrary eligible orders (the choice in line 3 —
  // Lemma A.11 says the result is order-independent).
  bool interpret_one(const Hash256& ref);

  bool is_interpreted(const Hash256& ref) const;
  bool eligible(const Hash256& ref) const;

  // Read access to B's interpretation state (nullptr if never touched).
  const BlockInterpretation* state_of(const Hash256& ref) const;
  const BlockInterpretation* state_at(BlockIdx idx) const;

  // Deterministic digest over a block's post-interpretation state — used
  // by tests asserting Lemma 4.2 across different servers/DAG prefixes.
  Bytes digest_of(const Hash256& ref) const;

  const InterpreterStats& stats() const { return stats_; }

  // Checkpoint restore (src/sync): marks `ref` as interpreted with its
  // saved post-interpretation artifacts instead of re-running P over it.
  // `pis_serialized` holds Process::serialize() outputs and may be empty —
  // only per-builder tip blocks ever have their instance states read again
  // (line 4 copies from the parent, and only tips become parents of new
  // blocks). Returns false — without mutating state — if the block is not
  // live, already interpreted, or an instance fails to deserialize.
  bool restore_block(const Hash256& ref, Bytes cached_digest,
                     FlatMap<Label, std::vector<Message>> ms_out,
                     const std::vector<std::pair<Label, Bytes>>& pis_serialized);

  // Drops interpretation state of blocks no longer in the DAG (pruning
  // extension §7; pairs with BlockDag::prune_below). BlockIdx slots are
  // stable across pruning, so the run() cursor keeps its position instead
  // of rescanning the order from the start.
  void forget_pruned();

  // Where the next run() resumes in the dense index order (diagnostics /
  // tests of the incremental cursor).
  BlockIdx resume_index() const { return cursor_; }

 private:
  bool interpreted_at(BlockIdx idx) const {
    return idx < states_.size() && states_[idx].interpreted;
  }
  bool eligible_at(BlockIdx idx) const;
  void interpret_block(BlockIdx idx);
  // Grows states_ to cover every DAG slot (call before index-based access).
  // Slots are only ever appended — BlockIdx slots are stable tombstones
  // across pruning — so this touches the vector only when the DAG actually
  // grew, and reserves geometrically so per-insert run() calls don't move
  // the (heavy) BlockInterpretation elements on every new block.
  void sync_states() {
    const std::size_t n = dag_.node_count();
    if (n <= states_.size()) return;
    if (n > states_.capacity()) {
      states_.reserve(std::max(n, states_.capacity() * 2));
    }
    states_.resize(n);
  }

  const BlockDag& dag_;
  const ProtocolFactory& factory_;
  std::uint32_t n_servers_;
  std::vector<BlockInterpretation> states_;  // indexed by BlockIdx
  BlockIdx cursor_ = 0;  // index into the DAG's dense slot array
  IndicationHandler on_indication_;
  InterpreterStats stats_;
};

}  // namespace blockdag
