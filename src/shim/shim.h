// shim(P) (Algorithm 3): choreography of the user, gossip and interpret.
//
// The shim owns the two shared data structures — the request buffer
// `rqsts` and the block DAG G (held inside the gossip module) — and wires
// them to one gossip process and one interpret process:
//   * user request(ℓ, r)  →  rqsts.put(ℓ, r)              (lines 6–7)
//   * interpret indicates (ℓ, i, s') with s' = s  →  user (lines 8–9)
//   * repeatedly: gossip.disseminate()                    (lines 10–11)
//
// Theorem 5.1: this composition implements P's interface and preserves
// every property of P whose proof relies on the reliable point-to-point
// link abstraction.
#pragma once

#include <functional>
#include <vector>

#include "gossip/gossip.h"
#include "interpret/interpreter.h"
#include "net/env.h"
#include "protocol/protocol.h"
#include "shim/pacing.h"

namespace blockdag {

// A delivered indication, as surfaced to the user of P.
struct UserIndication {
  Label label = 0;
  Bytes indication;
  SimTime at = 0;  // local TimerService::now() at delivery (latency measures)
};

class Shim {
 public:
  using IndicationHandler = std::function<void(Label, const Bytes&)>;
  // First look at incoming wire traffic; return true to consume the
  // message, false to pass it to gossip. State sync (src/sync) mounts its
  // WireKinds here without gossip knowing about them.
  using AuxHandler = std::function<bool(ServerId, const Bytes&)>;
  // Invoked after every tick()'s interpretation step; the checkpointer
  // (src/sync) hooks epoch checkpoint + GC cadence here.
  using MaintenanceHook = std::function<void()>;
  // Invoked for every block entering the DAG (own and received) outside of
  // restore replay; the checkpointer appends each to the durable block log.
  using BlockSink = std::function<void(const BlockPtr&)>;

  // Sans-io: the shim reaches its environment only through the Transport /
  // TimerService seam, so one Shim implementation serves both the
  // deterministic simulator and the threaded runtime.
  Shim(ServerId self, TimerService& timers, Transport& net, SignatureProvider& sigs,
       const ProtocolFactory& factory, std::uint32_t n_servers,
       GossipConfig gossip_config = {}, PacingConfig pacing = {},
       SeqNoMode seq_mode = SeqNoMode::kConsecutive);
  Shim(ServerId self, NodeEnv env, SignatureProvider& sigs,
       const ProtocolFactory& factory, std::uint32_t n_servers,
       GossipConfig gossip_config = {}, PacingConfig pacing = {},
       SeqNoMode seq_mode = SeqNoMode::kConsecutive)
      : Shim(self, env.timers, env.transport, sigs, factory, n_servers,
             gossip_config, pacing, seq_mode) {}

  // The high-level interface of Figure 1: request(ℓ, r).
  void request(Label label, Bytes request);

  // Registers the user's indication callback (in addition to the
  // indications() log, which is always kept).
  void set_indication_handler(IndicationHandler handler) {
    on_indication_ = std::move(handler);
  }

  void set_aux_handler(AuxHandler handler) { aux_ = std::move(handler); }
  void set_maintenance_hook(MaintenanceHook hook) {
    maintenance_ = std::move(hook);
  }
  void set_block_sink(BlockSink sink) { block_sink_ = std::move(sink); }

  // Epoch GC: prunes blocks below every server's tip from the DAG and
  // drops their interpretation state. Returns blocks removed. Safe only in
  // crash-fault deployments (equivocation breaks the deterministic tip
  // census); callers gate it the same way checkpointing is gated.
  std::size_t collect_garbage();

  // Starts the periodic dissemination loop (lines 10–11).
  void start();

  // Stops the loop (ends the simulation run cleanly).
  void stop();

  // --- Crash recovery (§7 Limitations; sync::Checkpointer drives it) ---
  //
  // A restore runs on a fresh Shim inside begin_restore()/end_restore():
  // checkpointed state first (gossip().restore_parts,
  // interpreter().restore_block, restore_indications), then the block log
  // replayed through the receive path, then one interpreter run. Replayed
  // indications rebuild indications() (stamped at restore time) but do NOT
  // re-fire the external handler: the pre-crash incarnation already
  // surfaced them, and re-firing would duplicate deliveries. The window
  // also quiets the inserted→interpret trigger and the block sink.
  void begin_restore() { restoring_ = true; }
  void end_restore() { restoring_ = false; }
  bool restoring() const { return restoring_; }
  void restore_indications(std::vector<UserIndication> log) {
    delivered_ = std::move(log);
  }

  // Crash: stops the dissemination loop and permanently halts gossip (no
  // sends, no reactions, pending timers become no-ops). The object stays
  // alive so in-flight scheduler events referencing it stay safe; recovery
  // happens on a *new* Shim.
  void halt();

  // One manual dissemination + interpretation step (tests drive this).
  void tick();

  // The two halves of tick(), split so runtime convergence loops can
  // overlap them: issue every server's dissemination first (blocks start
  // crossing the wire), then run interpretation while deliveries drain.
  void tick_disseminate();
  // Interpretation + the maintenance hook (checkpoint/GC cadence).
  void tick_interpret();

  ServerId self() const { return gossip_.self(); }
  const BlockDag& dag() const { return gossip_.dag(); }
  GossipServer& gossip() { return gossip_; }
  const GossipServer& gossip() const { return gossip_; }
  Interpreter& interpreter() { return interpreter_; }
  const Interpreter& interpreter() const { return interpreter_; }

  // Every indication delivered to this server's user, in delivery order.
  const std::vector<UserIndication>& indications() const { return delivered_; }

 private:
  void on_block_inserted(const BlockPtr& block);
  void schedule_next_dissemination();

  TimerService& timers_;
  // The armed dissemination beat, cancelled by stop() so a stopped shim
  // holds no outstanding timer (the threaded runtime's idle detection
  // counts armed timers as pending work).
  TimerService::TimerId beat_timer_ = TimerService::kInvalidTimer;
  RequestBuffer rqsts_;
  GossipServer gossip_;
  Interpreter interpreter_;
  PacingConfig pacing_;
  std::uint32_t n_servers_;
  bool started_ = false;
  bool restoring_ = false;
  IndicationHandler on_indication_;
  AuxHandler aux_;
  MaintenanceHook maintenance_;
  BlockSink block_sink_;
  std::vector<UserIndication> delivered_;
};

}  // namespace blockdag
