// Cluster: a full simulated deployment of shim(P) across Srvrs.
//
// Wires n servers — correct ones running the real Shim (gossip +
// interpret), byzantine ones running an adversarial behaviour — over one
// simulated network, with a shared signature provider and a deterministic
// event scheduler. This is the harness every integration test, example and
// benchmark builds on.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/signature.h"
#include "crypto/wots.h"
#include "runtime/byzantine.h"
#include "shim/shim.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sync/checkpointer.h"
#include "sync/storage.h"

namespace blockdag {

struct ClusterConfig {
  std::uint32_t n_servers = 4;
  NetworkConfig net{};
  GossipConfig gossip{};
  PacingConfig pacing{};
  SeqNoMode seq_mode = SeqNoMode::kConsecutive;
  std::uint64_t seed = 1;
  // Signature scheme wired into block validation (ideal | hmac | wots).
  // The sim always verifies synchronously, whatever the scheme, so seed
  // replay stays byte-deterministic.
  SigScheme sig_scheme = SigScheme::kIdeal;
  std::map<ServerId, ByzantineKind> byzantine{};
};

class Cluster {
 public:
  Cluster(const ProtocolFactory& factory, ClusterConfig config);

  Scheduler& scheduler() { return sched_; }
  SimNetwork& network() { return *net_; }
  SignatureProvider& signatures() { return *sigs_; }
  const ClusterConfig& config() const { return config_; }

  // A server is "correct" here when it is currently live and honest; a
  // crashed server drops out of this set until it restarts.
  bool is_correct(ServerId server) const { return shims_[server] != nullptr; }
  std::vector<ServerId> correct_servers() const;
  std::uint32_t n_correct() const;

  // Only valid for correct servers.
  Shim& shim(ServerId server) { return *shims_[server]; }
  const Shim& shim(ServerId server) const { return *shims_[server]; }

  // The adversary object hosted at `server`, or nullptr if the server is
  // not byzantine. Checkers use this to read forged_refs() post-run.
  const ByzantineServer* byzantine(ServerId server) const {
    return byz_[server].get();
  }

  // Starts the dissemination loops (correct) and mischief beats (byzantine).
  void start();
  void stop();

  void run_until(SimTime t) { sched_.run_until(t); }
  void run_for(SimTime dt) { sched_.run_until(sched_.now() + dt); }

  // Stops all dissemination beats and drains every in-flight event (block
  // deliveries, FWD retries). After quiesce() the run has "completed" in
  // the sense liveness properties quantify over — every eventual delivery
  // has happened.
  void quiesce() {
    stop();
    sched_.run();
  }

  // request(ℓ, r) on a correct server.
  void request(ServerId server, Label label, Bytes request);

  // --- Crash/recovery churn (§7 Limitations; scenario engine substrate) ---
  //
  // Every correct server persists the way rt::ThreadedRuntime's do: the
  // Cluster keeps one sync::MemStore per server and mounts a default
  // sync::Checkpointer (epoch_blocks = 0: a block log only, no checkpoint
  // and no GC, so it stays safe under equivocation) on each shim it builds.
  // A caller that mounts its own Checkpointer on shim(s) replaces the
  // Cluster's: the Cluster's log of s then stops growing, so the caller
  // must not crash s afterwards.

  // Crashes a correct server: its shim halts (no sends, no reactions),
  // network ingress is dropped, and the server leaves the correct set until
  // restart(). The halted shim object is kept alive until the Cluster dies
  // so in-flight scheduler events referencing it stay safe.
  void crash(ServerId server);

  // Restarts a crashed server over its block log, as
  // ThreadedRuntime::restart does: a fresh Shim and Checkpointer over the
  // same store run restore_from_storage() (replaying interpretation and the
  // indication log without re-firing the user handler), reattach to the
  // network and — if the cluster is running — restart the dissemination
  // loop. Blocks it missed while down are recovered through gossip's FWD
  // path. Returns false, leaving the server crashed, when the log does not
  // restore.
  bool restart(ServerId server);

  // The Checkpointer of a correct server's current incarnation; its
  // restore_stats() say what the last restart replayed.
  const sync::Checkpointer& checkpointer(ServerId server) const {
    return *checkpointers_[server];
  }

  // quiesce(), stop transient drops, then rt::converge_rounds() over the
  // correct servers, each round drained by the scheduler: every correct
  // server holds the identical joint DAG of Lemma 3.7 and interpretation
  // has reached a fixed point, so "eventually"-properties are checkable.
  // The rounds flush references to blocks only some correct servers held
  // at quiesce time (equivocations sent to one half, blocks a crashed
  // server missed) through gossip + FWD. Returns false if `max_rounds` was
  // not enough.
  bool quiesce_and_converge(std::size_t max_rounds = 64);

  // True when every pair of correct servers' DAGs agree on their common
  // prefix trivially — i.e. identical vertex sets (the joint DAG of
  // Lemma 3.7, reached once gossip quiesces).
  bool dags_converged() const;

  // Count of correct servers whose user saw an indication for `label`.
  std::size_t indicated_count(Label label) const;

 private:
  ClusterConfig config_;
  const ProtocolFactory* factory_;
  Scheduler sched_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<SignatureProvider> sigs_;
  std::vector<std::unique_ptr<Shim>> shims_;              // index = ServerId
  std::vector<std::unique_ptr<ByzantineServer>> byz_;     // index = ServerId
  std::vector<sync::MemStore> stores_;                    // index = ServerId
  std::vector<std::unique_ptr<sync::Checkpointer>> checkpointers_;
  // Halted incarnations, kept alive for in-flight events pointing at them.
  std::vector<std::unique_ptr<Shim>> crashed_;
  std::vector<std::unique_ptr<sync::Checkpointer>> retired_checkpointers_;
  bool started_ = false;

  void mount(ServerId server);
  void schedule_byz_tick(ServerId server);
};

}  // namespace blockdag
