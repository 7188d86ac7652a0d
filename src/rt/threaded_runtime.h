// ThreadedRuntime: a full in-process deployment of shim(P), one OS thread
// per server whose timers ride its own mailbox (rt/mailbox.h) on a real
// monotonic clock, over a pluggable byte-moving backend: the in-process
// loopback Transport or real TCP or UDP sockets.
//
// The counterpart of runtime/cluster.h on the other side of the
// Transport/TimerService seam: the *same* Shim/GossipServer/Interpreter
// code runs here unmodified, but events are real — threads instead of a
// discrete-event loop, a monotonic clock instead of virtual time. What
// each runtime guarantees (DESIGN.md §7/§8):
//   * Cluster (sim): bit-for-bit determinism — a run is a pure function of
//     (configuration, seed); used for correctness, adversarial scenarios
//     and replayable fuzzing.
//   * ThreadedRuntime: true parallelism and real wall-clock timing; execution
//     order is whatever the OS scheduler produces, so runs are NOT
//     replayable — but every safety property still holds, because the
//     protocol stack never depended on simulation ordering, only on
//     Assumption 1 and the single-writer-per-server discipline that the
//     per-server mailbox enforces (rt/mailbox.h).
//
// With TransportBackend::kTcp the runtime may host a *subset* of the
// cluster's servers (config.tcp.local_servers): the remaining servers live
// in other OS processes reachable at base_port + id. request()/call()/
// digest accessors are only valid for hosted servers; the convergence
// helpers operate over the hosted subset (the cross-process settle is the
// scenario engine's member target, runtime/scenario.cpp, built on the
// transport's control plane).
//
// Harness calls (request, call, digests) are funnelled through the owning
// server's mailbox like every other event: the harness thread never
// touches a Shim directly.
#pragma once

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "crypto/signature.h"
#include "crypto/verifier_pool.h"
#include "rt/loopback_transport.h"
#include "rt/mailbox.h"
#include "rt/tcp_transport.h"
#include "rt/udp_transport.h"
#include "shim/shim.h"
#include "sync/checkpointer.h"
#include "sync/state_sync.h"
#include "sync/storage.h"

namespace blockdag::rt {

enum class TransportBackend {
  kLoopback,  // one mailbox push per delivery (rt/loopback_transport.h)
  kTcp,       // real TCP sockets framed by net/frame.h (rt/tcp_transport.h)
  kUdp,       // UDP + userspace reliability + fault injection
              // (rt/udp_transport.h); the adversarial real-socket backend
};

// One hosted server's checkpoint writer (sync/checkpointer.h): a thread
// running the writer half of its epoch steps — checkpoint build, encoding
// and the durable store — while the server thread keeps consuming blocks.
// Continuations go back through the server's mailbox. The thread runs at
// a lower priority than the server threads (niceness 10): when CPUs are
// contended, consuming blocks goes before building a cache of them. A
// queued or running job holds one IdleTracker unit, so wait_idle() never
// reports quiescence with an epoch step half done. Shutdown follows the "block until finish"
// rule: stop() lets the job in flight finish, joins, and refuses every
// later submit; it runs before the owner's mailbox closes, so the job's
// last continuation still has a mailbox to land in.
class CheckpointWriterThread final : public blockdag::sync::CheckpointWriter {
 public:
  CheckpointWriterThread(ServerId server, Mailbox& owner, IdleTracker& idle);
  ~CheckpointWriterThread() override;  // stop()s
  CheckpointWriterThread(const CheckpointWriterThread&) = delete;
  CheckpointWriterThread& operator=(const CheckpointWriterThread&) = delete;

  bool submit(std::function<void()> job) override;
  bool post_back(std::function<void()> task) override {
    return owner_.push(std::move(task));
  }
  // Runs what was submitted, then joins. Idempotent.
  void stop();

 private:
  void run(ServerId server);

  Mailbox& owner_;
  IdleTracker& idle_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stopped_ = false;
  std::thread thread_;
};

// Dissemination is batched at every layer, with no knob (DESIGN.md §13):
// node threads drain their whole mailbox per wakeup, gossip buffers egress
// and flushes it as send_many/broadcast_many runs, verifier handles stage
// submissions for one pool lock per drain, and the socket backends pack
// envelopes into kBatch frames. Semantics and convergence digests are those
// of the serial simulator, which has none of this.
struct ThreadedConfig {
  std::uint32_t n_servers = 4;
  GossipConfig gossip{};
  // Pacing intervals are *real* nanoseconds here (sim_ms(10) = 10ms of
  // wall-clock between dissemination beats).
  PacingConfig pacing{};
  SeqNoMode seq_mode = SeqNoMode::kConsecutive;
  std::uint64_t seed = 1;
  // Signature scheme wired into block validation (--sig ideal|hmac|wots).
  // Every node (and every verifier-pool worker) builds its own provider
  // from (scheme, n_servers, seed), so instances can verify each other's
  // signatures without key exchange.
  // A real (non-ideal) scheme verifies off-thread, batched on the verifier
  // pool (crypto/verifier_pool.h); the ideal one inline.
  SigScheme sig_scheme = SigScheme::kIdeal;
  VerifierPoolConfig verifier_pool{};
  // Hosted servers that get a mailbox/thread/timers but NO protocol stack:
  // the harness attaches its own wire handler via raw_transport() and
  // drives work through post() — adversary hosting for the threads fuzzer.
  // Must be a subset of the hosted servers; excluded from start()/stop(),
  // convergence, digests and every aggregate.
  std::vector<ServerId> raw_servers;
  TransportBackend backend = TransportBackend::kLoopback;
  // TCP backend settings (n_servers is filled in from the field above).
  // tcp.local_servers selects the hosted subset; empty = all (the
  // single-process `--runtime tcp` deployment). Loopback hosts all servers
  // by definition.
  TcpConfig tcp{};
  // UDP backend settings, same conventions as `tcp` (n_servers filled in,
  // udp.local_servers selects the hosted subset).
  UdpConfig udp{};

  // --- Durable crash recovery (src/sync, DESIGN.md §10) ---
  // Per-server storage sink factory; a null function (or a null return for
  // a given server) means that server runs without persistence. Sinks are
  // NOT owned and must outlive the runtime — durable state surviving
  // crash()/restart() is the whole point.
  std::function<blockdag::sync::StorageSink*(ServerId)> storage;
  // Epoch checkpoint cadence; epoch_blocks == 0 disables checkpoint/GC
  // epochs (the block log still accumulates when a sink is attached).
  // Crash-fault deployments only: GC's tip census trusts claimed builders.
  blockdag::sync::CheckpointerConfig checkpoint{};
  // Mount a state-sync engine per hosted server. The provider side answers
  // peers' catch-up requests from construction on; the requester side runs
  // only when kicked — restart() does so automatically, fresh late joiners
  // use start_sync().
  bool enable_state_sync = false;
  blockdag::sync::SyncConfig sync{};
  // Optional per-server adjustment applied on top of `sync` at mount time
  // (heterogeneous deployments: the manifest carries the provider's chunk
  // geometry, so peers need not share chunk_bytes/window settings).
  std::function<void(ServerId, blockdag::sync::SyncConfig&)> sync_tweak;
};

class ThreadedRuntime {
 public:
  ThreadedRuntime(const ProtocolFactory& factory, ThreadedConfig config);
  ~ThreadedRuntime();  // shutdown()s

  std::uint32_t size() const { return config_.n_servers; }
  // ServerIds hosted by this runtime instance, ascending (including raw
  // adversary servers).
  const std::vector<ServerId>& local_servers() const { return local_; }
  // Hosted servers running the protocol stack (local_ minus raw_servers) —
  // the domain of request()/call()/digests and every aggregate.
  const std::vector<ServerId>& protocol_servers() const { return shimmed_; }
  bool hosts(ServerId server) const {
    return server < nodes_.size() && nodes_[server] != nullptr;
  }

  // Non-null iff backend == kTcp: bind status, ports, control plane,
  // connection-drop test hook.
  TcpTransport* tcp() { return tcp_; }
  // Non-null iff backend == kUdp: bind status, ports, control plane, fault
  // injection (loss/reorder/duplication/partition) and reliability stats.
  UdpTransport* udp() { return udp_; }
  // True when the backend's sockets bound successfully (vacuously true for
  // loopback) — the backend-agnostic form of tcp()->ok() / udp()->ok().
  bool transport_ok() const;
  // Control-plane registration on whichever socket backend is active
  // (asserts on loopback, which has no cross-process control plane).
  void set_control_handler(ServerId server, Transport::Handler handler);

  // Starts / stops every hosted server's dissemination loop (posted to the
  // servers' threads; start() returns without waiting for the first beat).
  void start();
  void stop();

  // Closes every mailbox and joins all threads. Idempotent; after this the
  // runtime only serves already-computed state.
  void shutdown();

  // request(ℓ, r) on `server`, executed on its thread. Hosted servers only.
  void request(ServerId server, Label label, Bytes request);

  // Runs `fn(Shim&)` on `server`'s thread and returns its result. The only
  // sanctioned way to read a server's state from outside. Must not be
  // called from a server thread (it blocks the caller until `fn` ran).
  // Hosted servers only.
  template <typename F>
  auto call(ServerId server, F&& fn) {
    using R = std::invoke_result_t<F&, Shim&>;
    Shim* shim = shim_of(server);
    std::promise<R> promise;
    auto future = promise.get_future();
    const bool posted = mailbox_of(server).push([&promise, &fn, shim] {
      if constexpr (std::is_void_v<R>) {
        fn(*shim);
        promise.set_value();
      } else {
        promise.set_value(fn(*shim));
      }
    });
    if (!posted) {
      // Mailbox closed ⇒ shutdown() already joined every thread, so the
      // caller is the only thread left and may touch the shim directly.
      return fn(*shim);
    }
    return future.get();
  }

  // Blocks until no task is queued or running anywhere, no timer is armed,
  // no sent frame awaits the wire and no frame between two hosted servers
  // awaits its receiver's mailbox (requires stopped dissemination loops to
  // be reachable at all).
  bool wait_idle(std::chrono::nanoseconds timeout);

  // stop(), then converge_rounds() over the hosted protocol servers, each
  // round drained by wait_idle(), which also covers frames inside kernel
  // buffers (the link-settle rule, rt/link_layer.h). `round_timeout`
  // bounds each drain; returns false if `max_rounds` or a timeout was not
  // enough.
  bool quiesce_and_converge(std::size_t max_rounds = 64,
                            std::chrono::nanoseconds round_timeout =
                                std::chrono::seconds(10));

  // Digest of `server`'s DAG vertex set (equal digests ⇔ identical DAGs).
  Bytes dag_digest(ServerId server);
  // Digest over digest_of() of every block in `server`'s DAG — the Lemma
  // 4.2 check: equal iff both servers interpret every block identically.
  Bytes interpretation_digest(ServerId server);

  // Aggregates over the hosted protocol servers.
  std::size_t indicated_count(Label label);
  std::uint64_t total_blocks_inserted();
  // Aggregate verifier-pool counters: pool-global worker stats merged with
  // every hosted handle's submit/cache counters. All-zero when the pool is
  // disabled (ideal scheme by default).
  VerifierPoolStats verifier_stats();
  // Aggregate interpreter counters across hosted protocol servers (sums).
  InterpreterStats interpreter_stats();
  // Always 0: interpretation is serial; kept because e2ebench reads it.
  std::size_t interpret_workers() const { return 0; }
  WireMetrics wire_metrics() const { return transport_->wire_metrics(); }

  // --- Adversary hosting (raw_servers; threads-fuzz harness only) ---
  // The transport to attach a raw server's wire handler on (a hosted
  // server's kControl frames are sent on it too), and its timer
  // service. The handler runs on the raw server's own thread (deliveries
  // are mailbox tasks like everywhere else).
  Transport& raw_transport() { return *transport_; }
  TimerService& raw_timers(ServerId server) {
    assert(hosts(server));
    return *nodes_[server]->timers;
  }
  // Posts a task onto a hosted server's thread; false once shut down.
  bool post(ServerId server, std::function<void()> task) {
    assert(hosts(server));
    return nodes_[server]->mailbox->push(std::move(task));
  }

  // --- Crash-fault injection (hosted servers only) ---
  // Kills `server` in place, on its own thread: the shim halts (sends
  // nothing, drops every delivery), state sync stops and the checkpoint
  // writer is joined, so a store in flight has landed or failed before
  // crash() returns and the sink holds the final durable state. The
  // process, its mailbox and its storage sink stay alive — this models the
  // instant after a SIGKILL, before the operator restarts the binary.
  void crash(ServerId server);
  // Builds a fresh incarnation of `server` over the same mailbox/thread/
  // storage sink: new Shim + Checkpointer + SyncEngine, restored from the
  // sink's newest checkpoint + block log, started if the runtime is
  // running, then kicked into state sync to fetch what it missed while
  // down. Returns false if the durable state failed to restore (corrupt or
  // alien storage) — the incarnation is left halted in that case.
  bool restart(ServerId server);
  // Kicks the requester side of `server`'s sync engine (fresh late joiner
  // with nothing on disk). restart() does this automatically.
  void start_sync(ServerId server);
  // Servers whose constructor-time restore failed (corrupt storage). The
  // affected shims are halted; a cluster member refuses to run (exit 3).
  const std::vector<ServerId>& restore_failures() const {
    return restore_failures_;
  }

  // Thread-safe by-value copy of one hosted server's recovery/sync
  // counters (taken on the server's thread, like every state read).
  struct SyncSnapshot {
    blockdag::sync::CheckpointerStats checkpointer;
    blockdag::sync::RestoreStats restore;
    blockdag::sync::SyncStats sync;
    std::uint64_t epoch = 0;           // newest stored checkpoint epoch
    bool sync_active = false;
    bool sync_completed = false;
    std::uint64_t blocks_interpreted = 0;
  };
  SyncSnapshot sync_snapshot(ServerId server);

 private:
  struct Node {
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<NodeTimerService> timers;
    // Each server owns a provider instance (same seed ⇒ same key
    // directory), so signing/verifying never shares mutable state across
    // threads. Scheme selected by ThreadedConfig::sig_scheme.
    std::unique_ptr<SignatureProvider> sigs;
    // Verifier-pool endpoint + verdict cache; outlives shim incarnations
    // (crash/restart keeps the cache warm), null when the pool is off.
    std::unique_ptr<VerifierPool::Handle> verify_handle;
    std::unique_ptr<Shim> shim;
    // Recovery plumbing (null when not configured). `storage` is borrowed
    // from ThreadedConfig::storage and survives restarts — it IS the
    // durable state.
    blockdag::sync::StorageSink* storage = nullptr;
    // Exists exactly when `checkpointer` does; one per incarnation.
    std::unique_ptr<CheckpointWriterThread> writer;
    std::unique_ptr<blockdag::sync::Checkpointer> checkpointer;
    std::unique_ptr<blockdag::sync::SyncEngine> sync_engine;
    // Crashed incarnations are retired here, not freed: armed timers and
    // queued mailbox tasks still hold raw pointers into them (they are
    // halted, so firing into one is a no-op). Freed at shutdown.
    std::vector<std::unique_ptr<Shim>> retired_shims;
    std::vector<std::unique_ptr<blockdag::sync::Checkpointer>> retired_checkpointers;
    // Stopped writers of crashed incarnations: their checkpointers' queued
    // continuations still call submit() on them (refused once stopped).
    std::vector<std::unique_ptr<CheckpointWriterThread>> retired_writers;
    std::vector<std::unique_ptr<blockdag::sync::SyncEngine>> retired_sync;
    std::thread thread;
  };

  Shim* shim_of(ServerId server) {
    assert(hosts(server) && nodes_[server]->shim);
    return nodes_[server]->shim.get();
  }
  Mailbox& mailbox_of(ServerId server) { return *nodes_[server]->mailbox; }
  // The node thread's event loop (DESIGN.md §13): swaps the whole mailbox
  // queue per wakeup, runs every task, then flushes the node's buffered
  // gossip egress and staged verifier submissions BEFORE releasing the
  // batch's work units — so the IdleTracker can never report quiescence
  // while either buffer is non-empty. Dereferences node.shim at flush
  // time: restart() swaps incarnations on this same thread, never
  // concurrently.
  static void drain_loop(Node& node);
  // (Re)builds `server`'s protocol stack: Shim + recovery plumbing. Must
  // run with no concurrent access to the node — the constructor (before
  // threads exist) or the node's own thread (restart()).
  void mount_node(ServerId server);
  // Routes gossip's Definition 3.3(i) check through the verifier pool.
  // Called only after any checkpoint restore: log replay must verify
  // synchronously.
  void attach_async_verifier(ServerId server);

  const ProtocolFactory& factory_;
  ThreadedConfig config_;
  std::vector<ServerId> local_;
  std::vector<ServerId> shimmed_;  // local_ minus config_.raw_servers
  std::vector<ServerId> restore_failures_;
  bool running_ = false;
  IdleTracker idle_;
  // Zero of every hosted server's now(), so timestamps agree across them.
  const Mailbox::Clock::time_point epoch_ = Mailbox::Clock::now();
  std::unique_ptr<VerifierPool> pool_;  // null when disabled
  std::unique_ptr<Transport> transport_;
  LinkLayer* link_ = nullptr;    // borrowed view of a socket transport_
  TcpTransport* tcp_ = nullptr;  // borrowed view of transport_ when kTcp
  UdpTransport* udp_ = nullptr;  // borrowed view of transport_ when kUdp
  std::vector<std::unique_ptr<Node>> nodes_;
  bool shut_down_ = false;
};

// Canonical digests used by the convergence checks (free functions so
// tests can cross-check them on sim-side DAGs too).
Bytes dag_digest(const BlockDag& dag);
Bytes interpretation_digest(const Interpreter& interpreter, const BlockDag& dag);

// Runs a function on every correct server's shim, in server order, and
// returns once all of them ran.
using EachShim = std::function<void(const std::function<void(Shim&)>&)>;

// The fixed-point round loop behind both runtimes' quiesce_and_converge
// (DESIGN.md §6): two-phase rounds — every server disseminates, drain(),
// every server interprets, drain() — until every server holds the
// identical DAG (Lemma 3.7) AND a round moved no interpreter counter, so
// every materialized message has been consumed (Algorithm 2 lines 7–11).
// The caller has stopped dissemination and drained once. With
// `collect_garbage` each server GCs before it is sampled (checkpoint
// epochs prune on per-server cadences; live sets compare only at the GC
// fixpoint). False if `max_rounds` or a drain (timeout) was not enough.
bool converge_rounds(std::size_t max_rounds, bool collect_garbage,
                     const EachShim& each, const std::function<bool()>& drain);

}  // namespace blockdag::rt
