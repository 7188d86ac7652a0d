// Off-thread batched signature verification for the threaded runtime.
//
// Real providers (hmac, and especially wots at ~2·67·15 chained SHA-256
// compressions per verify) put Definition 3.3(i)'s per-block signature check
// on the gossip hot path. The pool claws that cost back while preserving the
// single-writer discipline of DESIGN.md §7: servers never verify inline —
// they submit (claimed signer, ref, sigma) to a small worker pool, and each
// verdict is posted back into the *owner server's mailbox*, exactly like a
// TCP/UDP poll thread posting a delivery. Protocol state is therefore still
// touched by one thread only; the pool sees nothing but immutable task data.
//
// Per-server Handles carry a bounded FIFO verdict cache keyed by block ref
// (positive AND negative verdicts), consulted on the owner thread at submit
// time: re-gossiped and FWD-recovered blocks — and forged blocks re-flooded
// after their ref was evicted from gossip's bounded rejected ring — are
// answered inline without touching a worker. Handles outlive server
// incarnations (they live beside the provider in the runtime Node), so the
// cache also survives crash/restart.
//
// Idle-tracker contract: submit() retains one work unit via the WorkHook;
// the unit is released only after the verdict task has been pushed into the
// owner mailbox (which takes its own unit) or the task is dropped at
// shutdown. IdleTracker::count() == 0 therefore still implies no
// verification is in flight anywhere — wait_idle() covers the pool.
//
// The sim runtime never constructs a pool: Cluster verifies synchronously
// inside handle_block, so seed replay stays byte-deterministic.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "crypto/hash.h"
#include "crypto/signature.h"
#include "util/types.h"

namespace blockdag {

struct VerifierPoolConfig {
  std::size_t workers = 2;          // verification worker threads
  std::size_t max_batch = 16;       // tasks drained per worker wakeup
  std::size_t cache_capacity = 4096;  // per-handle verdict-cache entries
};

// Counters for both pool-global and per-handle views; fields not meaningful
// for a given view stay zero (stats() reports verified/batches/dropped,
// Handle::stats() reports submitted/cache_hits/results_posted).
struct VerifierPoolStats {
  std::uint64_t submitted = 0;       // cache misses handed to the pool
  std::uint64_t cache_hits = 0;      // verdicts answered inline from cache
  std::uint64_t verified = 0;        // signatures actually checked by workers
  std::uint64_t batches = 0;         // worker wakeups that processed a batch
  std::uint64_t results_posted = 0;  // verdict tasks run on owner threads
  std::uint64_t dropped = 0;         // tasks abandoned at stop/closed mailbox
};

class VerifierPool {
 public:
  // Builds one SignatureProvider per worker thread, so workers never share
  // mutable provider state (the wots directory cache is per-instance).
  using ProviderFactory = std::function<std::unique_ptr<SignatureProvider>()>;
  // Posts a closure to the owner server's thread; false once closed.
  using Post = std::function<bool(std::function<void()>)>;
  // Idle-tracker bridge: called with true to retain a work unit at submit,
  // false to release it once the verdict is posted (or dropped).
  using WorkHook = std::function<void(bool retain)>;

  class Handle;

  // One unit of verification work (immutable once enqueued; workers read,
  // never write, everything but `done`).
  struct Task {
    ServerId claimed = 0;
    Hash256 ref;
    Bytes sigma;
    Handle* handle = nullptr;
    std::function<void(bool)> done;
  };

  // Per-owner-server submission endpoint + verdict cache. All methods must
  // be called from the owner's thread, except the pool-internal result path.
  class Handle {
   public:
    // Looks up the verdict cache first; on a hit invokes `done` inline and
    // returns. Otherwise retains a work unit and stages the verification
    // for the next flush().
    // `done` runs later on the owner thread (never inline on a miss); it is
    // silently dropped if the pool or the owner mailbox shuts down first.
    void submit(ServerId claimed, const Hash256& ref, Bytes sigma,
                std::function<void(bool)> done);

    // Hands every staged cache miss to the pool under ONE lock acquisition
    // and one worker wakeup (DESIGN.md §13). The owner's drain loop calls
    // it after each mailbox batch, BEFORE releasing the batch's work units,
    // so staged tasks can never outlive an IdleTracker quiescent point.
    void flush();

    // Handle-local counters (owner-thread view).
    const VerifierPoolStats& stats() const { return stats_; }

   private:
    friend class VerifierPool;

    Handle(VerifierPool& pool, Post post, WorkHook hook)
        : pool_(pool), post_(std::move(post)), hook_(std::move(hook)) {}

    bool cache_lookup(const Hash256& ref, bool& ok) const;
    void cache_record(const Hash256& ref, bool ok);
    // Worker-side: posts the verdict continuation to the owner thread.
    bool post_result(const Hash256& ref, bool ok, std::function<void(bool)> done);
    void release_unit() { hook_(false); }

    VerifierPool& pool_;
    const Post post_;
    const WorkHook hook_;
    std::vector<Task> staged_;
    // Bounded FIFO verdict cache (owner-thread only; no locks).
    std::unordered_map<Hash256, bool> cache_;
    std::deque<Hash256> cache_order_;
    VerifierPoolStats stats_;
  };

  explicit VerifierPool(ProviderFactory factory, VerifierPoolConfig config = {});
  ~VerifierPool();

  VerifierPool(const VerifierPool&) = delete;
  VerifierPool& operator=(const VerifierPool&) = delete;

  void start();
  // Joins workers; tasks still queued are dropped with their work units
  // released (counted in stats().dropped). Idempotent.
  void stop();

  // Creates the submission endpoint for one owner server. The Handle must
  // outlive every in-flight task it submitted — in practice it is destroyed
  // only after stop() returns.
  std::unique_ptr<Handle> make_handle(Post post, WorkHook hook);

  const VerifierPoolConfig& config() const { return config_; }
  VerifierPoolStats stats() const;  // pool-global counters

 private:
  // Batched enqueue: one lock + one notify for the whole vector. Returns
  // the number of tasks accepted (0 when stopping — callers must release
  // the submit-held units for every task themselves in that case).
  std::size_t enqueue_many(std::vector<Task> tasks);
  void worker_main();

  const ProviderFactory factory_;
  const VerifierPoolConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  VerifierPoolStats stats_;  // verified/batches/dropped only
  std::vector<std::thread> workers_;
};

}  // namespace blockdag
