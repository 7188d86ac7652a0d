// VerifierPool: off-thread verification with mailbox-posted verdicts.
//
// The pool's whole contract is concurrency-shaped, so these tests run a
// REAL owner: an rt::Mailbox drained by its own consumer thread, with the
// rt::IdleTracker bridged through the WorkHook exactly as the threaded
// runtime wires it. Covered: verdicts that complete out of submission
// order, positive AND negative verdict caching, wait_idle() covering
// in-flight verifications, and a stop() racing a half-verified batch —
// the latter looped so Tsan gets repeated shots at the shutdown interleaving
// (CI runs this binary under -fsanitize=thread).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/hash.h"
#include "crypto/verifier_pool.h"
#include "rt/mailbox.h"

namespace blockdag {
namespace {

// Deterministic provider with test-controlled latency: sigma[0] is the
// verdict, sigma[1] a delay in milliseconds the verify call sleeps for.
// No key material — the pool treats providers as black boxes.
class StubProvider final : public SignatureProvider {
 public:
  Bytes sign(ServerId signer, std::span<const std::uint8_t> message) override {
    ++counters_.signs;
    (void)signer;
    (void)message;
    return Bytes{1, 0};
  }
  bool verify(ServerId claimed, std::span<const std::uint8_t> message,
              std::span<const std::uint8_t> signature) override {
    ++counters_.verifies;
    (void)claimed;
    (void)message;
    if (signature.size() < 2) return false;
    if (signature[1] > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(signature[1]));
    return signature[0] == 1;
  }
};

Hash256 ref_of(std::uint8_t tag) {
  Bytes seed{tag};
  return Hash256::of(seed);
}

// One owner server: single consumer thread draining an MPSC mailbox, the
// same loop shape as ThreadedRuntime::drain_loop — drain the whole queue,
// run it, flush the handle's staged submissions, then release the units.
struct Owner {
  rt::IdleTracker idle;
  rt::Mailbox mailbox;
  // Set before the first post; the mailbox lock orders it before the
  // owner thread's first read.
  VerifierPool::Handle* handle = nullptr;
  std::thread thread;

  Owner() : mailbox(idle), thread([this] {
    std::deque<rt::Mailbox::Task> batch;
    while (mailbox.pop_all(batch)) {
      const std::uint64_t n = batch.size();
      for (rt::Mailbox::Task& task : batch) task();
      batch.clear();
      if (handle) handle->flush();
      mailbox.task_done(n);
    }
  }) {}

  ~Owner() { shutdown(); }

  bool post(std::function<void()> fn) { return mailbox.push(std::move(fn)); }

  // Runs `fn` on the owner thread and waits for it — the only sound way for
  // the test harness to touch owner-thread-only state (the Handle).
  void run_on_owner(std::function<void()> fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool ran = false;
    ASSERT_TRUE(post([&] {
      fn();
      std::lock_guard<std::mutex> lock(mu);
      ran = true;
      cv.notify_one();
    }));
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ran; });
  }

  void shutdown() {
    mailbox.close();
    if (thread.joinable()) thread.join();
  }
};

struct PoolRig {
  Owner owner;
  // Verdicts recorded on the owner thread; mutex only so the main thread
  // can read them after wait_idle (the owner thread is still alive then).
  std::mutex mu;
  std::vector<std::pair<Hash256, bool>> verdicts;
  std::unique_ptr<VerifierPool::Handle> handle;
  VerifierPool pool;

  explicit PoolRig(VerifierPoolConfig cfg = {})
      : pool([] { return std::make_unique<StubProvider>(); }, cfg) {
    pool.start();
    handle = pool.make_handle(
        [this](std::function<void()> fn) { return owner.post(std::move(fn)); },
        [this](bool retain) { retain ? owner.idle.add() : owner.idle.sub(); });
    owner.handle = handle.get();
  }

  // Teardown order matters: join the workers first (no new verdict posts),
  // then drain + join the owner (queued verdict tasks still touch `handle`
  // and `verdicts`, which must outlive the owner thread).
  ~PoolRig() {
    pool.stop();
    owner.shutdown();
  }

  // Submits from the owner thread (Handle methods are owner-thread-only).
  void submit(const Hash256& ref, Bytes sigma) {
    owner.run_on_owner([this, ref, sigma = std::move(sigma)]() mutable {
      handle->submit(3, ref, std::move(sigma), [this, ref](bool ok) {
        std::lock_guard<std::mutex> lock(mu);
        verdicts.emplace_back(ref, ok);
      });
    });
  }

  bool wait_idle_for(int ms) {
    return owner.idle.wait_idle(std::chrono::milliseconds(ms));
  }

  std::vector<std::pair<Hash256, bool>> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return verdicts;
  }
};

TEST(VerifierPool, OutOfOrderVerdictsAllPostBack) {
  VerifierPoolConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 1;  // one task per wakeup: the slow task blocks one worker
  PoolRig rig(cfg);

  // First submission is the slowest by far: with two workers the other
  // seven verdicts overtake it, so results post out of submission order
  // while every verdict still reaches the owner exactly once.
  rig.submit(ref_of(0), Bytes{1, 60});
  for (std::uint8_t i = 1; i < 8; ++i)
    rig.submit(ref_of(i), Bytes{static_cast<std::uint8_t>(i % 2), 0});
  ASSERT_TRUE(rig.wait_idle_for(10000));

  const auto got = rig.snapshot();
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(got.back().first, ref_of(0));  // slowest verdict lands last
  for (const auto& [ref, ok] : got) {
    bool expect = false;
    for (std::uint8_t i = 0; i < 8; ++i)
      if (ref == ref_of(i)) expect = (i == 0) || (i % 2 == 1);
    EXPECT_EQ(ok, expect);
  }
  rig.owner.run_on_owner([&] {
    EXPECT_EQ(rig.handle->stats().submitted, 8u);
    EXPECT_EQ(rig.handle->stats().results_posted, 8u);
    EXPECT_EQ(rig.handle->stats().cache_hits, 0u);
  });
  EXPECT_EQ(rig.pool.stats().verified, 8u);
  EXPECT_GE(rig.pool.stats().batches, 2u);  // both workers took work
}

TEST(VerifierPool, CachesPositiveAndNegativeVerdicts) {
  PoolRig rig;
  rig.submit(ref_of(10), Bytes{1, 0});  // valid
  rig.submit(ref_of(11), Bytes{0, 0});  // forged
  ASSERT_TRUE(rig.wait_idle_for(10000));
  ASSERT_EQ(rig.snapshot().size(), 2u);
  ASSERT_EQ(rig.pool.stats().verified, 2u);

  // Re-submissions — even with a DIFFERENT sigma, as a re-gossiped or
  // re-flooded block would carry — are answered inline from the cache,
  // keyed by ref: no worker runs, done() fires synchronously on the owner.
  rig.submit(ref_of(10), Bytes{0, 0});  // cache says valid regardless
  rig.submit(ref_of(11), Bytes{1, 0});  // cache says forged regardless
  const auto got = rig.snapshot();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_TRUE(got[2].second);
  EXPECT_FALSE(got[3].second);
  rig.owner.run_on_owner([&] {
    EXPECT_EQ(rig.handle->stats().cache_hits, 2u);
    EXPECT_EQ(rig.handle->stats().submitted, 2u);  // misses only
  });
  EXPECT_EQ(rig.pool.stats().verified, 2u);  // no new worker verifications
}

TEST(VerifierPool, CacheEvictsOldestFirst) {
  VerifierPoolConfig cfg;
  cfg.cache_capacity = 2;
  cfg.workers = 1;  // verdicts post in submit order ⇒ FIFO age is exact
  PoolRig rig(cfg);
  rig.submit(ref_of(20), Bytes{1, 0});
  rig.submit(ref_of(21), Bytes{1, 0});
  rig.submit(ref_of(22), Bytes{1, 0});  // evicts 20's verdict
  ASSERT_TRUE(rig.wait_idle_for(10000));

  rig.submit(ref_of(22), Bytes{1, 0});  // hit
  rig.submit(ref_of(20), Bytes{1, 0});  // miss: goes back to a worker
  ASSERT_TRUE(rig.wait_idle_for(10000));
  rig.owner.run_on_owner([&] {
    EXPECT_EQ(rig.handle->stats().cache_hits, 1u);
    EXPECT_EQ(rig.handle->stats().submitted, 4u);
  });
  EXPECT_EQ(rig.pool.stats().verified, 4u);
}

TEST(VerifierPool, WaitIdleCoversInFlightVerification) {
  PoolRig rig;
  // One slow verification: the mailbox drains immediately (the submit task
  // finishes) but the WorkHook keeps a unit retained until the verdict is
  // posted — so idle is NOT reached while the worker is still checking.
  rig.submit(ref_of(30), Bytes{1, 120});
  EXPECT_FALSE(rig.wait_idle_for(20));  // verification still in flight
  ASSERT_TRUE(rig.wait_idle_for(10000));
  ASSERT_EQ(rig.snapshot().size(), 1u);
  EXPECT_TRUE(rig.snapshot()[0].second);
  EXPECT_EQ(rig.owner.idle.count(), 0u);
}

TEST(VerifierPool, StopRacingHalfVerifiedBatchReleasesEveryUnit) {
  // Shutdown races a burst mid-verification, repeatedly: every submitted
  // task must either post its verdict or be dropped with its work unit
  // released — the tracker must always return to 0 and the accounting must
  // add up. Ten rounds give Tsan distinct interleavings.
  for (int round = 0; round < 10; ++round) {
    PoolRig rig;  // fresh owner + pool each round
    const int kTasks = 24;
    for (std::uint8_t i = 0; i < kTasks; ++i)
      rig.submit(ref_of(i), Bytes{1, static_cast<std::uint8_t>(i % 3)});
    // Let a prefix of the batch complete, then yank the pool.
    std::this_thread::sleep_for(std::chrono::milliseconds(round % 4));
    rig.pool.stop();
    ASSERT_TRUE(rig.wait_idle_for(10000)) << "round " << round;

    const VerifierPoolStats pool_stats = rig.pool.stats();
    rig.owner.run_on_owner([&] {
      const VerifierPoolStats& h = rig.handle->stats();
      EXPECT_EQ(h.submitted, static_cast<std::uint64_t>(kTasks));
      // Conservation: every task was either posted back or dropped.
      EXPECT_EQ(h.results_posted + pool_stats.dropped,
                static_cast<std::uint64_t>(kTasks))
          << "round " << round;
    });
    EXPECT_EQ(rig.snapshot().size() + pool_stats.dropped,
              static_cast<std::size_t>(kTasks));
    // (wait_idle, not count(): run_on_owner returns before the owner loop's
    // task_done, so the count is transiently 1 right after a posted task.)
    EXPECT_TRUE(rig.wait_idle_for(1000));

    // Submissions after stop() are dropped inline, never wedged.
    rig.submit(ref_of(200), Bytes{1, 0});
    EXPECT_TRUE(rig.wait_idle_for(1000));
    rig.owner.run_on_owner([&] {
      EXPECT_EQ(rig.handle->stats().results_posted + rig.pool.stats().dropped,
                static_cast<std::uint64_t>(kTasks) + 1);
    });
  }
}

TEST(VerifierPool, PerWorkerProvidersAreIndependent) {
  // The factory runs once per worker; a counting factory proves no provider
  // instance is shared across workers (wots' directory cache is unlocked).
  std::mutex mu;
  int built = 0;
  VerifierPoolConfig cfg;
  cfg.workers = 3;
  VerifierPool pool(
      [&]() -> std::unique_ptr<SignatureProvider> {
        std::lock_guard<std::mutex> lock(mu);
        ++built;
        return std::make_unique<StubProvider>();
      },
      cfg);
  pool.start();
  // Workers construct their provider on entry; poke them with work so all
  // three are definitely up before we count.
  Owner owner;
  auto handle = pool.make_handle(
      [&owner](std::function<void()> fn) { return owner.post(std::move(fn)); },
      [&owner](bool retain) { retain ? owner.idle.add() : owner.idle.sub(); });
  owner.handle = handle.get();
  owner.run_on_owner([&] {
    for (std::uint8_t i = 0; i < 6; ++i)
      handle->submit(0, ref_of(i), Bytes{1, 5}, [](bool) {});
  });
  ASSERT_TRUE(owner.idle.wait_idle(std::chrono::seconds(10)));
  pool.stop();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(built, 3);
}

}  // namespace
}  // namespace blockdag
