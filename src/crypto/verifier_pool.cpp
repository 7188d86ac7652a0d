#include "crypto/verifier_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/thread_name.h"

namespace blockdag {

void VerifierPool::Handle::submit(ServerId claimed, const Hash256& ref,
                                  Bytes sigma, std::function<void(bool)> done) {
  bool ok = false;
  if (cache_lookup(ref, ok)) {
    ++stats_.cache_hits;
    done(ok);
    return;
  }
  ++stats_.submitted;
  hook_(true);  // held until the verdict task is posted (or dropped)
  staged_.push_back(Task{claimed, ref, std::move(sigma), this, std::move(done)});
}

void VerifierPool::Handle::flush() {
  if (staged_.empty()) return;
  std::vector<Task> tasks;
  tasks.swap(staged_);
  const std::size_t n = tasks.size();
  if (pool_.enqueue_many(std::move(tasks)) == 0) {
    // Pool stopping: verdicts never arrive; release every submit-held unit
    // so wait_idle() is not wedged.
    for (std::size_t i = 0; i < n; ++i) hook_(false);
  }
}

bool VerifierPool::Handle::cache_lookup(const Hash256& ref, bool& ok) const {
  const auto it = cache_.find(ref);
  if (it == cache_.end()) return false;
  ok = it->second;
  return true;
}

void VerifierPool::Handle::cache_record(const Hash256& ref, bool ok) {
  const std::size_t cap = pool_.config_.cache_capacity;
  if (cap == 0) return;
  if (!cache_.emplace(ref, ok).second) return;
  cache_order_.push_back(ref);
  while (cache_order_.size() > cap) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
}

bool VerifierPool::Handle::post_result(const Hash256& ref, bool ok,
                                       std::function<void(bool)> done) {
  // The posted closure runs on the owner thread: cache writes and stats
  // stay single-writer even though this method executes on a worker.
  return post_([this, ref, ok, done = std::move(done)] {
    cache_record(ref, ok);
    ++stats_.results_posted;
    done(ok);
  });
}

VerifierPool::VerifierPool(ProviderFactory factory, VerifierPoolConfig config)
    : factory_(std::move(factory)), config_(config) {}

VerifierPool::~VerifierPool() { stop(); }

void VerifierPool::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!workers_.empty() || stopping_) return;
  const std::size_t n = config_.workers == 0 ? 1 : config_.workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      name_this_thread("bd-verify" + std::to_string(i));
      worker_main();
    });
  }
}

void VerifierPool::stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
  // Anything still queued was raced by shutdown: release the submit-held
  // work units so wait_idle() is not wedged, and account the drops.
  std::deque<Task> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
    stats_.dropped += leftovers.size();
  }
  for (auto& t : leftovers) t.handle->release_unit();
}

std::unique_ptr<VerifierPool::Handle> VerifierPool::make_handle(Post post,
                                                                WorkHook hook) {
  return std::unique_ptr<Handle>(
      new Handle(*this, std::move(post), std::move(hook)));
}

VerifierPoolStats VerifierPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t VerifierPool::enqueue_many(std::vector<Task> tasks) {
  if (tasks.empty()) return 0;
  const std::size_t n = tasks.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      stats_.dropped += n;
      return 0;
    }
    for (auto& t : tasks) queue_.push_back(std::move(t));
  }
  // A batch can feed several workers; wake them all rather than relying on
  // a chain of single wakeups.
  if (n > 1) cv_.notify_all(); else cv_.notify_one();
  return n;
}

void VerifierPool::worker_main() {
  // One provider per worker: no shared mutable crypto state, no locks on
  // the verify path itself.
  const std::unique_ptr<SignatureProvider> provider = factory_();
  std::vector<Task> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // leftovers are drained/dropped by stop()
      const std::size_t take =
          std::min(queue_.size(), config_.max_batch == 0 ? std::size_t{1}
                                                         : config_.max_batch);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    std::uint64_t dropped = 0;
    for (auto& t : batch) {
      const bool ok = provider->verify(t.claimed, t.ref.span(), t.sigma);
      if (!t.handle->post_result(t.ref, ok, std::move(t.done))) ++dropped;
      // Posted or not, the verdict is now out of our hands: the mailbox
      // (which took its own unit on push) or nobody carries it forward.
      t.handle->release_unit();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batches;
      stats_.verified += batch.size();
      stats_.dropped += dropped;
    }
  }
}

}  // namespace blockdag
