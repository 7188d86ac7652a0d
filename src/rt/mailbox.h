// MPSC mailbox + global idle tracking for the threaded runtime.
//
// Concurrency model (DESIGN.md §7): each server owns exactly one mailbox,
// drained by exactly one thread, and every way the outside world touches a
// server — network delivery, timer expiry, user requests, harness calls —
// is a task pushed into that mailbox. Handlers therefore run one at a time
// per server and to completion, which is precisely the single-writer
// discipline the shared rqsts buffer documents (gossip/request_buffer.h)
// and the simulator provides for free. No protocol state is ever locked;
// the mailbox is the only synchronization point.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

namespace blockdag::rt {

// Counts outstanding work units across the whole runtime: queued mailbox
// tasks, running handlers (a task counts until its handler returns) and
// armed timers. count == 0 is a true quiescent point — nothing is running
// anywhere and nothing is scheduled to run — provided no external producer
// (the harness thread) injects more work, which is exactly how
// ThreadedRuntime::wait_idle() uses it.
class IdleTracker {
 public:
  void add(std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }

  void sub(std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ -= n;
    if (count_ == 0) cv_.notify_all();
  }

  std::uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  // Blocks until the count reaches 0; false on timeout.
  template <typename Rep, typename Period>
  bool wait_idle(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return count_ == 0; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t count_ = 0;
};

// Multi-producer single-consumer task queue (mutex + condvar). Producers
// are other servers' threads (network deliveries), the timer thread and
// the harness; the single consumer is the owning server's event loop.
class Mailbox {
 public:
  using Task = std::function<void()>;

  explicit Mailbox(IdleTracker& idle) : idle_(idle) {}

  // Enqueues `task`; false if the mailbox is closed (task dropped).
  bool push(Task task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      queue_.push_back(std::move(task));
      idle_.add();
    }
    cv_.notify_one();
    return true;
  }

  // Batch-drain (DESIGN.md §13): swaps the entire queue into `out` in one
  // wakeup instead of one condvar round per task, blocking while the
  // mailbox is open and empty. `out` is cleared first and receives the
  // tasks in push order, so per-sender FIFO holds.
  // Returns false once closed AND drained. The consumer must call
  // task_done(out.size()) after running the batch — the work units stay
  // outstanding until then, so the IdleTracker cannot dip to zero while a
  // drained-but-unfinished batch (or anything it buffered, e.g. gossip
  // egress) is still in flight.
  bool pop_all(std::deque<Task>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    std::swap(out, queue_);
    return true;
  }

  void task_done(std::uint64_t n = 1) { idle_.sub(n); }

  // No further pushes accepted; pending tasks still drain through pop_all().
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  IdleTracker& idle_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool closed_ = false;
};

}  // namespace blockdag::rt
