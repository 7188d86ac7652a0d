// MPSC mailbox with local timers + global idle tracking for the threaded
// runtime.
//
// Concurrency model (DESIGN.md §7): each server owns exactly one mailbox,
// drained by exactly one thread, and every way the outside world touches a
// server — network delivery, timer expiry, user requests, harness calls —
// is a task that leaves through this mailbox. Handlers therefore run one at
// a time per server and to completion, which is precisely the single-writer
// discipline the shared rqsts buffer documents (gossip/request_buffer.h)
// and the simulator provides for free. No protocol state is ever locked;
// the mailbox is the only synchronization point.
//
// The paper's one temporal primitive is a local timer of one server (the
// FWD delay Δ of Algorithm 1 and the dissemination pacing of Algorithm 3),
// so a server's timers live in its own mailbox: the consumer sleeps on the
// mailbox condvar until a push arrives or its earliest deadline passes, and
// due timers leave in the same batch as queued tasks. No thread exists just
// to keep time.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/timer_service.h"

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

// Multi-producer single-consumer task queue (mutex + condvar) with a
// deadline heap under the same mutex. Producers are other servers' threads
// (network deliveries), the poll, verifier and checkpoint-writer threads,
// the harness, and the owner itself arming timers; the single consumer is
// the owning server's event loop.
class Mailbox {
 public:
  using Task = std::function<void()>;
  using Clock = std::chrono::steady_clock;
  using TimerId = TimerService::TimerId;

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

  // Arms `task` to leave through the first pop_all() at or after `due`. An
  // armed timer holds one IdleTracker unit, which becomes its task's unit
  // when it moves into a batch. kInvalidTimer (nothing armed) once closed.
  TimerId schedule_at(Clock::time_point due, Task task) {
    TimerId id;
    bool earliest;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return TimerService::kInvalidTimer;
      id = ++next_timer_;
      armed_.emplace(id, std::move(task));
      earliest = deadlines_.empty() || due < deadlines_.top().due;
      deadlines_.push(Deadline{due, id});
      idle_.add();
    }
    // Only a new earliest deadline shortens the consumer's sleep.
    if (earliest) cv_.notify_one();
    return id;
  }

  // True if the timer was still armed: its task will never run. False once
  // it moved into a batch (it will run), was cancelled, or was dropped by
  // close().
  bool cancel(TimerId id) {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_.erase(id) == 0) return false;
    idle_.sub();
    return true;  // its heap entry is skipped when it surfaces
  }

  // Batch-drain (DESIGN.md §13): swaps the entire queue into `out` in one
  // wakeup instead of one condvar round per task, then appends every due
  // timer in deadline order. Blocks while the mailbox is open and holds
  // neither a queued task nor a due timer, waking at the earliest
  // deadline. `out` is cleared first and receives the tasks in push order,
  // so per-sender FIFO holds.
  // Returns false once closed AND drained. The consumer must call
  // task_done(out.size()) after running the batch — the work units stay
  // outstanding until then, so the IdleTracker cannot dip to zero while a
  // drained-but-unfinished batch (or anything it buffered, e.g. gossip
  // egress) is still in flight.
  bool pop_all(std::deque<Task>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      std::swap(out, queue_);
      take_due_timers(out);
      if (!out.empty()) return true;
      if (closed_) return false;
      // No wait predicate: the loop re-checks after every wakeup, because a
      // new earliest deadline must also cut a timed wait short.
      if (deadlines_.empty()) {
        cv_.wait(lock);
      } else {
        // A copy: wait_until reads the deadline again after relocking,
        // when an arming producer may have reallocated the heap.
        const Clock::time_point due = deadlines_.top().due;
        cv_.wait_until(lock, due);
      }
    }
  }

  void task_done(std::uint64_t n = 1) { idle_.sub(n); }

  // No further pushes or timers accepted; armed timers are dropped and
  // their units released. Queued tasks still drain through pop_all().
  void close() {
    std::unordered_map<TimerId, Task> dropped;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      idle_.sub(armed_.size());
      std::swap(dropped, armed_);
      deadlines_ = {};
    }
    cv_.notify_all();
    // `dropped` is destroyed here, outside the lock: a capture's destructor
    // may reach back into this mailbox.
  }

 private:
  struct Deadline {
    Clock::time_point due;
    TimerId id;
  };
  struct Later {
    bool operator()(const Deadline& a, const Deadline& b) const {
      return a.due != b.due ? a.due > b.due : a.id > b.id;
    }
  };

  // Moves every due timer's task into `out` and drops cancelled heads, so
  // the heap's top is afterwards the earliest deadline still armed.
  void take_due_timers(std::deque<Task>& out) {
    if (deadlines_.empty()) return;
    const Clock::time_point now = Clock::now();
    while (!deadlines_.empty()) {
      const Deadline head = deadlines_.top();
      const auto it = armed_.find(head.id);
      if (it != armed_.end()) {
        if (head.due > now) return;
        out.push_back(std::move(it->second));
        armed_.erase(it);
      }
      deadlines_.pop();
    }
  }

  IdleTracker& idle_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::priority_queue<Deadline, std::vector<Deadline>, Later> deadlines_;
  // Tasks of armed timers by id; cancel() removes the entry and the stale
  // heap node is skipped when it surfaces.
  std::unordered_map<TimerId, Task> armed_;
  TimerId next_timer_ = TimerService::kInvalidTimer;
  bool closed_ = false;
};

// The TimerService one server sees: its timers ride its own mailbox, and
// now() counts from one epoch shared by every server of a runtime, so
// timestamps agree across its servers.
class NodeTimerService final : public TimerService {
 public:
  NodeTimerService(Mailbox& mailbox, Mailbox::Clock::time_point epoch)
      : mailbox_(mailbox), epoch_(epoch) {}

  SimTime now() const override {
    const auto since = Mailbox::Clock::now() - epoch_;
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(since).count());
  }

  TimerId schedule_after(SimTime delay, Action action) override {
    return mailbox_.schedule_at(
        Mailbox::Clock::now() + std::chrono::nanoseconds(delay), std::move(action));
  }

  bool cancel(TimerId id) override { return mailbox_.cancel(id); }

 private:
  Mailbox& mailbox_;
  const Mailbox::Clock::time_point epoch_;
};

}  // namespace blockdag::rt
