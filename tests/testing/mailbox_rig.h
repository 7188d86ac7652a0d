// MailboxRig: one mailbox per server, each drained by its own consumer
// thread in ThreadedRuntime::drain_loop's shape (pop_all, run the batch,
// task_done). For tests that drive a socket Transport directly, with no
// protocol stack on top.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "rt/mailbox.h"

namespace blockdag::testing {

class MailboxRig {
 public:
  explicit MailboxRig(std::uint32_t n) {
    for (std::uint32_t s = 0; s < n; ++s) {
      boxes_.push_back(std::make_unique<rt::Mailbox>(idle_));
      raw_.push_back(boxes_.back().get());
    }
    for (rt::Mailbox* m : raw_) {
      threads_.emplace_back([m] {
        std::deque<rt::Mailbox::Task> batch;
        while (m->pop_all(batch)) {
          const std::uint64_t tasks = batch.size();
          for (rt::Mailbox::Task& task : batch) task();
          batch.clear();
          m->task_done(tasks);
        }
      });
    }
  }
  ~MailboxRig() { join(); }

  // Closes every mailbox and joins the consumers: on return every task
  // posted so far has run, and its effects are visible to the caller.
  void join() {
    for (rt::Mailbox* m : raw_) m->close();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  rt::IdleTracker& idle() { return idle_; }
  const std::vector<rt::Mailbox*>& mailboxes() const { return raw_; }

 private:
  rt::IdleTracker idle_;
  std::vector<std::unique_ptr<rt::Mailbox>> boxes_;
  std::vector<rt::Mailbox*> raw_;
  std::vector<std::thread> threads_;
};

// Envelope `i` of a numbered stream: a kBlock-tagged payload (the kBatch
// decoder validates inner tags) carrying i little-endian.
inline Bytes numbered_envelope(std::uint32_t i) {
  return Bytes{static_cast<std::uint8_t>(WireKind::kBlock),
               static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
               static_cast<std::uint8_t>(i >> 16),
               static_cast<std::uint8_t>(i >> 24)};
}

inline std::uint32_t envelope_number(const Bytes& payload) {
  if (payload.size() != 5) return UINT32_MAX;
  return static_cast<std::uint32_t>(payload[1]) |
         static_cast<std::uint32_t>(payload[2]) << 8 |
         static_cast<std::uint32_t>(payload[3]) << 16 |
         static_cast<std::uint32_t>(payload[4]) << 24;
}

// Polls `done` every millisecond until it holds or `timeout` passes.
template <typename Pred>
bool wait_until(Pred done, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace blockdag::testing
