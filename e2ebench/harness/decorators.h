// Timing decorators for the two public extension points the harness can
// wrap from outside the program: ProtocolFactory (every Process the
// interpreter creates, clones and feeds) and sync::StorageSink (every
// block-log append and checkpoint store). Both forward every call
// unchanged — digests, checkpoints and indications are byte-identical with
// and without them (harness_test pins this) — and only add clock reads.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "protocol/protocol.h"
#include "sync/storage.h"

namespace e2ebench {

using blockdag::Bytes;
using blockdag::Label;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread call totals of one TimingFactory.
struct CallTotals {
  std::uint64_t request_calls = 0;
  std::uint64_t request_ns = 0;
  std::uint64_t message_calls = 0;
  std::uint64_t message_ns = 0;
  std::uint64_t clone_calls = 0;
  std::uint64_t clone_ns = 0;

  void add(const CallTotals& o) {
    request_calls += o.request_calls;
    request_ns += o.request_ns;
    message_calls += o.message_calls;
    message_ns += o.message_ns;
    clone_calls += o.clone_calls;
    clone_ns += o.clone_ns;
  }
  std::uint64_t busy_ns() const { return request_ns + message_ns; }
  std::uint64_t calls() const { return request_calls + message_calls; }
};

// Wraps every Process of `inner` in a timing shell. Calls arrive from
// server threads and parallel-interpretation workers at once, so each
// thread accumulates into its own cache-line-sized slot; totals() must be
// read only when no call is in flight (after the runtime shut down).
class TimingFactory final : public blockdag::ProtocolFactory {
 public:
  // Invoked on every on_request with the instance's label (any thread).
  using RequestHook = std::function<void(Label)>;

  explicit TimingFactory(const blockdag::ProtocolFactory& inner,
                         RequestHook on_request = {});
  // Every Process it creates holds its address.
  TimingFactory(const TimingFactory&) = delete;
  TimingFactory& operator=(const TimingFactory&) = delete;

  std::unique_ptr<blockdag::Process> create(Label label, blockdag::ServerId self,
                                            std::uint32_t n_servers) const override;
  std::unique_ptr<blockdag::Process> deserialize(Label label, blockdag::ServerId self,
                                                 std::uint32_t n_servers,
                                                 const Bytes& state) const override;
  const char* name() const override { return inner_.name(); }

  CallTotals totals() const;

  // Used by the timing shell: this thread's totals, and the request hook.
  CallTotals& slot() const;
  void note_request(Label label) const {
    if (on_request_) on_request_(label);
  }

 private:
  std::unique_ptr<blockdag::Process> wrap(std::unique_ptr<blockdag::Process> p,
                                          Label label) const;

  struct alignas(64) Slot {
    CallTotals totals;
  };
  static constexpr std::size_t kSlots = 256;

  const blockdag::ProtocolFactory& inner_;
  RequestHook on_request_;
  const std::uint64_t id_;  // process-unique, keys the thread-local slot cache
  mutable std::atomic<std::size_t> next_slot_{0};
  mutable std::array<Slot, kSlots> slots_{};
};

// Totals of one TimingSink.
struct SinkTotals {
  std::uint64_t appends = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_ns_max = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t failures = 0;  // append_block/store_checkpoint returned false
};

// Times append_block/store_checkpoint on `inner`. A sink is used by its
// server's thread only; read totals() after the runtime shut down. With
// `capture` set it also keeps every appended block payload, in order —
// the server's full insertion history, which the replay needs because
// epoch GC prunes the live DAG.
class TimingSink final : public blockdag::sync::StorageSink {
 public:
  TimingSink(blockdag::sync::StorageSink& inner, bool capture)
      : inner_(inner), capture_(capture) {}
  // The runtime holds its address.
  TimingSink(const TimingSink&) = delete;
  TimingSink& operator=(const TimingSink&) = delete;

  bool store_checkpoint(std::uint64_t epoch, const Bytes& bytes) override;
  bool append_block(blockdag::sync::LogKind kind, const Bytes& payload) override;
  bool load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                   std::vector<blockdag::sync::LogRecord>& log) override {
    return inner_.load_latest(epoch, checkpoint, log);
  }

  const SinkTotals& totals() const { return totals_; }
  const std::vector<Bytes>& captured() const { return captured_; }

 private:
  blockdag::sync::StorageSink& inner_;
  const bool capture_;
  SinkTotals totals_;
  std::vector<Bytes> captured_;
};

}  // namespace e2ebench
