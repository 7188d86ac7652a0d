// Test-only StorageSink decorator: a disk that fails one chosen write the
// way ENOSPC or EIO would, or a store that is cut off mid-flight.
//
// Every call is forwarded to `inner` unchanged except the scripted ones:
//   * fail_store(k):  the k-th store_checkpoint (1-based, counted across
//     restarts of the server over this sink) returns false unwritten;
//   * hold_store(k):  the k-th store_checkpoint blocks on the writer
//     thread until release(); it then lands (land = true) or returns false
//     unwritten, the durable state a kill before the rename leaves
//     (stop_holding() and HoldGuard end every hold for good);
//   * fail_recv_append(k): the k-th received-block append returns false.
// An optional observer sees every store before and after it is forwarded
// (on the writer thread), so a test can check which epoch files exist at
// that instant without racing the next epoch.
//
// The server thread appends while the writer thread stores, so all state
// here is behind one mutex.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "sync/storage.h"

namespace blockdag::testing {

class FailingSink final : public sync::StorageSink {
 public:
  // (epoch, forwarded-yet, outcome): outcome is meaningful only after.
  using StoreObserver = std::function<void(std::uint64_t, bool, bool)>;

  explicit FailingSink(sync::StorageSink& inner) : inner_(inner) {}

  void fail_store(std::uint64_t k) { fail_stores_.insert(k); }
  void hold_store(std::uint64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    hold_stores_.insert(k);
  }
  void fail_recv_append(std::uint64_t k) { fail_recv_appends_.insert(k); }
  void observe_stores(StoreObserver observer) { observer_ = std::move(observer); }

  bool store_checkpoint(std::uint64_t epoch, const Bytes& bytes) override {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t n = ++stores_;
    if (fail_stores_.count(n)) {
      ++failures_;
      return false;
    }
    if (hold_stores_.count(n)) {
      held_ = true;
      held_epoch_ = epoch;
      appends_while_held_ = 0;
      cv_.wait(lock, [this] { return released_; });
      released_ = false;
      held_ = false;
      if (!land_) {
        ++failures_;
        return false;
      }
    }
    lock.unlock();
    if (observer_) observer_(epoch, false, false);
    const bool ok = inner_.store_checkpoint(epoch, bytes);
    if (observer_) observer_(epoch, true, ok);
    return ok;
  }

  bool append_block(sync::LogKind kind, const Bytes& payload) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (held_) ++appends_while_held_;
      if (kind == sync::LogKind::kRecvBlock &&
          fail_recv_appends_.count(++recv_appends_)) {
        ++failures_;
        return false;
      }
    }
    return inner_.append_block(kind, payload);
  }

  bool load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                   std::vector<sync::LogRecord>& log) override {
    return inner_.load_latest(epoch, checkpoint, log);
  }

  // Waits (≤ 10 s) until a held store is blocked and at least `appends`
  // records were appended behind it; returns the held epoch, or 0.
  std::uint64_t wait_held(std::uint64_t appends) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (held_ && appends_while_held_ >= appends) return held_epoch_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0;
  }

  // Lets the held store finish: it lands, or fails unwritten.
  void release(bool land) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    land_ = land;
    cv_.notify_all();
  }

  // Lets a held store fail unwritten and holds no later one.
  void stop_holding() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_stores_.clear();
    released_ = true;
    land_ = false;
    cv_.notify_all();
  }

  std::uint64_t failures() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

  // stop_holding() on scope exit. Declare it after the runtime that writes
  // to the sink, so that it is destroyed first: a test that returns early
  // (a failed ASSERT) must not leave the runtime's destructor joining a
  // checkpoint writer held forever.
  class HoldGuard {
   public:
    explicit HoldGuard(FailingSink& sink) : sink_(sink) {}
    ~HoldGuard() { sink_.stop_holding(); }
    HoldGuard(const HoldGuard&) = delete;
    HoldGuard& operator=(const HoldGuard&) = delete;

   private:
    FailingSink& sink_;
  };

 private:
  sync::StorageSink& inner_;
  std::set<std::uint64_t> fail_stores_;
  std::set<std::uint64_t> hold_stores_;
  std::set<std::uint64_t> fail_recv_appends_;
  StoreObserver observer_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t stores_ = 0;
  std::uint64_t recv_appends_ = 0;
  std::uint64_t failures_ = 0;
  bool held_ = false;
  std::uint64_t held_epoch_ = 0;
  std::uint64_t appends_while_held_ = 0;
  bool released_ = false;
  bool land_ = false;
};

}  // namespace blockdag::testing
