// TimerService: the local-clock seam between the protocol stack and time.
//
// The paper's algorithms use exactly one temporal primitive: a local timer
// (the FWD re-request delay Δ of Algorithm 1 lines 10–11, and the
// dissemination pacing of Algorithm 3 lines 10–11). No global clock, no
// synchronized time — SimTime values from *different* servers' services are
// never compared across runtimes, only durations and one server's own
// timestamps.
//
// Implementations:
//   * Scheduler (sim/scheduler.h) — deterministic discrete-event virtual
//     time; `now()` is the simulation clock.
//   * NodeTimerService (rt/mailbox.h) — real monotonic clock; timers live
//     in the owning server's mailbox and leave through its batch drain, so
//     they run on that server's thread like every other event.
//
// Callback contract: the scheduled action runs at-most-once, never inside
// the schedule_after() call itself, and always serialized with the owning
// server's other handlers (single-writer-per-server).
#pragma once

#include <cstdint>
#include <functional>

#include "util/types.h"

namespace blockdag {

class TimerService {
 public:
  using Action = std::function<void()>;
  // Opaque handle for cancellation. Never reused within one service.
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  virtual ~TimerService() = default;

  // This server's monotonic clock, in nanoseconds. Comparable only with
  // other now() values and SimTime durations from the same service.
  virtual SimTime now() const = 0;

  // Runs `action` once, `delay` nanoseconds from now.
  virtual TimerId schedule_after(SimTime delay, Action action) = 0;

  // Cancels a pending timer. Returns true if it had not fired yet (the
  // action will now never run); false if it already fired or was cancelled.
  virtual bool cancel(TimerId id) = 0;
};

}  // namespace blockdag
