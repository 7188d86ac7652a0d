// Local timers of the threaded runtime: Mailbox::schedule_at / cancel and
// the NodeTimerService facade over them (rt/mailbox.h).
//
// These pin the timer contract in isolation: at-most-once firing, cancel()
// returning true exactly when the task will never run, cancellation from
// foreign threads, re-arming from inside an expiry (the FWD retry pattern
// in gossip), the IdleTracker accounting that quiesce detection depends
// on, and how a due timer joins a pop_all() batch. Runs under
// ThreadSanitizer in CI next to the batch-drain test.
#include "rt/mailbox.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "testing/mailbox_rig.h"

namespace blockdag::rt {
namespace {

using namespace std::chrono_literals;
using testing::MailboxRig;

// Spins (politely) until `pred` holds or ~5s elapse. Timing-sensitive
// assertions stay loose so a loaded CI box cannot flake them.
template <typename Pred>
bool eventually(Pred pred) {
  return testing::wait_until(pred, std::chrono::milliseconds(5000));
}

// One mailbox drained by its own consumer thread, seen through the
// TimerService facade a server gets.
struct TimedServer {
  ~TimedServer() { rig.join(); }

  MailboxRig rig{1};
  Mailbox& mailbox = *rig.mailboxes()[0];
  NodeTimerService timers{mailbox, Mailbox::Clock::now()};
  IdleTracker& idle = rig.idle();
};

TEST(MailboxTimer, FiresOnceAndCancelAfterFireReturnsFalse) {
  TimedServer server;
  std::atomic<int> fired{0};
  const auto id = server.timers.schedule_after(sim_ms(1), [&] { ++fired; });
  ASSERT_TRUE(eventually([&] { return fired.load() == 1; }));
  // The work unit was released once the batch that ran it was done.
  ASSERT_TRUE(eventually([&] { return server.idle.count() == 0; }));
  // A fired timer is spent: cancel must report "too late" and never make
  // the count go negative (sub on a fired timer would corrupt quiesce).
  EXPECT_FALSE(server.timers.cancel(id));
  EXPECT_EQ(server.idle.count(), 0u);
  std::this_thread::sleep_for(5ms);
  EXPECT_EQ(fired.load(), 1);  // at-most-once
}

TEST(MailboxTimer, CancelPreventsFiringAndReleasesIdleUnit) {
  TimedServer server;
  std::atomic<int> fired{0};
  const auto id = server.timers.schedule_after(sim_sec(3600), [&] { ++fired; });
  EXPECT_EQ(server.idle.count(), 1u);
  EXPECT_TRUE(server.timers.cancel(id));
  EXPECT_EQ(server.idle.count(), 0u);
  EXPECT_FALSE(server.timers.cancel(id));  // double-cancel: already spent
  server.rig.join();
  EXPECT_EQ(fired.load(), 0);
}

TEST(MailboxTimer, CancelFromAnotherThreadIsSafe) {
  // A foreign thread cancels while the consumer's pop_all() races toward
  // the deadline; neither side may double-run or double-release. Drive
  // many racy iterations: every timer must end up exactly (fired XOR
  // cancelled).
  TimedServer server;
  std::atomic<int> fired{0};
  int cancelled = 0;
  constexpr int kIterations = 200;
  for (int i = 0; i < kIterations; ++i) {
    // Deadline so short the cancel below truly races the expiry.
    const auto id = server.timers.schedule_after(sim_us(50), [&] { ++fired; });
    std::thread canceller([&server, id, &cancelled] {
      if (server.timers.cancel(id)) ++cancelled;
    });
    canceller.join();
  }
  ASSERT_TRUE(eventually([&] { return server.idle.count() == 0; }));
  EXPECT_EQ(fired.load() + cancelled, kIterations);
}

TEST(MailboxTimer, ReArmDuringExpiryRunsTheNextShot) {
  // The FWD retry loop re-arms from inside the expiry (fire_fwd schedules
  // the next attempt): the consumer arms into its own mailbox mid-batch,
  // which must neither deadlock nor lose the shot.
  TimedServer server;
  std::atomic<int> shots{0};
  std::function<void()> chain = [&] {
    if (++shots < 3) server.timers.schedule_after(sim_us(200), chain);
  };
  server.timers.schedule_after(sim_us(200), chain);
  ASSERT_TRUE(eventually([&] { return shots.load() == 3; }));
  ASSERT_TRUE(eventually([&] { return server.idle.count() == 0; }));
  EXPECT_EQ(shots.load(), 3);
}

TEST(MailboxTimer, EarlierTimerArmedSecondStillFiresFirst) {
  // The consumer sleeps toward the earliest deadline; arming an earlier
  // timer while it sleeps must cut the nap short, not wait it out.
  TimedServer server;
  std::atomic<int> order{0};
  std::atomic<int> first_seen{-1};
  server.timers.schedule_after(sim_ms(200), [&] {
    int expected = -1;
    first_seen.compare_exchange_strong(expected, 1);
    ++order;
  });
  std::this_thread::sleep_for(2ms);  // let the consumer fall asleep
  server.timers.schedule_after(sim_ms(1), [&] {
    int expected = -1;
    first_seen.compare_exchange_strong(expected, 0);
    ++order;
  });
  ASSERT_TRUE(eventually([&] { return order.load() == 2; }));
  EXPECT_EQ(first_seen.load(), 0) << "the 1ms timer must beat the 200ms one";
}

TEST(MailboxTimer, CloseDropsArmedTimersAndReleasesIdleUnits) {
  TimedServer server;
  std::atomic<int> fired{0};
  for (int i = 0; i < 8; ++i) {
    server.timers.schedule_after(sim_sec(3600), [&] { ++fired; });
  }
  EXPECT_EQ(server.idle.count(), 8u);
  server.rig.join();  // closes the mailbox and joins its consumer
  EXPECT_EQ(server.idle.count(), 0u);
  EXPECT_EQ(fired.load(), 0);
}

TEST(MailboxTimer, NowIsMonotonic) {
  IdleTracker idle;
  Mailbox mailbox(idle);
  const NodeTimerService timers(mailbox, Mailbox::Clock::now());
  SimTime last = timers.now();
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = timers.now();
    ASSERT_GE(t, last);
    last = t;
  }
}

TEST(MailboxTimer, DueTimerLeavesInTheSameBatchAfterQueuedTasks) {
  // Drained on this thread so the batch can be inspected: a timer that is
  // due when pop_all() runs joins the batch behind every queued task, even
  // one armed before those tasks were pushed, and keeps its work unit
  // until task_done().
  IdleTracker idle;
  Mailbox mailbox(idle);
  std::string ran;
  ASSERT_NE(mailbox.schedule_at(Mailbox::Clock::now(), [&ran] { ran += 'T'; }),
            TimerService::kInvalidTimer);
  ASSERT_TRUE(mailbox.push([&ran] { ran += 'a'; }));
  ASSERT_TRUE(mailbox.push([&ran] { ran += 'b'; }));
  EXPECT_EQ(idle.count(), 3u);

  std::deque<Mailbox::Task> batch;
  ASSERT_TRUE(mailbox.pop_all(batch));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(idle.count(), 3u);  // the timer's unit became its task's unit
  for (Mailbox::Task& task : batch) task();
  EXPECT_EQ(ran, "abT");
  mailbox.task_done(batch.size());
  EXPECT_EQ(idle.count(), 0u);
  mailbox.close();
  EXPECT_FALSE(mailbox.pop_all(batch));
}

TEST(MailboxTimer, ScheduleAfterCloseArmsNothing) {
  IdleTracker idle;
  Mailbox mailbox(idle);
  mailbox.close();
  int fired = 0;
  const auto id = mailbox.schedule_at(Mailbox::Clock::now(), [&fired] { ++fired; });
  EXPECT_EQ(id, TimerService::kInvalidTimer);
  EXPECT_EQ(idle.count(), 0u);  // no unit is held for a timer never armed
  EXPECT_FALSE(mailbox.cancel(id));
  std::deque<Mailbox::Task> batch;
  EXPECT_FALSE(mailbox.pop_all(batch));  // closed, nothing queued or armed
  EXPECT_EQ(fired, 0);
}

TEST(MailboxTimer, ZeroDelayTimerArmedInsideATaskNeverRunsInsideIt) {
  // The TimerService callback contract: an action never runs inside the
  // schedule_after() call, nor anywhere else inside the task that armed
  // it — even with zero delay and a deadline long past when the task
  // returns, it leaves through a later batch.
  TimedServer server;
  std::atomic<bool> inside{false};
  std::atomic<int> ran{0};
  std::atomic<int> ran_inside{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.mailbox.push([&] {
      inside = true;
      server.timers.schedule_after(0, [&] {
        if (inside.load()) ++ran_inside;
        ++ran;
      });
      std::this_thread::sleep_for(200us);  // the deadline passes in here
      inside = false;
    }));
  }
  ASSERT_TRUE(eventually([&] { return ran.load() == 20; }));
  EXPECT_EQ(ran_inside.load(), 0);
  ASSERT_TRUE(eventually([&] { return server.idle.count() == 0; }));
}

}  // namespace
}  // namespace blockdag::rt
