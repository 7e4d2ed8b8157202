// Unit tests for the discrete-event kernel: ordering, cancellation,
// periodic events, the owning Timer handle, determinism.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace picloud::sim {
namespace {

TEST(Duration, ArithmeticAndConversions) {
  EXPECT_EQ(Duration::millis(1).ns(), 1000000);
  EXPECT_EQ(Duration::seconds(1.5).to_millis(), 1500.0);
  EXPECT_EQ((Duration::seconds(2) + Duration::seconds(3)).to_seconds(), 5.0);
  EXPECT_EQ(Duration::seconds(10) / Duration::seconds(4), 2.5);
  EXPECT_LT(Duration::micros(1), Duration::millis(1));
  EXPECT_EQ(Duration::seconds(3).to_string(), "3.000s");
  EXPECT_EQ(Duration::micros(1500).to_string(), "1.500ms");
  EXPECT_EQ(Duration::millis(2).to_micros(), 2000.0);
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_FALSE(Duration::micros(1).is_zero());
}

TEST(SimTime, OrderingAndOffsets) {
  SimTime t = SimTime::zero() + Duration::seconds(1);
  EXPECT_GT(t, SimTime::zero());
  EXPECT_EQ((t - SimTime::zero()).to_seconds(), 1.0);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(300), [&]() { order.push_back(3); });
  q.schedule(SimTime::from_ns(100), [&]() { order.push_back(1); });
  q.schedule(SimTime::from_ns(200), [&]() { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::from_ns(50), [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// Locks the tie-break contract stated at the top of sim/event_queue.h:
// same-instant events fire in scheduling (sequence) order regardless of
// which representation parked them. The first two inserts at T land in the
// timer wheel (the cursor is still at granule 0 and T is several granules
// out); the mid event shares T's granule, so once it fires the cursor has
// advanced and the two inserts made from its callback take the near tier
// (singleton buffer / binary heap). The wheel events cascade back and must
// still beat the later-scheduled near events at the same instant.
TEST(EventQueue, TieBreakIsStableAcrossTiers) {
  EventQueue q;
  const SimTime kT = SimTime::from_ns(5000000);  // granule 4 at 2^20 ns each
  std::vector<int> order;
  q.schedule(kT, [&order]() { order.push_back(0); });
  q.schedule(kT, [&order]() { order.push_back(1); });
  q.schedule(SimTime::from_ns(4300000), [&q, &order, kT]() {
    q.schedule(kT, [&order]() { order.push_back(2); });
    q.schedule(kT, [&order]() { order.push_back(3); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // Prove the test exercised all tiers: far inserts hit the wheel and were
  // cascaded back into the near tier before firing.
  EXPECT_GE(q.stats().wheel_inserts, 2u);
  EXPECT_GE(q.stats().cascades, 1u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(SimTime::from_ns(10), [&]() { fired = true; });
  q.schedule(SimTime::from_ns(20), []() {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  EventId id = q.schedule(SimTime::from_ns(10), []() {});
  q.run_next();
  q.cancel(id);  // must not crash or corrupt counters
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 5) {
      q.schedule(SimTime::from_ns(count * 10), chain);
    }
  };
  q.schedule(SimTime::from_ns(0), chain);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, CancelAfterFireKeepsCountersIntact) {
  // The "timer raced with completion" pattern: cancelling an already-fired id
  // must not decrement live_count_ or mark anything else dead.
  EventQueue q;
  EventId fired_id = q.schedule(SimTime::from_ns(10), []() {});
  bool survivor_fired = false;
  q.schedule(SimTime::from_ns(20), [&]() { survivor_fired = true; });
  q.run_next();
  EXPECT_EQ(q.size(), 1u);
  q.cancel(fired_id);
  q.cancel(fired_id);  // double-cancel of a fired id is also a no-op
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.run_next();
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameInstantFifoSurvivesCompaction) {
  // Schedule survivors interleaved with thousands of doomed events at the
  // same instant, then cancel the doomed ones to force the internal heap
  // compaction. Survivors must still fire in scheduling (FIFO) order.
  EventQueue q;
  SimTime t = SimTime::from_ns(100);
  std::vector<int> fired;
  std::vector<EventId> doomed;
  for (int i = 0; i < 500; ++i) {
    for (int j = 0; j < 5; ++j) {
      doomed.push_back(q.schedule(t, []() {}));
    }
    q.schedule(t, [&fired, i]() { fired.push_back(i); });
  }
  for (EventId id : doomed) q.cancel(id);  // 2500 corpses > live + 1024
  EXPECT_EQ(q.size(), 500u);
  while (!q.empty()) q.run_next();
  ASSERT_EQ(fired.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(fired[i], i) << "FIFO order broken";
}

TEST(EventQueue, SizeAndEmptyConsistentUnderCancelRearmChurn) {
  // The fair-share reschedule pattern: every rate change cancels the pending
  // completion event and re-arms it. size()/empty() must track the live
  // count exactly through thousands of cancel/re-arm cycles (including the
  // lazy-deletion and compaction machinery underneath).
  EventQueue q;
  int completions = 0;
  EventId pending = 0;
  std::int64_t t = 1000;
  for (int cycle = 0; cycle < 3000; ++cycle) {
    if (pending != 0) q.cancel(pending);
    pending = q.schedule(SimTime::from_ns(t + cycle),
                         [&completions]() { ++completions; });
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
  }
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  // Cancelling the fired id afterwards changes nothing.
  q.cancel(pending);
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, AfterAdvancesClock) {
  Simulation sim;
  SimTime seen;
  sim.after(Duration::millis(250), [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.to_seconds(), 0.25);
  EXPECT_EQ(sim.now().to_seconds(), 0.25);
}

TEST(Simulation, RunUntilStopsAtHorizonAndAdvancesTime) {
  Simulation sim;
  int fired = 0;
  sim.after(Duration::seconds(1), [&]() { ++fired; });
  sim.after(Duration::seconds(10), [&]() { ++fired; });
  sim.run_until(SimTime::zero() + Duration::seconds(5));
  EXPECT_EQ(fired, 1);
  // Clock advanced to the horizon even though no event was there.
  EXPECT_EQ(sim.now().to_seconds(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StopHaltsTheLoop) {
  Simulation sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.after(Duration::seconds(i), [&sim, &fired]() {
      if (++fired == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.after(Duration::millis(i), []() {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Timer, EveryFiresAtPeriodUntilCancelled) {
  Simulation sim;
  int ticks = 0;
  Timer task;
  task.every(sim, Duration::seconds(1), [&]() { ++ticks; });
  sim.run_until(SimTime::zero() + Duration::seconds(5));
  EXPECT_EQ(ticks, 5);
  EXPECT_TRUE(task.armed());
  task.cancel();
  EXPECT_FALSE(task.armed());
  sim.run_until(SimTime::zero() + Duration::seconds(10));
  EXPECT_EQ(ticks, 5);
  EXPECT_FALSE(sim.has_events());
}

TEST(Timer, DestructionCancelsASeries) {
  Simulation sim;
  int ticks = 0;
  {
    Timer task;
    task.every(sim, Duration::seconds(1), [&]() { ++ticks; });
    sim.run_until(SimTime::zero() + Duration::seconds(2));
  }
  sim.run_until(SimTime::zero() + Duration::seconds(10));
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(sim.has_events());
}

TEST(Timer, SeriesCallbackMayCancelItself) {
  Simulation sim;
  int ticks = 0;
  Timer task;
  task.every(sim, Duration::seconds(1), [&]() {
    EXPECT_TRUE(task.armed());  // a series stays armed inside its callback
    if (++ticks == 3) task.cancel();
  });
  sim.run_until(SimTime::zero() + Duration::seconds(10));
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(task.armed());
}

TEST(Timer, ReArmingCancelsThePreviousEvent) {
  Simulation sim;
  int first = 0;
  int second = 0;
  int series = 0;
  Timer timer;
  timer.after(sim, Duration::seconds(1), [&]() { ++first; });
  timer.after(sim, Duration::seconds(2), [&]() { ++second; });
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);

  // A series re-armed as a one-shot, and a one-shot re-armed as a series.
  timer.every(sim, Duration::seconds(1), [&]() { ++series; });
  timer.after(sim, Duration::seconds(1), [&]() { ++first; });
  sim.run();
  EXPECT_EQ(series, 0);
  EXPECT_EQ(first, 1);
  timer.after(sim, Duration::seconds(1), [&]() { ++first; });
  timer.every(sim, Duration::seconds(1), [&]() { ++series; });
  sim.run_for(Duration::seconds(3));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(series, 3);
}

TEST(Timer, CancelAndDestructionCancelAOneShot) {
  Simulation sim;
  int fired = 0;
  Timer cancelled;
  cancelled.after(sim, Duration::seconds(1), [&]() { ++fired; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.armed());
  cancelled.cancel();  // cancelling an idle handle is a no-op
  {
    Timer destroyed;
    destroyed.after(sim, Duration::seconds(1), [&]() { ++fired; });
    EXPECT_TRUE(destroyed.armed());
  }
  EXPECT_FALSE(sim.has_events());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, MoveTransfersTheEvent) {
  Simulation sim;
  int fired = 0;
  int replaced = 0;
  Timer from;
  from.after(sim, Duration::seconds(1), [&]() { ++fired; });
  Timer to(std::move(from));
  EXPECT_TRUE(to.armed());
  EXPECT_FALSE(from.armed());  // NOLINT(bugprone-use-after-move)
  from.cancel();               // owns nothing: cancels nothing
  {
    Timer gone = std::move(from);  // destroying an empty handle is inert
  }
  EXPECT_TRUE(to.armed());

  // Move-assignment cancels what the target held and takes the source's.
  Timer target;
  target.after(sim, Duration::seconds(1), [&]() { ++replaced; });
  target = std::move(to);
  EXPECT_TRUE(target.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(replaced, 0);

  // The moved-to handle is the owner: destroying it cancels the event.
  from.after(sim, Duration::seconds(1), [&]() { ++fired; });
  {
    Timer owner = std::move(from);
  }
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, OneShotCallbackMayReArmItsOwnHandle) {
  Simulation sim;
  Timer timer;
  std::vector<double> at;
  std::function<void()> tick = [&]() {
    EXPECT_FALSE(timer.armed());  // a fired one-shot is no longer pending
    at.push_back(sim.now().to_seconds());
    if (at.size() < 3) timer.after(sim, Duration::seconds(1), tick);
    EXPECT_EQ(timer.armed(), at.size() < 3);
  };
  timer.after(sim, Duration::seconds(1), tick);
  sim.run();
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, CallbackMayDestroyItsOwnHandle) {
  Simulation sim;
  int fired = 0;
  auto one_shot = std::make_unique<Timer>();
  one_shot->after(sim, Duration::seconds(1), [&]() {
    one_shot.reset();
    ++fired;
  });
  auto series = std::make_unique<Timer>();
  series->every(sim, Duration::seconds(1), [&]() {
    series.reset();
    ++fired;
  });
  sim.run_for(Duration::seconds(5));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(one_shot, nullptr);
  EXPECT_EQ(series, nullptr);
  EXPECT_FALSE(sim.has_events());
}

TEST(Timer, SameEventCountsAsRawScheduling) {
  // One script, run through handles and through raw after/cancel: arm,
  // re-arm, cancel, destroy, fire, and a series stopped after two ticks.
  auto through_timers = []() {
    Simulation sim;
    int n = 0;
    Timer a;
    Timer b;
    Timer series;
    a.after(sim, Duration::seconds(1), [&n]() { ++n; });
    a.after(sim, Duration::seconds(2), [&n]() { ++n; });
    b.after(sim, Duration::seconds(3), [&n]() { ++n; });
    b.cancel();
    {
      Timer c;
      c.after(sim, Duration::seconds(4), [&n]() { ++n; });
    }
    series.every(sim, Duration::millis(500), [&n]() { ++n; });
    sim.run_for(Duration::seconds(1));
    series.cancel();
    sim.run();
    return std::make_pair(sim.events_executed(),
                          sim.queue_stats().live_highwater);
  };
  auto through_ids = []() {
    Simulation sim;
    int n = 0;
    EventId a = sim.after(Duration::seconds(1), [&n]() { ++n; });
    sim.cancel(a);
    a = sim.after(Duration::seconds(2), [&n]() { ++n; });
    EventId b = sim.after(Duration::seconds(3), [&n]() { ++n; });
    sim.cancel(b);
    EventId c = sim.after(Duration::seconds(4), [&n]() { ++n; });
    sim.cancel(c);
    EventId series = sim.schedule_periodic(Duration::millis(500),
                                           [&n]() { ++n; });
    sim.run_for(Duration::seconds(1));
    sim.cancel(series);
    sim.run();
    return std::make_pair(sim.events_executed(),
                          sim.queue_stats().live_highwater);
  };
  const auto timers = through_timers();
  EXPECT_EQ(timers, through_ids());
  EXPECT_EQ(timers.first, 3u);  // a's second arming and two series ticks
}

TEST(Simulation, DeterministicEventCountAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    util::Rng rng = sim.rng().fork();
    // A little self-scheduling storm.
    std::function<void(int)> spawn = [&](int depth) {
      if (depth >= 6) return;
      int fanout = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < fanout; ++i) {
        sim.after(Duration::millis(rng.uniform_int(1, 50)),
                  [&spawn, depth]() { spawn(depth + 1); });
      }
    };
    spawn(0);
    sim.run();
    return sim.events_executed();
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));  // overwhelmingly likely
}

}  // namespace
}  // namespace picloud::sim
