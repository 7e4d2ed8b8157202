// Scripted mixed kernel scenario for the hot-loop golden digest.
//
// This scenario exercises every scheduling tier the event kernel has —
// sub-millisecond one-shots (heap tier), multi-second one-shots (timer-wheel
// tier after the hot-loop refactor), same-instant collisions scheduled from
// different distances, periodic tasks (including one that stops itself),
// cancellation of both near and far pending events, and the cancel/re-arm
// churn pattern the fair-share allocators produce.
//
// The digest folds (label, fire-time) for every callback in execution order,
// so it witnesses the exact event ordering. tests/sim_wheel_test.cc asserts
// it equals the golden captured on the pre-refactor pure-binary-heap kernel:
// the timer wheel must be a pure representation change, invisible to
// ordering. Do not edit this scenario without re-capturing the golden from a
// known-good build.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace picloud::testing_support {

inline std::uint64_t hotloop_kernel_digest() {
  sim::Simulation sim(7);
  util::Rng rng = sim.rng().fork();
  util::Fnv1a d;
  int label = 0;
  std::vector<sim::EventId> doomed;

  // (1) 4000 one-shots across 0..20s: roughly half sub-millisecond (heap
  // tier), half seconds-scale (wheel tier), ~10% marked for cancellation.
  for (int i = 0; i < 4000; ++i) {
    const int lbl = label++;
    const std::int64_t ns =
        rng.chance(0.5) ? rng.uniform_int(0, 900'000)
                        : rng.uniform_int(1'000'000, 20'000'000'000);
    sim::EventId id =
        sim.after(sim::Duration::nanos(ns), [&d, lbl, &sim]() {
          d.add(static_cast<std::uint64_t>(lbl));
          d.add(static_cast<std::uint64_t>(sim.now().ns()));
        });
    if (rng.chance(0.1)) doomed.push_back(id);
  }

  // (2) Same-instant collisions scheduled from different distances. The
  // direct event is scheduled far ahead (wheel tier); relays fire moments
  // (or seconds) before the target instant and schedule into it from close
  // range (heap tier) and mid range. FIFO order at the shared instant must
  // hold across tiers.
  for (int i = 0; i < 300; ++i) {
    const std::int64_t target = 4'000'000'000 +
                                rng.uniform_int(0, 21) * 1'000'000'000 +
                                rng.uniform_int(0, 999'999'999);
    const sim::SimTime t = sim::SimTime::from_ns(target);
    const int a = label++;
    const int b = label++;
    const int c = label++;
    sim.at(t, [&d, a, &sim]() {
      d.add(static_cast<std::uint64_t>(a));
      d.add(static_cast<std::uint64_t>(sim.now().ns()));
    });
    // Near relay: 100ns before the instant, schedules into it from the heap
    // tier.
    sim.at(sim::SimTime::from_ns(target - 100), [&d, b, t, &sim]() {
      sim.at(t, [&d, b, &sim]() {
        d.add(static_cast<std::uint64_t>(b));
        d.add(static_cast<std::uint64_t>(sim.now().ns()));
      });
    });
    // Far relay: 3s before the instant, schedules into it from the wheel
    // tier.
    sim.at(sim::SimTime::from_ns(target - 3'000'000'000), [&d, c, t, &sim]() {
      sim.at(t, [&d, c, &sim]() {
        d.add(static_cast<std::uint64_t>(c));
        d.add(static_cast<std::uint64_t>(sim.now().ns()));
      });
    });
  }

  // (3) Periodic tasks with mixed periods, plus one that stops itself.
  std::vector<sim::Timer> tasks(8);
  for (sim::Timer& task : tasks) {
    const int lbl = label++;
    const sim::Duration period =
        sim::Duration::nanos(rng.uniform_int(50'000'000, 3'000'000'000));
    task.every(sim, period, [&d, lbl, &sim]() {
      d.add(static_cast<std::uint64_t>(lbl));
      d.add(static_cast<std::uint64_t>(sim.now().ns()));
    });
  }
  int stopper_ticks = 0;
  sim::Timer stopper;
  stopper.every(sim, sim::Duration::millis(200),
                [&d, &stopper_ticks, &stopper, &sim]() {
                  d.add(std::uint64_t{777});
                  d.add(static_cast<std::uint64_t>(sim.now().ns()));
                  if (++stopper_ticks == 20) stopper.cancel();
                });

  // (4) Cancel the doomed one-shots at 0.5s — some already fired (no-op),
  // some are near (heap corpses), some far (wheel corpses).
  sim.after(sim::Duration::millis(500), [&doomed, &d, &sim]() {
    for (sim::EventId id : doomed) sim.cancel(id);
    d.add(static_cast<std::uint64_t>(doomed.size()));
    d.add(static_cast<std::uint64_t>(sim.now().ns()));
  });

  // (5) Cancel/re-arm churn against the far tier: every 100ms the pending
  // 10s-out completion is cancelled and re-armed (the fair-share
  // reschedule pattern), leaving a trail of far corpses.
  sim::EventId pending = 0;
  sim::Timer churner;
  churner.every(
      sim, sim::Duration::millis(100), [&pending, &label, &d, &sim]() {
        if (pending != 0) sim.cancel(pending);
        const int lbl = label++;
        pending = sim.after(sim::Duration::seconds(10), [&d, lbl, &sim]() {
          d.add(static_cast<std::uint64_t>(lbl));
          d.add(static_cast<std::uint64_t>(sim.now().ns()));
        });
      });

  sim.run_until(sim::SimTime::from_ns(8'000'000'000));
  d.add(sim.events_executed());
  sim.run_until(sim::SimTime::from_ns(26'000'000'000));
  tasks.clear();
  churner.cancel();
  stopper.cancel();
  sim.run();  // drain the tail (the last re-armed completion, late relays)
  d.add(sim.events_executed());
  d.add(static_cast<std::uint64_t>(sim.now().ns()));
  return d.value();
}

}  // namespace picloud::testing_support
