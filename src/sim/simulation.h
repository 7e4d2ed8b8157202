// Simulation — the deterministic event loop every other module hangs off.
//
// Single-threaded by design: determinism is worth more to a research testbed
// than parallel speed (a full 56-node PiCloud day simulates in seconds).
// Components receive a Simulation& at construction and use after()/at() to
// schedule their behaviour; nothing in the codebase reads wall-clock time.
//
// after()/at() are templated so closures are built directly into the event
// queue's pooled slots (DESIGN.md §12) — passing a lambda costs no
// std::function and, for small trivially-copyable captures, no allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/event_queue.h"
#include "sim/schedule_point.h"
#include "sim/time.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace picloud::sim {

class Simulation {
 public:
  // `seed` feeds the root RNG; fork per-component streams from rng().
  explicit Simulation(std::uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run after `delay` (>= 0) from now.
  template <typename F>
  EventId after(Duration delay, F&& fn) {
    PICLOUD_CHECK_GE(delay.ns(), 0) << "after() with negative delay";
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `t` (>= now).
  template <typename F>
  EventId at(SimTime t, F&& fn) {
    PICLOUD_CHECK(t >= now_) << "at() in the past: t=" << t.ns()
                             << "ns now=" << now_.ns() << "ns";
    return queue_.schedule(t, std::forward<F>(fn));
  }

  // Schedules `fn` every `period` (> 0), first firing one period from now.
  // One pooled slot for the series' lifetime; cancel(id) stops it.
  template <typename F>
  EventId schedule_periodic(Duration period, F&& fn) {
    PICLOUD_CHECK_GT(period.ns(), 0) << "periodic event period";
    return queue_.schedule_periodic(now_ + period, period,
                                    std::forward<F>(fn));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  // True while `id` is pending (for periodic series: not yet stopped).
  bool event_pending(EventId id) const { return queue_.is_pending(id); }

  // Runs events until the queue drains or `horizon` is passed (events at
  // exactly `horizon` still run). Advances now() to `horizon` if the queue
  // drained earlier, so time-weighted metrics integrate over the full window.
  void run_until(SimTime horizon);

  // Runs until the event queue is empty.
  void run();

  // Convenience: run_until(now + d).
  void run_for(Duration d) { run_until(now_ + d); }

  // --- Single-stepping (model checker driver, DESIGN.md §13) -----------------
  // True while at least one event is pending.
  bool has_events() const { return !queue_.empty(); }
  // Absolute time of the earliest pending event. Requires has_events().
  // Non-const: may cascade timer-wheel buckets to locate the head.
  SimTime next_event_time() { return queue_.next_time(); }
  // Executes exactly one event (the earliest), advancing now() to its fire
  // time first. Requires has_events(). The mc::Explorer drives the clock
  // with this instead of run_until() so it can interpose schedule decisions
  // between any two events.
  void step() { queue_.run_next_into(&now_); }

  // Decision-point hook registry (sim/schedule_point.h): empty — and
  // digest-invisible — unless a model-checking strategy is installed.
  SchedulePointHub& schedule_points() { return schedule_points_; }
  const SchedulePointHub& schedule_points() const { return schedule_points_; }

  // Stops the current run_*() call after the in-flight event completes.
  void stop() { stop_requested_ = true; }

  // Root RNG for this simulation; components should fork() their own stream.
  util::Rng& rng() { return rng_; }

  // The telemetry spine (DESIGN.md §9): every layer registers its counters,
  // gauges and histograms here under hierarchical dotted names, and the
  // management plane serves snapshots over GET /metrics.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  // Sim-time structured event trace (ring buffer + optional sink); the
  // clock is pre-wired to this simulation's now().
  util::TraceBuffer& trace() { return trace_; }

  // Number of events executed so far (for bench reporting). Derived from
  // queue accounting (EventQueue::executed()) rather than counted in the run
  // loop — a per-event counter increment cost ~15% of kernel throughput
  // (DESIGN.md §12.3). The "sim.events_executed" metrics series reads the
  // same derivation through a registry-linked counter, so snapshots are
  // unchanged.
  std::uint64_t events_executed() const { return queue_.executed(); }

  // Event-pool / timer-wheel instrumentation (DESIGN.md §12.2).
  EventQueue::Stats queue_stats() const { return queue_.stats(); }

  // Publishes queue_stats() as sim.queue.* gauges. On demand only (bench
  // teardown, tests): steady-state runs never register these series, so
  // metrics snapshots — and run digests — are unchanged unless asked for.
  void publish_queue_stats();

  // Installs a log sink that prefixes the simulated clock, e.g.
  // "[   1.250000s] [INFO ] dhcp: OFFER 10.0.1.17 to b8:27:eb:...".
  void install_clock_log_sink();

 private:
  EventQueue queue_;
  SimTime now_;
  // Declared next to now_ so the run loop's per-iteration stop test shares
  // the clock's (always-hot) cache line instead of touching a line of its
  // own past the registry and trace ring.
  bool stop_requested_ = false;
  util::Rng rng_;
  util::MetricsRegistry metrics_;
  util::TraceBuffer trace_;
  SchedulePointHub schedule_points_;
};

// The owning handle for one pending event: a one-shot armed with after(),
// or a series armed with every() (first firing one period from now). An
// object holds each event it schedules on itself through a Timer, so none
// can fire into it once it is gone: re-arming, cancel() and destruction each
// cancel the pending event. Move-only; a moved-from handle owns nothing. A
// handle must not outlive its Simulation.
//
// Arming hands the closure to Simulation::after / schedule_periodic as is,
// so it costs the same pooled slot (DESIGN.md §12.1). A one-shot's slot is
// freed before its callback runs: the callback may re-arm or destroy its own
// handle, and armed() is false inside it.
class Timer {
 public:
  Timer() = default;
  ~Timer() { cancel(); }

  Timer(Timer&& other) noexcept : sim_(other.sim_), id_(other.id_) {
    other.sim_ = nullptr;
    other.id_ = 0;
  }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      cancel();
      sim_ = other.sim_;
      id_ = other.id_;
      other.sim_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  template <typename F>
  void after(Simulation& sim, Duration delay, F&& fn) {
    cancel();
    id_ = sim.after(delay, std::forward<F>(fn));
    sim_ = &sim;
  }

  template <typename F>
  void every(Simulation& sim, Duration period, F&& fn) {
    cancel();
    id_ = sim.schedule_periodic(period, std::forward<F>(fn));
    sim_ = &sim;
  }

  void cancel() {
    if (sim_ != nullptr) {
      sim_->cancel(id_);
      sim_ = nullptr;
      id_ = 0;
    }
  }

  // True while the event is pending; a series stays armed inside its own
  // callback until cancelled.
  bool armed() const { return sim_ != nullptr && sim_->event_pending(id_); }

 private:
  Simulation* sim_ = nullptr;
  EventId id_ = 0;
};

}  // namespace picloud::sim
