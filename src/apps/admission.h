// Admission control shared by the serving apps (DESIGN.md §11).
//
// httpd and kvstore run one overload model. A request is admitted into a
// bounded queue and served at a fixed concurrency; a full queue sheds it at
// once, and a request that waited past its deadline is shed at the queue
// head instead of burning cycles on an answer its client gave up on. Under
// sustained pressure the server browns out — degraded work at a fraction
// of the cycles — with hysteresis on queue fill so it does not flap.
//
// Every request is in exactly one bucket at every instant:
//
//   received == completed + shed_admission + shed_deadline
//               + refused_at_start + depth + in_service
//
// `completed` is the owner's finished work, however it splits it. The
// queue keeps every other term, their registry series and the brownout
// state; the owner keeps what an entry holds, the cycles it costs, and its
// reply and shed bodies.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "sim/simulation.h"
#include "util/json.h"
#include "util/metrics.h"

namespace picloud::apps {

// The overload knobs both serving apps share, under the same `app_params`
// keys. The apps' params structs derive from it.
struct AdmissionParams {
  // Master switch: off reproduces the pre-overload-tier behaviour (every
  // request goes straight to service, unbounded) — the no-shedding baseline
  // the flash-crowd acceptance test compares against.
  bool admission_control = true;
  // Bound on requests waiting for a service slot. Full queue -> shed.
  int queue_capacity = 64;
  // Requests in service simultaneously; the rest wait in the queue.
  int service_concurrency = 4;
  // Time a request may wait in the queue; checked when it reaches the head,
  // expired entries are shed instead of burning cycles.
  sim::Duration queue_deadline = sim::Duration::millis(750);
  // Brownout: hysteresis on queue fill, entering degraded serving at
  // `enter` and leaving it at `exit`. Degraded work costs cycles * factor.
  double brownout_enter_fill = 0.75;
  double brownout_exit_fill = 0.25;
  double brownout_cycles_factor = 0.25;

  // Reads the keys `j` holds; a missing key keeps the field's value, so
  // each app's own defaults stay its defaults.
  void read_json(const util::Json& j);
  void write_json(util::Json& j) const;
};

// The queue's registry series, aggregated across instances of one app kind.
struct AdmissionSeries {
  util::Counter* received = nullptr;
  util::Counter* shed_admission = nullptr;
  util::Counter* shed_deadline = nullptr;
  util::Counter* refused_at_start = nullptr;
  util::Counter* brownout_entered = nullptr;  // null: the app has none
  util::Gauge* queue_depth = nullptr;

  // Binds `<scope><received>` and `<scope>shed_admission`, `shed_deadline`,
  // `refused_at_start`, `queue_depth`, plus `brownout_entered` when
  // `count_brownouts`. `scope` is "apps.<kind>.".
  void bind(util::MetricsRegistry& registry, const std::string& scope,
            const char* received_name, bool count_brownouts);
};

// One server's admission queue. The queue calls two members of Owner:
//
//   void serve(Entry entry, bool degraded);  // start the work; its
//       // completion calls finish(), and if that is true, replies and
//       // then calls pump()
//   void shed(const Entry& entry, const char* cause);  // the cheap refusal
//
// `cause` is "admission" (full queue) or "deadline" (waited too long).
template <typename Owner, typename Entry>
class AdmissionQueue {
 public:
  AdmissionQueue(Owner& owner, const AdmissionParams& params)
      : owner_(owner), params_(params) {}
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Opens the queue; the arguments name its series (AdmissionSeries::bind).
  void start(sim::Simulation& sim, const std::string& scope,
             const char* received_name, bool count_brownouts) {
    sim_ = &sim;
    series_.bind(sim.metrics(), scope, received_name, count_brownouts);
  }

  // Closes the queue: requests still waiting die with the listener and are
  // refused_at_start, so the identity survives a stop (migration freeze,
  // node drain). Work in service ends through finish().
  void stop() {
    while (!queue_.empty()) {
      ++refused_at_start_;
      series_.refused_at_start->inc();
      queue_.pop_front();
      series_.queue_depth->add(-1);
    }
    sim_ = nullptr;
  }

  // Books one request, then serves, queues or sheds it.
  void admit(Entry entry) {
    ++received_;
    series_.received->inc();
    const sim::SimTime deadline = sim_->now() + params_.queue_deadline;
    if (!params_.admission_control) {
      // Unbounded concurrency, no shedding: the baseline that collapses
      // under a flash crowd.
      ++in_service_;
      owner_.serve(std::move(entry), false);
      return;
    }
    if (static_cast<int>(queue_.size()) >= params_.queue_capacity) {
      ++shed_admission_;
      series_.shed_admission->inc();
      owner_.shed(entry, "admission");
      return;
    }
    queue_.push_back({std::move(entry), deadline});
    series_.queue_depth->add(1);
    update_brownout();
    pump();
  }

  // Books the end of one serve(). False, counted refused_at_start, when
  // the work was cancelled or the queue stopped while it ran.
  bool finish(bool completed) {
    --in_service_;
    if (completed && sim_ != nullptr) return true;
    ++refused_at_start_;
    series_.refused_at_start->inc();
    return false;
  }

  // Fills free service slots from the queue head, shedding expired
  // entries, then updates brownout. With admission off nothing is queued.
  void pump() {
    while (sim_ != nullptr && in_service_ < params_.service_concurrency &&
           !queue_.empty()) {
      Waiting next = std::move(queue_.front());
      queue_.pop_front();
      series_.queue_depth->add(-1);
      if (sim_->now() > next.deadline) {
        ++shed_deadline_;
        series_.shed_deadline->inc();
        owner_.shed(next.entry, "deadline");
        continue;
      }
      ++in_service_;
      owner_.serve(std::move(next.entry), brownout_);
    }
    update_brownout();
  }

  std::uint64_t received() const { return received_; }
  std::uint64_t shed_admission() const { return shed_admission_; }
  std::uint64_t shed_deadline() const { return shed_deadline_; }
  // Admitted but never completed: cancelled mid-service (container
  // stopped, destroyed or OOM-killed) or still queued at stop().
  std::uint64_t refused_at_start() const { return refused_at_start_; }
  std::uint64_t dropped() const {
    return shed_admission_ + shed_deadline_ + refused_at_start_;
  }
  std::size_t depth() const { return queue_.size(); }
  int in_service() const { return in_service_; }
  bool brownout() const { return brownout_; }

  // The right-hand side of the identity, given the owner's finished work.
  std::uint64_t accounted(std::uint64_t completed) const {
    return completed + dropped() + queue_.size() +
           static_cast<std::uint64_t>(in_service_);
  }
  bool conserved(std::uint64_t completed) const {
    return received_ == accounted(completed);
  }

  // The queue's part of the app's status() body.
  void write_status(util::Json& j) const {
    j.set("shed_admission", static_cast<unsigned long long>(shed_admission_));
    j.set("shed_deadline", static_cast<unsigned long long>(shed_deadline_));
    j.set("refused_at_start",
          static_cast<unsigned long long>(refused_at_start_));
    j.set("queue_depth", static_cast<unsigned long long>(queue_.size()));
    j.set("brownout", brownout_);
  }

 private:
  struct Waiting {
    Entry entry;
    sim::SimTime deadline;
  };

  void update_brownout() {
    const double fill = params_.queue_capacity > 0
                            ? static_cast<double>(queue_.size()) /
                                  static_cast<double>(params_.queue_capacity)
                            : 0.0;
    if (!brownout_ && fill >= params_.brownout_enter_fill) {
      brownout_ = true;
      if (series_.brownout_entered != nullptr) series_.brownout_entered->inc();
    } else if (brownout_ && fill <= params_.brownout_exit_fill) {
      brownout_ = false;
    }
  }

  Owner& owner_;
  const AdmissionParams& params_;
  sim::Simulation* sim_ = nullptr;  // null while stopped
  std::deque<Waiting> queue_;       // bounded by params_.queue_capacity
  int in_service_ = 0;
  bool brownout_ = false;

  std::uint64_t received_ = 0;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t refused_at_start_ = 0;
  AdmissionSeries series_;
};

}  // namespace picloud::apps
