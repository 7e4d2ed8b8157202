// Time-varying workload traces.
//
// Paper §I: "Traffic patterns in operational Cloud DC networks constantly
// change over time and are generally unpredictable ... The realism of
// simulated traffic patterns is questionable, since traffic dynamism is
// difficult to model." This module supplies the dynamism: a diurnal
// request-rate curve with noise and flash crowds drives the load
// generators, and a TraceRecorder samples whatever cluster gauges an
// experiment wires in, producing the time-series tables figures are made
// of.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/loadgen.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace picloud::apps {

// Request rate as a function of simulated time-of-day.
class DiurnalProfile {
 public:
  struct Params {
    double base_rps = 20;    // overnight floor
    double peak_rps = 200;   // mid-day peak
    double peak_hour = 14;   // local time of the peak
    double noise = 0.1;      // multiplicative jitter (fraction)
    // Flash crowds: Poisson events multiplying the rate for a while.
    double flash_per_day = 0.5;
    double flash_multiplier = 3.0;
    sim::Duration flash_duration = sim::Duration::minutes(10);
  };

  DiurnalProfile(Params params, util::Rng rng);

  // Rate at simulated time `t` (t=0 is midnight). Deterministic in t for
  // the smooth part; noise/flash state advances via advance().
  double rate_at(sim::SimTime t) const;
  // Advances stochastic state (noise resample, flash arrivals) to `t`.
  void advance(sim::SimTime t);
  bool in_flash() const { return flash_until_.ns() > last_advance_.ns(); }

 private:
  Params params_;
  mutable util::Rng rng_;
  double noise_factor_ = 1.0;
  sim::SimTime flash_until_;
  sim::SimTime last_advance_;
};

// Drives an HttpLoadGen's rate along a profile, re-evaluating every period.
class TracePlayer {
 public:
  TracePlayer(sim::Simulation& sim, HttpLoadGen& generator,
              DiurnalProfile profile,
              sim::Duration update_period = sim::Duration::minutes(1));

  void start();
  void stop();
  double current_rps() const { return current_rps_; }

 private:
  void tick();

  sim::Simulation& sim_;
  HttpLoadGen& generator_;
  DiurnalProfile profile_;
  sim::Duration period_;
  double current_rps_ = 0;
  bool running_ = false;
  sim::Timer task_;
};

// Samples named gauges on a period and keeps the rows (a figure's columns).
class TraceRecorder {
 public:
  using Gauge = std::function<double()>;

  TraceRecorder(sim::Simulation& sim,
                sim::Duration period = sim::Duration::minutes(5));

  void add_gauge(const std::string& name, Gauge gauge);
  void start();
  void stop();

  struct Row {
    double t_seconds;
    std::map<std::string, double> values;
  };
  const std::vector<Row>& rows() const { return rows_; }
  // Renders an aligned table: t plus one column per gauge.
  std::string render() const;

 private:
  void sample();

  sim::Simulation& sim_;
  sim::Duration period_;
  std::vector<std::pair<std::string, Gauge>> gauges_;
  std::vector<Row> rows_;
  bool running_ = false;
  sim::Timer task_;
};

}  // namespace picloud::apps
