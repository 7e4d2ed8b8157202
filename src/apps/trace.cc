#include "apps/trace.h"

#include <cmath>

#include "util/strings.h"

namespace picloud::apps {

DiurnalProfile::DiurnalProfile(Params params, util::Rng rng)
    : params_(params), rng_(rng) {}

double DiurnalProfile::rate_at(sim::SimTime t) const {
  double hour = std::fmod(t.to_seconds() / 3600.0, 24.0);
  // Smooth day/night swell: 1.0 at the peak hour, 0.0 twelve hours away,
  // squared to sharpen the business-hours bulge.
  double phase = (hour - params_.peak_hour) * M_PI / 12.0;
  double swell = 0.5 * (1.0 + std::cos(phase));
  swell *= swell;
  double rate = params_.base_rps + (params_.peak_rps - params_.base_rps) * swell;
  rate *= noise_factor_;
  if (t < flash_until_) rate *= params_.flash_multiplier;
  return rate;
}

void DiurnalProfile::advance(sim::SimTime t) {
  double elapsed_days =
      (t - last_advance_).to_seconds() / 86400.0;
  last_advance_ = t;
  // Resample multiplicative jitter.
  noise_factor_ = 1.0 + rng_.uniform(-params_.noise, params_.noise);
  // Flash crowd arrivals as a Bernoulli approximation of the Poisson rate
  // over the advance interval.
  if (elapsed_days > 0 &&
      rng_.chance(std::min(params_.flash_per_day * elapsed_days, 1.0))) {
    flash_until_ = t + params_.flash_duration;
  }
}

TracePlayer::TracePlayer(sim::Simulation& sim, HttpLoadGen& generator,
                         DiurnalProfile profile, sim::Duration update_period)
    : sim_(sim),
      generator_(generator),
      profile_(std::move(profile)),
      period_(update_period) {}

void TracePlayer::start() {
  if (running_) return;
  running_ = true;
  generator_.start();
  tick();
  task_.every(sim_, period_, [this]() { tick(); });
}

void TracePlayer::stop() {
  if (!running_) return;
  running_ = false;
  task_.cancel();
  generator_.stop();
}

void TracePlayer::tick() {
  profile_.advance(sim_.now());
  current_rps_ = profile_.rate_at(sim_.now());
  generator_.set_rate(current_rps_);
}

TraceRecorder::TraceRecorder(sim::Simulation& sim, sim::Duration period)
    : sim_(sim), period_(period) {}

void TraceRecorder::add_gauge(const std::string& name, Gauge gauge) {
  gauges_.emplace_back(name, std::move(gauge));
}

void TraceRecorder::start() {
  if (running_) return;
  running_ = true;
  sample();
  task_.every(sim_, period_, [this]() { sample(); });
}

void TraceRecorder::stop() {
  if (!running_) return;
  running_ = false;
  task_.cancel();
}

void TraceRecorder::sample() {
  Row row;
  row.t_seconds = sim_.now().to_seconds();
  for (const auto& [name, gauge] : gauges_) {
    row.values[name] = gauge();
  }
  rows_.push_back(std::move(row));
}

std::string TraceRecorder::render() const {
  std::string out = util::format("%10s", "t (s)");
  for (const auto& [name, gauge] : gauges_) {
    out += util::format(" %12s", name.c_str());
  }
  out += "\n";
  for (const Row& row : rows_) {
    out += util::format("%10.0f", row.t_seconds);
    for (const auto& [name, gauge] : gauges_) {
      auto it = row.values.find(name);
      out += util::format(" %12.2f", it != row.values.end() ? it->second : 0);
    }
    out += "\n";
  }
  return out;
}

}  // namespace picloud::apps
