// Autopilot — automated consolidation and node power management.
//
// Paper §III: "Virtual Machine (VM) management is an important aspect of
// Cloud Computing, since it allows for consolidation to reduce power
// consumption, and oversubscription to improve cost efficiency." The
// Autopilot closes that loop on the pimaster: it periodically looks at the
// fleet, live-migrates the instances off the emptiest node onto best-fit
// targets, and flips the vacated Pi's switch on the socket board. When CPU
// pressure rises it powers nodes back on (they re-run DHCP and re-register,
// like a real Pi being re-plugged).
//
// Deliberately gentle: at most one donor node is drained per evaluation, and
// every move is a live migration, so the §IV warning — "a naive
// consolidation algorithm may improve server resource usage at the expense
// of frequent episodes of network congestion" — can be observed rather than
// suffered.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cloud/pimaster.h"
#include "sim/simulation.h"

namespace picloud::cloud {

class Autopilot {
 public:
  struct Config {
    sim::Duration evaluation_period = sim::Duration::seconds(30);
    // Never drain below this many powered nodes.
    int min_nodes_on = 4;
    // Scale up when mean CPU across live nodes crosses this.
    double wake_cpu_threshold = 0.75;
    // Only drain a donor whose instances all fit elsewhere with headroom.
    double target_mem_headroom = 0.9;

    // --- SLO-burn scale-up (DESIGN.md §11) -----------------------------------
    // A registry counter whose growth is an SLO violation (shed requests,
    // deadline drops — e.g. "apps.httpd.shed_admission"). When it burns
    // faster than `slo_burn_threshold` per second since the previous
    // evaluation (or start()), the autopilot wakes parked capacity and fires
    // the scale-up hook instead of consolidating. Empty = disabled.
    std::string slo_burn_counter;
    double slo_burn_threshold = 1.0;  // violations/sec
  };

  // This autopilot's own tallies, kept out of the registry on purpose:
  // registering them would add names and change snapshot bytes.
  // picloud-lint: allow(metrics-registry)
  struct Stats {
    std::uint64_t evaluations = 0;
    std::uint64_t drains_started = 0;
    std::uint64_t migrations_ok = 0;
    std::uint64_t migrations_failed = 0;
    std::uint64_t nodes_powered_off = 0;
    std::uint64_t nodes_powered_on = 0;
    std::uint64_t slo_scale_ups = 0;
  };

  // Flips a node's power (the facade wires this to daemon start/stop —
  // physically, the socket-board switch).
  using PowerControl = std::function<void(const std::string& hostname, bool on)>;

  Autopilot(sim::Simulation& sim, PiMaster& master, Config config);
  ~Autopilot();

  Autopilot(const Autopilot&) = delete;
  Autopilot& operator=(const Autopilot&) = delete;

  void set_power_control(PowerControl control) {
    power_control_ = std::move(control);
  }

  // Fired on an SLO-burn scale-up decision (wired by the operator to e.g.
  // ReplicaSet::set_replicas on the burning tier).
  using ScaleUpHook = std::function<void()>;
  void set_scale_up_hook(ScaleUpHook hook) { scale_up_hook_ = std::move(hook); }

  void start();
  void stop();
  bool running() const { return running_; }

  // Nodes the autopilot itself switched off (eligible for wake-up).
  const std::set<std::string>& parked_nodes() const { return parked_; }
  const Stats& stats() const { return stats_; }

 private:
  void evaluate();
  // Drains `donor`'s instances one live migration at a time; powers the
  // node off when the last one lands.
  void drain(const std::string& donor, std::vector<std::string> instances);

  sim::Simulation& sim_;
  PiMaster& master_;
  Config config_;
  PowerControl power_control_;
  ScaleUpHook scale_up_hook_;
  // The SLO-burn counter's value, and the sim time, at the last sample.
  std::uint64_t last_slo_count_ = 0;
  sim::SimTime last_slo_sample_;
  bool running_ = false;
  bool draining_ = false;
  std::set<std::string> parked_;
  Stats stats_;
  sim::Timer evaluation_task_;
};

}  // namespace picloud::cloud
