// Chaos — stochastic failure injection.
//
// Paper §I cites Gill et al., "Understanding network failures in data
// centers: Measurement, analysis, and implications": failures are a fact of
// DC life, and a credible scale model must produce them. ChaosMonkey
// crashes nodes and flaps links with configurable MTBF/MTTR, driven by the
// deterministic RNG, so availability experiments are reproducible.
//
// Crash recovery follows the physical reality: a "repaired" Pi is
// power-cycled (daemon restart), re-runs DHCP, and re-registers — its
// containers are gone, as they would be.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cloud/node_daemon.h"
#include "net/fabric.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace picloud::cloud {

class ChaosMonkey {
 public:
  struct Config {
    // Node failures: each node independently fails with this MTBF; repair
    // (power-cycle) after MTTR.
    sim::Duration node_mtbf = sim::Duration::minutes(60);
    sim::Duration node_mttr = sim::Duration::minutes(5);
    // Link flaps on the ToR uplinks.
    sim::Duration link_mtbf = sim::Duration::minutes(120);
    sim::Duration link_mttr = sim::Duration::seconds(30);
    // Lossy-link mode: links enter degraded periods (MTBF/MTTR like flaps)
    // during which each crossing flow is dropped with `loss_rate`. Zero
    // loss_mtbf disables the mode entirely (no rng draws, no fabric calls).
    sim::Duration loss_mtbf = sim::Duration::zero();
    sim::Duration loss_mttr = sim::Duration::seconds(30);
    double loss_rate = 0.05;
    // Evaluation tick.
    sim::Duration tick = sim::Duration::seconds(10);
  };

  ChaosMonkey(sim::Simulation& sim, net::Fabric& fabric, Config config,
              util::Rng rng);
  ~ChaosMonkey();

  ChaosMonkey(const ChaosMonkey&) = delete;
  ChaosMonkey& operator=(const ChaosMonkey&) = delete;

  // Targets. Daemons are crash/restarted; links are full-duplex pairs
  // (pass one direction's id).
  void add_node(NodeDaemon* daemon);
  void add_link(net::LinkId link);

  void start();
  void stop();

  size_t nodes_down() const { return down_nodes_.size(); }
  size_t links_down() const { return down_links_.size(); }
  size_t links_lossy() const { return lossy_links_.size(); }

 private:
  void tick();

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  Config config_;
  util::Rng rng_;
  std::vector<NodeDaemon*> nodes_;
  std::vector<net::LinkId> links_;
  std::set<size_t> down_nodes_;       // indices into nodes_
  std::set<size_t> down_links_;       // indices into links_
  std::set<size_t> lossy_links_;      // indices into links_
  // Registry counter handles under `cloud.chaos.*` (never null).
  util::Counter* node_crashes_ = nullptr;
  util::Counter* node_repairs_ = nullptr;
  util::Counter* link_cuts_ = nullptr;
  util::Counter* link_repairs_ = nullptr;
  util::Counter* loss_onsets_ = nullptr;
  util::Counter* loss_clears_ = nullptr;
  bool running_ = false;
  sim::Timer tick_task_;
};

}  // namespace picloud::cloud
