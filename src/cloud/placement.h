// Virtual-host placement policies.
//
// Paper §III: "Virtual Machine (VM) management is an important aspect of
// Cloud Computing ... The way in which VMs are allocated is crucial; we can
// experiment with new algorithms on the PiCloud, while directly observing
// the resulting behaviour on all layers of the Cloud architecture."
//
// Policies place an instance request onto one of the live nodes; the
// bench_ablate_placement harness compares them on packing efficiency, power
// and the induced network congestion (the paper's consolidation-vs-network
// ripple effect, §IV).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace picloud::cloud {

// The pimaster's view of one node when placing (from the latest heartbeat).
struct NodeView {
  std::string hostname;
  int rack = 0;
  bool alive = false;
  std::uint64_t mem_capacity = 0;
  std::uint64_t mem_used = 0;
  std::uint64_t baseline_mem = 0;  // OS footprint before containers
  double cpu_capacity_hz = 0;
  double cpu_utilization = 0;  // [0, 1]
  int containers = 0;
  // Peak utilisation of this rack's ToR uplinks, from the SDN controller's
  // global network view (0 when no observer is wired).
  double rack_uplink_utilization = 0;

  std::uint64_t mem_free() const {
    return mem_capacity > mem_used ? mem_capacity - mem_used : 0;
  }
};

struct PlacementRequest {
  std::string instance_name;
  // Memory the instance needs resident to start (idle footprint, or its
  // cgroup limit when set — conservative admission control).
  std::uint64_t mem_bytes = 30ull << 20;
  // Optional rack affinity: >= 0 pins the instance to that rack.
  int rack_affinity = -1;
  // Group label for network-aware placement (instances of one application).
  std::string affinity_group;
};

// Hard limits every policy obeys. The 3-containers-per-Pi figure is the
// paper's own envelope ("we are able to comfortably support three containers
// concurrently on a Raspberry Pi", §II-A).
struct PlacementLimits {
  int max_containers_per_node = 3;
  // Fraction of node RAM placements may fill (leave room for the OS).
  double mem_headroom = 1.0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;
  // Returns the chosen hostname or an Error{"no_capacity"}.
  virtual util::Result<std::string> pick(
      const std::vector<NodeView>& nodes, const PlacementRequest& request) = 0;

  // The admission test every policy filters with, and the pimaster's for a
  // migration to a named destination: alive, under the container cap, in
  // the requested rack, and with room for the request's memory.
  static bool fits(const NodeView& node, const PlacementRequest& request,
                   const PlacementLimits& limits);

  void set_limits(PlacementLimits limits) { limits_ = limits; }
  const PlacementLimits& limits() const { return limits_; }

 protected:
  PlacementLimits limits_;
};

// First node (hostname order) with room — the packing baseline.
class FirstFitPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "first-fit"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;
};

// Tightest node that still fits: consolidates onto few nodes (best packing,
// worst network/CPU interference).
class BestFitPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "best-fit"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;
};

// Emptiest node: spreads load.
class WorstFitPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "worst-fit"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;
};

// Cycles through nodes irrespective of load (stateful).
class RoundRobinPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "round-robin"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;

 private:
  size_t cursor_ = 0;
};

// Least instantaneous CPU utilisation (the panel's live-load view).
class LeastLoadedPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "least-loaded"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;
};

// Network-aware: keeps an affinity group inside one rack while it fits
// (shuffle traffic stays under the ToR), spills to the emptiest rack after.
class RackAffinityPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "rack-affinity"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;

 private:
  std::map<std::string, int> group_rack_;  // affinity group -> chosen rack
};

// Cross-layer placement (paper SIV: "a global view of the network will
// enhance overall resource management"): among feasible nodes, prefer the
// rack whose ToR uplinks are least utilised right now, then the least
// CPU-loaded node inside it. Requires the master's network observer.
class CongestionAwarePolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "congestion-aware"; }
  util::Result<std::string> pick(const std::vector<NodeView>& nodes,
                                 const PlacementRequest& request) override;
};

// Factory by name ("first-fit", "best-fit", "worst-fit", "round-robin",
// "least-loaded", "rack-affinity", "congestion-aware").
util::Result<std::unique_ptr<PlacementPolicy>> make_policy(
    const std::string& name);
std::vector<std::string> policy_names();

}  // namespace picloud::cloud
