// ClusterMonitor — the pimaster's live view of every node.
//
// Node daemons push heartbeats over REST; the monitor keeps the gauges of
// each node's latest heartbeat and the instant it arrived, computes cluster
// aggregates, and declares nodes dead when heartbeats stop (the panel's red
// rows). This is the data behind the Fig. 4 web interface and the "remote
// monitoring of the CPU load on some/all Pi nodes" use case (§II-C).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/node_daemon.h"
#include "cloud/placement.h"
#include "net/addr.h"
#include "sim/simulation.h"

namespace picloud::cloud {

struct NodeRecord {
  std::string hostname;
  net::Ipv4Addr ip;  // the daemon's management address
  int rack = -1;
  double cpu_capacity_hz = 0;
  // When the latest heartbeat arrived (registration counts as one).
  sim::SimTime last_seen;
  // Memory in use before any container was placed (first heartbeat):
  // the OS's own footprint, used for authoritative placement accounting.
  std::uint64_t baseline_mem = 0;
  bool baseline_set = false;
  // The latest heartbeat's gauges, as the daemon sent them.
  NodeHeartbeat::Gauges gauges;
};

struct ClusterSummary {
  int nodes_total = 0;
  int nodes_alive = 0;
  int containers_running = 0;
  double avg_cpu_utilization = 0;  // across live nodes
  std::uint64_t mem_used = 0;
  std::uint64_t mem_capacity = 0;
  double power_watts = 0;
};

class ClusterMonitor {
 public:
  // A node is alive while its last heartbeat is at most this old.
  static constexpr sim::Duration kLivenessWindow = sim::Duration::seconds(10);

  explicit ClusterMonitor(sim::Simulation& sim);

  // Registration (first contact after DHCP).
  void register_node(const std::string& hostname, net::Ipv4Addr ip, int rack,
                     double cpu_capacity_hz);

  // Heartbeat ingestion, stamped with the current instant: false, and
  // nothing recorded, when `hostname` never registered.
  bool record_sample(const std::string& hostname,
                     const NodeHeartbeat::Gauges& gauges);

  // A node is alive when a heartbeat arrived within the liveness window.
  bool alive(const std::string& hostname) const;
  bool alive(const NodeRecord& record) const {
    return sim_.now() - record.last_seen <= kLivenessWindow;
  }
  // Null when `hostname` never registered. Records are never erased.
  const NodeRecord* node(const std::string& hostname) const;
  // Every record, keyed and ordered by hostname.
  const std::map<std::string, NodeRecord>& nodes() const { return records_; }
  // Placement-policy input.
  std::vector<NodeView> views() const;
  ClusterSummary summary() const;

  size_t node_count() const { return records_.size(); }
  std::uint64_t samples_ingested() const { return samples_->value(); }

 private:
  sim::Simulation& sim_;
  std::map<std::string, NodeRecord> records_;
  util::Counter* samples_ = nullptr;  // cloud.monitor.samples_ingested
};

}  // namespace picloud::cloud
