// ReplicaSet — declarative self-healing replication.
//
// The paper's motivation workloads ("private data processing to public
// website hosting", §I) only survive a failing testbed if something puts
// replicas back. ReplicaSet is that something: declare "N copies of this
// spec" and a reconciliation loop on the pimaster respawns replicas whose
// node has died (detected through the monitor's liveness), placing them via
// the active policy. Endpoints are exposed for client load balancers and a
// change hook fires whenever the serving set moves.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cloud/pimaster.h"
#include "sim/simulation.h"

namespace picloud::cloud {

class ReplicaSet {
 public:
  struct Config {
    std::string name_prefix = "replica";  // instances are "<prefix>-K"
    int replicas = 2;
    PiMaster::SpawnSpec spec;  // name/hostname fields are overridden
    sim::Duration reconcile_period = sim::Duration::seconds(10);
  };

  // This set's own tallies, kept out of the registry on purpose: ReplicaSet
  // runs in the fuzz corpus, so registering them would change snapshot
  // bytes and the golden digests.
  // picloud-lint: allow(metrics-registry)
  struct Stats {
    std::uint64_t reconciliations = 0;
    std::uint64_t spawned = 0;
    std::uint64_t replaced = 0;  // respawns after a node death
    std::uint64_t spawn_failures = 0;
  };

  ReplicaSet(sim::Simulation& sim, PiMaster& master, Config config);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  void start();
  void stop();

  // IPs of replicas currently healthy (node alive + container running).
  std::vector<net::Ipv4Addr> endpoints() const;
  size_t healthy_replicas() const { return endpoints().size(); }
  int replicas() const { return config_.replicas; }
  // Re-targets the set (the autopilot's SLO-burn scale-up signal lands
  // here). Growing spawns into the new slots on the next reconcile; shrinking
  // deletes the excess slots' instances.
  void set_replicas(int replicas);
  // Fires after any reconciliation that changed the endpoint set.
  void set_on_change(std::function<void()> hook) { on_change_ = std::move(hook); }

  const Stats& stats() const { return stats_; }

 private:
  void reconcile();
  std::string replica_name(int slot) const;

  sim::Simulation& sim_;
  PiMaster& master_;
  Config config_;
  Stats stats_;
  bool running_ = false;
  std::set<int> inflight_;  // slots with a spawn/delete in progress
  std::function<void()> on_change_;
  sim::Timer reconcile_task_;
};

}  // namespace picloud::cloud
