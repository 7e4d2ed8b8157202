// Reconciler — the pimaster's anti-entropy loop.
//
// The registry (InstanceRecords) and reality (containers on nodes) drift
// apart under chaos: a node crash takes its containers with it while the
// records still say "running"; a spawn whose response was lost leaves a
// container no record points at. The reconciler periodically cross-checks
// records against monitor liveness and daemon-reported container lists:
//
//   * records in state "running" on a dead node are marked "lost" — their
//     owning ReplicaSet (if any) respawns them elsewhere;
//   * records whose live node no longer reports the container are likewise
//     marked "lost" after two consecutive sightings (registry drift);
//   * containers no record claims are garbage-collected off the node after
//     two consecutive sightings (orphans from lost spawn responses or
//     migration remnants), via an idempotent retried DELETE.
//
// Everything is driven by the deterministic event loop; queries go through
// the master's RestClient with an explicit RetryPolicy, so a sweep under a
// flapping link still converges.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "proto/rest.h"
#include "sim/simulation.h"

namespace picloud::cloud {

class PiMaster;

class Reconciler {
 public:
  struct Config {
    sim::Duration period = sim::Duration::seconds(15);
  };

  Reconciler(PiMaster& master, Config config);
  ~Reconciler();

  Reconciler(const Reconciler&) = delete;
  Reconciler& operator=(const Reconciler&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

 private:
  void sweep();
  // Processes one live node's reported container list.
  void audit_node(const std::string& hostname,
                  const std::set<std::string>& reported);
  void destroy_orphan(const std::string& hostname, const std::string& name);

  PiMaster& master_;
  Config config_;
  // Registry counter handles under `cloud.reconciler.*` (never null).
  util::Counter* sweeps_ = nullptr;
  util::Counter* node_queries_ = nullptr;
  util::Counter* query_failures_ = nullptr;
  util::Counter* marked_lost_dead_node_ = nullptr;  // node stopped heartbeating
  util::Counter* marked_lost_drift_ = nullptr;  // live node lost the container
  util::Counter* orphans_gc_ = nullptr;
  bool running_ = false;
  // Discrepancy strike counters, keyed "orphan/<host>/<name>" and
  // "drift/<name>"; an entry acts once it reaches kConfirmations.
  std::map<std::string, int> strikes_;
  // Orphans with a DELETE already in flight (avoid duplicate GCs).
  std::set<std::string> deleting_;
  std::uint64_t gc_seq_ = 0;  // idempotency keys for GC deletes
  sim::Timer task_;
};

}  // namespace picloud::cloud
