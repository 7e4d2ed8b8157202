// Container migration: stop-and-copy and iterative pre-copy live migration.
//
// Paper §VI: "we will implement sophisticated live migration within the
// PiCloud, to enable the study of important Cloud resource management
// aspects in depth" — and §III motivates it: consolidation to reduce power,
// plus the networking/virtualisation control loops interacting ("IP-less
// routing in order to support more flexible and efficient migration").
//
// Mechanics modelled faithfully at the resource level:
//   * every copied byte crosses the fabric as a real flow (it contends with
//     application traffic — the paper's ripple effect);
//   * pre-copy rounds shrink geometrically with the app's dirty rate;
//   * downtime = freeze -> restart-at-destination interval;
//   * the container's IP moves with it (bridged re-binding), so flows started
//     after the migration route to the new host without client changes.
//
// The app object and its state move at commit time; its memory is re-charged
// on the destination when the app restarts, so packing constraints hold.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "cloud/node_daemon.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace picloud::cloud {

// How the moved container's address becomes reachable at the destination —
// the paper's "IP-less routing in order to support more flexible and
// efficient migration" research direction (SIII).
enum class AddressUpdateMode {
  // Traditional bridged-L2 convergence: gratuitous ARP + switch learning;
  // the address stays dark for kArpConvergenceDelay after restart.
  kArpConvergence,
  // SDN-assisted: the controller redirects the identity as part of the
  // migration commit; only a controller round-trip of darkness.
  kSdnRedirect,
};

const char* address_update_name(AddressUpdateMode mode);

struct MigrationParams {
  std::string instance;
  std::string from;  // source hostname
  std::string to;    // destination hostname
  bool live = true;  // false: stop-and-copy
  int max_precopy_rounds = 4;
  double stop_threshold_bytes = 1 << 20;  // freeze when dirty set below this
  AddressUpdateMode address_update = AddressUpdateMode::kSdnRedirect;
  // Image layers ({id, bytes}) the destination must cache first.
  util::Json layers = util::Json::array();
};

// L2 convergence time for a moved bridged address (gratuitous ARP flood +
// switch table updates across the tree).
inline constexpr sim::Duration kArpConvergenceDelay =
    sim::Duration::millis(500);
// Controller round-trip to redirect an identity under SDN.
inline constexpr sim::Duration kSdnUpdateDelay = sim::Duration::millis(2);

struct MigrationReport {
  std::string instance;
  std::string from;
  std::string to;
  bool live = false;
  bool success = false;
  // On failure: true when the container survives on neither node (the
  // destination died past the point of no return). The instance record must
  // be marked lost so the reconciler / owning ReplicaSet respawns it. When
  // false, a failed migration leaves the container running on the source —
  // or the source itself is dead, which the dead-node reconciliation path
  // already covers.
  bool instance_lost = false;
  std::string phase;           // phase reached: prepare|pre-copy|final-copy|
                               // commit|done
  std::string address_update;  // "arp" | "sdn"
  std::string error;
  double bytes_transferred = 0;
  int precopy_rounds = 0;
  sim::Duration total_duration;
  sim::Duration downtime;  // service blackout (freeze -> restarted)

  // The report's wire form, and its reading: the same keys, with
  // instance_lost, phase and error present only when set.
  util::Json to_json() const;
  static MigrationReport from_json(const util::Json& j);
};

class MigrationCoordinator {
 public:
  using NodeAccessor = std::function<NodeDaemon*(const std::string& hostname)>;
  using DoneCallback = std::function<void(const MigrationReport&)>;

  MigrationCoordinator(sim::Simulation& sim, net::Fabric& fabric,
                       NodeAccessor accessor);

  // Runs a migration; the callback fires exactly once. Concurrent
  // migrations of distinct instances are fine; re-migrating an instance
  // already in flight fails.
  //
  // Crash safety: ChaosMonkey may kill either endpoint at any moment, so no
  // daemon or container pointer is held across an async boundary — every
  // resume point re-resolves by hostname/name and aborts cleanly if the
  // node died. Source death aborts (record reverts to the source-dead
  // reconciliation path); destination death before commit aborts with the
  // instance still running (thawed) on the source; destination death after
  // the point of no return loses the instance and reports instance_lost.
  void migrate(MigrationParams params, DoneCallback done);

  size_t in_flight() const { return in_flight_; }

 private:
  struct Session;
  // The daemon for `hostname` iff its node is powered on, else nullptr.
  NodeDaemon* live_node(const std::string& hostname);
  // The migrating container on the live source, else nullptr.
  os::Container* source_container(const Session& session);
  // The check at each resume point: true when the container is still on
  // a live source and the destination is up; otherwise aborts the session,
  // a dead source first, and returns false.
  bool endpoints_up(const std::shared_ptr<Session>& session);
  // The next copy from a resume point that found both endpoints up: a
  // pre-copy round while the source runs, or — at the freeze point, and at
  // once for stop-and-copy — the frozen remainder, then the commit.
  void copy_round(std::shared_ptr<Session> session);
  // Moves `bytes` of memory to the destination as one fabric flow, then
  // goes on with copy_round() (source running) or commit() (frozen).
  void copy(std::shared_ptr<Session> session, double bytes);
  void commit(std::shared_ptr<Session> session);
  void abort_source_dead(std::shared_ptr<Session> session);
  void abort_dest_dead(std::shared_ptr<Session> session);
  void fail(std::shared_ptr<Session> session, const std::string& error);
  void finish(std::shared_ptr<Session> session);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  NodeAccessor accessor_;
  std::set<std::string> migrating_;  // instances currently moving
  // Each committed instance's blackout, by name, until the destination
  // restarts it; destroying the coordinator cancels them.
  std::map<std::string, sim::Timer> blackouts_;
  size_t in_flight_ = 0;
  // Registry handles under `cloud.migration.*` (never null).
  util::Counter* started_ = nullptr;
  util::Counter* succeeded_ = nullptr;
  util::Counter* failed_ = nullptr;  // all failures, including the below
  util::Counter* aborted_source_dead_ = nullptr;
  util::Counter* aborted_dest_dead_ = nullptr;
  util::Counter* rolled_back_ = nullptr;  // reverted to source, app restarted
  util::Counter* lost_ = nullptr;         // destination died past commit
  util::LogHistogram* downtime_seconds_ = nullptr;
};

}  // namespace picloud::cloud
