// PiMaster — the head node of the PiCloud (paper §II-A, §II-C, Fig. 4).
//
// Hosts every management service the paper describes:
//   * DHCP + DNS ("customised IP and naming policies"),
//   * the image store ("image upgrading, patching, and spawning"),
//   * the cluster monitor fed by node-daemon heartbeats,
//   * instance placement + the REST control API the web panel drives.
//
// REST surface (port 9000):
//   POST   /register                     node daemon first contact
//   POST   /nodes/:hostname/stats        heartbeat
//   GET    /nodes                        fleet view (Fig. 4 main table)
//   GET    /nodes/:hostname
//   GET    /cluster/summary
//   GET    /instances
//   GET    /instances/:name
//   POST   /instances                    spawn a virtual host
//   DELETE /instances/:name
//   PUT    /instances/:name/limits       soft per-VM resource limits
//   POST   /instances/:name/migrate      {"to": host?, "live": bool}
//   GET    /images
//   POST   /images                       {"name", "bytes"} base image
//   POST   /images/:name/patch           {"bytes", "note"}
//   POST   /images/:name/upgrade         {"bytes", "note"}
//   GET    /network                      per-rack uplink utilisation (SDN view)
//   GET    /policy                       active placement policy
//   PUT    /policy                       {"name": "best-fit"}
//   GET    /health                       liveness + headline counters
//   GET    /metrics                      full MetricsRegistry snapshot
//   GET    /trace                        recent sim-time trace events
//
// Telemetry (DESIGN.md §9): the master owns the `cloud.master.` scope; its
// GET /metrics serves the *whole* registry (every component of the
// simulation registers into the one spine), which is what the web panel and
// external scrapers consume.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/migration.h"
#include "cloud/monitor.h"
#include "cloud/node_daemon.h"
#include "cloud/placement.h"
#include "cloud/reconciler.h"
#include "net/network.h"
#include "proto/dhcp.h"
#include "proto/dns.h"
#include "proto/http.h"
#include "proto/rest.h"
#include "sim/simulation.h"
#include "storage/image.h"

namespace picloud::cloud {

struct InstanceRecord {
  std::string name;
  std::string hostname;  // node currently hosting it
  net::Ipv4Addr ip;
  std::string image;
  std::string app_kind;
  // running | migrating | lost. "lost" means the reconciler determined the
  // container no longer exists anywhere (its node died, or a live node
  // stopped reporting it); the record is kept so an owning ReplicaSet can
  // observe the loss and respawn.
  std::string state = "running";
  // Memory budgeted at admission (cgroup limit, or the idle footprint).
  std::uint64_t mem_reserved = 0;
  sim::SimTime created_at;

  util::Json to_json() const;
};

class PiMaster {
 public:
  static constexpr std::uint16_t kPort = kPiMasterPort;

  struct Config {
    net::Ipv4Addr ip;                  // static management address
    net::Subnet subnet;                // the cloud's address space
    net::Ipv4Addr dhcp_range_start;
    net::Ipv4Addr dhcp_range_end;
    std::string placement_policy = "first-fit";
    PlacementLimits placement_limits;
    // Anti-entropy loop (see cloud/reconciler.h).
    Reconciler::Config reconcile;
    std::string default_image = "raspbian-lxc";
  };

  PiMaster(net::Network& network, net::NetNodeId fabric_node, Config config);
  ~PiMaster();

  PiMaster(const PiMaster&) = delete;
  PiMaster& operator=(const PiMaster&) = delete;

  // Binds the IP, starts DHCP/DNS/REST, registers the default base image.
  void start();
  void stop();

  // The facade wires direct access to node daemons for migration commit and
  // for tests (hostname -> daemon, nullptr when unknown/dead).
  void set_node_accessor(MigrationCoordinator::NodeAccessor accessor);
  NodeDaemon* node_daemon(const std::string& hostname) const {
    return node_accessor_ ? node_accessor_(hostname) : nullptr;
  }
  const Config& master_config() const { return config_; }
  // Exposed for layers above the master (economics, autopilot).
  std::vector<NodeView> admission_views() const { return placement_views(); }

  // The SDN controller's global network view, wired by the facade: peak
  // ToR-uplink utilisation per rack. Feeds the congestion-aware placement
  // policy and the GET /network endpoint (paper SIV cross-layer
  // management).
  using NetworkObserver = std::function<std::map<int, double>()>;
  void set_network_observer(NetworkObserver observer) {
    network_observer_ = std::move(observer);
  }

  // --- Services ----------------------------------------------------------------
  proto::DhcpServer& dhcp() { return *dhcp_; }
  proto::DnsServer& dns() { return *dns_; }
  storage::ImageStore& images() { return images_; }
  ClusterMonitor& monitor() { return monitor_; }
  MigrationCoordinator& migrations() { return *migrations_; }
  net::Ipv4Addr ip() const { return config_.ip; }
  net::NetNodeId fabric_node() const { return node_; }

  // --- Direct (in-process) API — same logic the REST routes call ---------------
  using SpawnCallback = std::function<void(util::Result<InstanceRecord>)>;
  struct SpawnSpec {
    std::string name;
    std::string image;          // empty -> default image, latest version
    std::string app_kind;       // empty -> idle container
    util::Json app_params;
    double cpu_shares = 1024;
    double cpu_limit = 0;
    std::uint64_t memory_limit = 0;
    int rack_affinity = -1;
    std::string affinity_group;
    std::string hostname;       // non-empty pins the node (bypasses policy)
    bool bare_metal = false;    // physical-node tenancy (paper SIII)
  };
  void spawn_instance(SpawnSpec spec, SpawnCallback cb);
  using SimpleCallback = std::function<void(util::Status)>;
  void delete_instance(const std::string& name, SimpleCallback cb);
  void migrate_instance(const std::string& name, const std::string& to,
                        bool live, MigrationCoordinator::DoneCallback cb,
                        AddressUpdateMode address_update =
                            AddressUpdateMode::kSdnRedirect);

  util::Result<InstanceRecord> instance(const std::string& name) const;
  // True when the record exists, its node answers liveness, and the
  // container is really running there (detects post-crash registry drift).
  bool instance_healthy(const std::string& name) const;
  // True while a spawn/delete/migrate for `name` has not completed.
  bool operation_in_flight(const std::string& name) const;
  // Zero-copy const view of the registry, keyed by instance name — what the
  // invariant checker and other read-only auditors iterate.
  const std::map<std::string, InstanceRecord>& instance_records() const {
    return instances_;
  }
  util::Status set_policy(const std::string& name);
  const std::string& policy_name() const { return policy_name_; }

  std::uint64_t spawn_requests() const { return spawn_requests_->value(); }
  std::uint64_t spawns_succeeded() const { return spawns_ok_->value(); }
  std::uint64_t spawns_failed() const { return spawns_failed_->value(); }

 private:
  friend class Reconciler;  // anti-entropy needs the raw registry

  void install_routes();
  // Builds the {id, bytes} layer array a daemon needs for `image_id`.
  util::Result<util::Json> layer_list(const std::string& image_id) const;
  util::Result<std::string> resolve_image(const std::string& requested) const;
  // Placement views including in-flight reservations.
  std::vector<NodeView> placement_views() const;

  net::Network& network_;
  sim::Simulation& sim_;
  net::NetNodeId node_;
  Config config_;

  proto::Router router_;
  std::unique_ptr<proto::RestServer> server_;
  std::unique_ptr<proto::RestClient> client_;
  std::unique_ptr<proto::DhcpServer> dhcp_;
  std::unique_ptr<proto::DnsServer> dns_;
  std::unique_ptr<MigrationCoordinator> migrations_;
  std::unique_ptr<Reconciler> reconciler_;
  storage::ImageStore images_;
  ClusterMonitor monitor_;
  MigrationCoordinator::NodeAccessor node_accessor_;
  NetworkObserver network_observer_;

  std::unique_ptr<PlacementPolicy> policy_;
  std::string policy_name_;

  std::map<std::string, InstanceRecord> instances_;
  // hostname -> reserved bytes/containers for spawns still in flight.
  struct Reservation {
    std::uint64_t mem = 0;
    int containers = 0;
  };
  std::map<std::string, Reservation> reservations_;
  // Instances with a spawn, delete or migrate not yet completed: the
  // reconciler never garbage-collects or marks lost a name listed here.
  std::set<std::string> ops_in_flight_;
  proto::IdempotencyCache idem_;  // under `cloud.master.dedup.*`
  std::uint64_t op_seq_ = 0;  // idempotency keys for proxied daemon calls
  std::uint32_t next_container_mac_ = 1;
  // Registry handles under `cloud.master.*` (never null).
  util::Counter* spawn_requests_ = nullptr;
  util::Counter* spawns_ok_ = nullptr;
  util::Counter* spawns_failed_ = nullptr;
  bool started_ = false;
};

}  // namespace picloud::cloud
