// NodeDaemon — the bespoke per-Pi administration daemon (paper §II-C).
//
// "for the moment we rely upon a bespoke administration API supported by
// daemons on the pimaster and on individual Pi devices ... This website
// interacts with the local daemons, and controls workloads running on the
// Pi devices using RESTful interfaces."
//
// Boot sequence of a Pi in the PiCloud:
//   NodeOs::boot -> DHCP DORA handshake -> REST server on the leased IP
//   -> register with pimaster -> periodic heartbeat stats.
//
// REST surface (port 8080):
//   GET    /ping
//   GET    /stats
//   GET    /containers                     list
//   GET    /containers/:name               inspect
//   POST   /containers                     spawn (fetches missing image
//                                          layers from pimaster first)
//   POST   /containers/:name/stop
//   POST   /containers/:name/freeze
//   POST   /containers/:name/thaw
//   DELETE /containers/:name
//   PUT    /containers/:name/limits        soft per-VM resource limits
//   POST   /images/prefetch                pull image layers ahead of time
//   GET    /health                         liveness + retry/dedup stats
//   GET    /metrics                        this node's registry scope
//
// Telemetry (DESIGN.md §9): the daemon owns the `node.<hostname>.` scope of
// the simulation's MetricsRegistry — gauges refreshed from NodeOs at each
// heartbeat, counters for its own activity, and its RestClient accounting
// under `node.<hostname>.rest.*`. GET /metrics and the heartbeat body are
// both the canonical prefix-stripped snapshot of that scope.
//
// Mutating requests (spawn, delete) may carry an "idem" key in the body;
// the daemon keeps a bounded dedup cache so a retried request that already
// executed replays the recorded outcome instead of double-spawning.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "os/node_os.h"
#include "proto/dhcp.h"
#include "proto/http.h"
#include "proto/rest.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/result.h"

namespace picloud::cloud {

// The pimaster's REST port (PiMaster::kPort): where a daemon registers and
// sends its heartbeats.
inline constexpr std::uint16_t kPiMasterPort = 9000;

class NodeDaemon {
 public:
  static constexpr std::uint16_t kPort = 8080;

  struct Config {
    net::Ipv4Addr pimaster_ip;
    int rack = -1;
    sim::Duration heartbeat_period = sim::Duration::seconds(2);
  };

  // Creates ContainerApp instances from the "app" / "app_params" fields of
  // a spawn request. Wired by the PiCloud facade to the apps library.
  using AppFactory = std::function<util::Result<std::unique_ptr<os::ContainerApp>>(
      const std::string& kind, const util::Json& params)>;

  NodeDaemon(os::NodeOs& node, Config config);
  ~NodeDaemon();

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  void set_app_factory(AppFactory factory) { app_factory_ = std::move(factory); }

  // Boots the node and begins the DHCP -> register -> heartbeat sequence.
  void start();
  // Graceful stop (deregisters nothing — the pimaster notices the silence,
  // as it would in the real deployment).
  void stop();
  // Failure injection: kills the node mid-flight.
  void crash();

  os::NodeOs& node() { return node_; }
  const os::NodeOs& node() const { return node_; }
  const std::string& hostname() const { return node_.hostname(); }
  bool registered() const { return registered_; }
  net::Ipv4Addr ip() const { return node_.host_ip(); }
  int rack() const { return config_.rack; }

  // Spawns a container locally (same path the REST endpoint uses). Fetches
  // missing image layers from the pimaster first. Asynchronous.
  using SpawnCallback = std::function<void(util::Result<std::string>)>;
  void spawn_container(const util::Json& spec, SpawnCallback cb);

  // Ensures the given image layers ({id, bytes} array) are cached locally,
  // pulling missing ones from the pimaster. Used by the REST prefetch
  // endpoint and by the migration coordinator's prepare phase.
  void prefetch_layers(util::JsonArray layers,
                       std::function<void(util::Status)> done) {
    fetch_layers(std::move(layers), 0, std::move(done));
  }

  std::uint64_t heartbeats_sent() const { return heartbeats_sent_->value(); }
  // This daemon's registry scope, "node.<hostname>".
  const std::string& metrics_scope() const { return scope_; }

 private:
  void on_dhcp_bound(net::Ipv4Addr ip, sim::Duration lease);
  void register_with_master();
  void send_heartbeat();
  void install_routes();
  // Refreshes this node's gauges from NodeOs, then returns the canonical
  // prefix-stripped snapshot of the `node.<hostname>.` scope.
  util::Json stats_json() const;
  // Fetches `layers` (array of {id, bytes}) not yet cached, one at a time:
  // network flow from the pimaster, then SD write. `done` gets an error if
  // the SD card fills or the transfer fails.
  void fetch_layers(util::JsonArray layers, size_t index,
                    std::function<void(util::Status)> done);

  os::NodeOs& node_;
  Config config_;
  std::string scope_;  // "node.<hostname>"
  AppFactory app_factory_;
  proto::Router router_;
  std::unique_ptr<proto::DhcpClient> dhcp_;
  std::unique_ptr<proto::RestServer> server_;
  std::unique_ptr<proto::RestClient> client_;
  sim::Timer heartbeat_task_;
  // The re-register after the master refused one; stop() and crash() cancel
  // it, so it never runs on a later boot.
  sim::Timer register_retry_;
  // Dedup cache for idempotent mutations (spawn/delete), under
  // `node.<hostname>.dedup.*`.
  proto::IdempotencyCache idem_;
  bool started_ = false;
  bool registered_ = false;
  // Registry handles under `node.<hostname>.` (never null).
  util::Counter* heartbeats_sent_ = nullptr;
  util::Gauge* cpu_gauge_ = nullptr;
  util::Gauge* mem_used_gauge_ = nullptr;
  util::Gauge* mem_capacity_gauge_ = nullptr;
  util::Gauge* sd_used_gauge_ = nullptr;
  util::Gauge* containers_total_gauge_ = nullptr;
  util::Gauge* containers_running_gauge_ = nullptr;
  util::Gauge* power_gauge_ = nullptr;
};

}  // namespace picloud::cloud
