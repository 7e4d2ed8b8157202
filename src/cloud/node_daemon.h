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
//   GET    /stats                          the heartbeat (as /metrics)
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
//   GET    /metrics                        the heartbeat: this node's
//                                          registry scope
//
// Telemetry (DESIGN.md §9): the daemon owns the `node.<hostname>.` scope of
// the simulation's MetricsRegistry — gauges refreshed from NodeOs at each
// heartbeat, counters for its own activity, its dedup cache's under
// `node.<hostname>.dedup.*` and its RestClient's under
// `node.<hostname>.rest.*`. The heartbeat is a NodeHeartbeat struct that
// spells that scope key for key, filled from the registry cells the daemon
// holds, so its text is the scope's prefix-stripped snapshot and no
// heartbeat walks the registry or builds a Json. GET /stats and GET
// /metrics serve the same heartbeat.
//
// Mutating requests (spawn, delete) may carry an "idem" key in the body;
// the daemon keeps a bounded dedup cache so a retried request that already
// executed replays the recorded outcome instead of double-spawning.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "net/addr.h"
#include "os/node_os.h"
#include "proto/dhcp.h"
#include "proto/http.h"
#include "proto/rest.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/schema.h"

namespace picloud::cloud {

// The pimaster's REST port (PiMaster::kPort): where a daemon registers and
// sends its heartbeats.
inline constexpr std::uint16_t kPiMasterPort = 9000;

// What a daemon posts to the pimaster's /register on first contact.
struct NodeRegistration : util::JsonSchema<NodeRegistration> {
  double cpu_hz = 0;
  std::string hostname;
  net::Ipv4Addr ip;
  std::string mac;
  int rack = -1;

  static constexpr auto json_fields() {
    return std::tuple{util::field("cpu_hz", &NodeRegistration::cpu_hz),
                      util::field("hostname", &NodeRegistration::hostname),
                      util::field("ip", &NodeRegistration::ip),
                      util::field("mac", &NodeRegistration::mac),
                      util::field("rack", &NodeRegistration::rack)};
  }
};

// What a daemon posts to the pimaster's /nodes/:hostname/stats every beat:
// its `node.<hostname>` registry scope, key for key, so to_json().dump() is
// the text of that scope's snapshot and wire_size() its length. The keys
// are the scope's names with the prefix stripped, in the snapshot's order;
// a series added to the scope belongs here too (the heartbeat equivalence
// test fails until it is).
struct NodeHeartbeat : util::JsonSchema<NodeHeartbeat> {
  // The daemon's own counter and those of its dedup cache and RestClient.
  struct Counters : util::JsonSchema<Counters> {
    std::uint64_t dedup_admitted = 0;
    std::uint64_t dedup_coalesced = 0;
    std::uint64_t dedup_evicted = 0;
    std::uint64_t dedup_replayed = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t rest_attempts = 0;
    std::uint64_t rest_calls = 0;
    std::uint64_t rest_deadline_exceeded = 0;
    std::uint64_t rest_exhausted = 0;
    std::uint64_t rest_requests = 0;
    std::uint64_t rest_retries = 0;
    std::uint64_t rest_succeeded_after_retry = 0;
    std::uint64_t rest_timeouts = 0;

    static constexpr auto json_fields() {
      return std::tuple{
          util::field("dedup.admitted", &Counters::dedup_admitted),
          util::field("dedup.coalesced", &Counters::dedup_coalesced),
          util::field("dedup.evicted", &Counters::dedup_evicted),
          util::field("dedup.replayed", &Counters::dedup_replayed),
          util::field("heartbeats_sent", &Counters::heartbeats_sent),
          util::field("rest.attempts", &Counters::rest_attempts),
          util::field("rest.calls", &Counters::rest_calls),
          util::field("rest.deadline_exceeded",
                      &Counters::rest_deadline_exceeded),
          util::field("rest.exhausted", &Counters::rest_exhausted),
          util::field("rest.requests", &Counters::rest_requests),
          util::field("rest.retries", &Counters::rest_retries),
          util::field("rest.succeeded_after_retry",
                      &Counters::rest_succeeded_after_retry),
          util::field("rest.timeouts", &Counters::rest_timeouts)};
    }
  };
  // The node's state, refreshed from NodeOs at each beat.
  struct Gauges : util::JsonSchema<Gauges> {
    double containers_running = 0;
    double containers_total = 0;
    double cpu_utilization = 0;
    double mem_capacity = 0;
    double mem_used = 0;
    double power_watts = 0;
    double sd_used = 0;

    static constexpr auto json_fields() {
      return std::tuple{
          util::field("containers_running", &Gauges::containers_running),
          util::field("containers_total", &Gauges::containers_total),
          util::field("cpu_utilization", &Gauges::cpu_utilization),
          util::field("mem_capacity", &Gauges::mem_capacity),
          util::field("mem_used", &Gauges::mem_used),
          util::field("power_watts", &Gauges::power_watts),
          util::field("sd_used", &Gauges::sd_used)};
    }
  };
  // The scope holds no histogram.
  struct Histograms : util::JsonSchema<Histograms> {
    static constexpr auto json_fields() { return std::tuple{}; }
  };

  Counters counters;
  Gauges gauges;
  Histograms histograms;

  static constexpr auto json_fields() {
    return std::tuple{util::field("counters", &NodeHeartbeat::counters),
                      util::field("gauges", &NodeHeartbeat::gauges),
                      util::field("histograms", &NodeHeartbeat::histograms)};
  }
};

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

  // Refreshes this node's gauges from NodeOs, then returns the heartbeat:
  // the scope's 20 series, read from the cells the daemon holds. Each beat,
  // GET /stats and GET /metrics carry it. Valid once the daemon has bound an
  // address, which registers its RestClient's series.
  NodeHeartbeat heartbeat() const;

 private:
  void on_dhcp_bound(net::Ipv4Addr ip, sim::Duration lease);
  void register_with_master();
  void send_heartbeat();
  void install_routes();
  // Refreshes this node's gauges from NodeOs and returns their values.
  NodeHeartbeat::Gauges refresh_gauges() const;
  // What stop() and crash() share: false when the daemon was not started,
  // else cancels its timers and drops its endpoints.
  bool teardown();
  // Fetches `layers` (array of {id, bytes}) not yet cached, one at a time:
  // network flow from the pimaster, then SD write. `done` gets an error if
  // the SD card fills or the transfer fails.
  void fetch_layers(util::JsonArray layers, size_t index,
                    std::function<void(util::Status)> done);

  os::NodeOs& node_;
  Config config_;
  std::string scope_;           // "node.<hostname>"
  std::string heartbeat_path_;  // "/nodes/<hostname>/stats"
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
  // The scope's cells, one per row of the heartbeat's field tables and in
  // their order: the gauges from construction, the counters from the first
  // address bind, once the RestClient has registered its own.
  template <typename S>
  static constexpr size_t kRows = std::tuple_size_v<decltype(S::json_fields())>;
  std::array<util::Gauge*, kRows<NodeHeartbeat::Gauges>> gauge_cells_{};
  std::array<const util::Counter*, kRows<NodeHeartbeat::Counters>>
      counter_cells_{};
};

}  // namespace picloud::cloud
