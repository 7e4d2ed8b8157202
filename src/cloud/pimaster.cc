#include "cloud/pimaster.h"

#include <algorithm>

#include "os/container.h"
#include "util/check.h"
#include "util/faults.h"
#include "util/logging.h"
#include "util/strings.h"

namespace picloud::cloud {

using proto::HttpRequest;
using proto::HttpResponse;
using proto::Method;
using proto::PathParams;
using util::Json;

namespace {

// Timeout for proxied spawn calls (covers image pull over 100 Mb).
constexpr sim::Duration kSpawnTimeout = sim::Duration::seconds(60);

// The retry profile for proxied daemon calls (spawn/delete/limits): three
// wire attempts, backing off with deterministic jitter.
proto::RetryPolicy proxy_policy(sim::Duration attempt_timeout) {
  return proto::RetryPolicy::standard(3, attempt_timeout);
}

}  // namespace

util::Json InstanceRecord::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("node", hostname);
  j.set("ip", ip.to_string());
  j.set("image", image);
  j.set("app", app_kind);
  j.set("state", state);
  j.set("created_s", created_at.to_seconds());
  return j;
}

PiMaster::PiMaster(net::Network& network, net::NetNodeId fabric_node,
                   Config config)
    : network_(network),
      sim_(network.simulation()),
      node_(fabric_node),
      config_(std::move(config)),
      monitor_(sim_),
      idem_(sim_.metrics(), "cloud.master.dedup", 256) {
  util::MetricsRegistry& m = sim_.metrics();
  spawn_requests_ = &m.counter("cloud.master.spawn_requests");
  spawns_ok_ = &m.counter("cloud.master.spawns_ok");
  spawns_failed_ = &m.counter("cloud.master.spawns_failed");
  auto policy = make_policy(config_.placement_policy);
  PICLOUD_CHECK(policy.ok()) << "unknown placement policy \""
                             << config_.placement_policy << "\"";
  policy_ = std::move(policy).value();
  policy_->set_limits(config_.placement_limits);
  policy_name_ = config_.placement_policy;
  install_routes();
}

PiMaster::~PiMaster() { stop(); }

void PiMaster::start() {
  if (started_) return;
  started_ = true;
  network_.bind_ip(config_.ip, node_);

  proto::DhcpServerConfig dhcp_config;
  dhcp_config.subnet = config_.subnet;
  dhcp_config.range_start = config_.dhcp_range_start;
  dhcp_config.range_end = config_.dhcp_range_end;
  dhcp_ = std::make_unique<proto::DhcpServer>(network_, node_, config_.ip,
                                              dhcp_config);
  dhcp_->set_lease_callback([this](const proto::DhcpLease& lease) {
    if (!lease.hostname.empty()) {
      dns_->add_record(lease.hostname, lease.ip);
    }
  });
  dhcp_->start();

  dns_ = std::make_unique<proto::DnsServer>(network_, config_.ip);
  dns_->add_record("pimaster", config_.ip);
  dns_->start();

  server_ = std::make_unique<proto::RestServer>(network_, config_.ip, kPort,
                                                &router_);
  server_->start();
  client_ = std::make_unique<proto::RestClient>(network_, config_.ip);

  migrations_ = std::make_unique<MigrationCoordinator>(
      sim_, network_.fabric(), [this](const std::string& hostname) {
        return node_accessor_ ? node_accessor_(hostname) : nullptr;
      });

  reconciler_ = std::make_unique<Reconciler>(*this, config_.reconcile);
  reconciler_->start();

  // The stock Raspbian+LXC rootfs every instance spawns from.
  if (!images_.latest(config_.default_image).ok()) {
    (void)images_.add_base(config_.default_image, 1800ull << 20,
                           "Raspbian wheezy + LXC tools");
  }
  LOG_INFO("pimaster", "up at %s (policy %s)", config_.ip.to_string().c_str(),
           policy_name_.c_str());
}

void PiMaster::stop() {
  if (!started_) return;
  started_ = false;
  server_.reset();
  // Destroying the client fails its pending calls with "cancelled"; the
  // reconciler's callbacks must still be alive to absorb those, so it is
  // torn down strictly after the client.
  client_.reset();
  reconciler_.reset();
  dns_.reset();
  dhcp_.reset();
  migrations_.reset();
  network_.unbind_ip(config_.ip);
}

void PiMaster::set_node_accessor(MigrationCoordinator::NodeAccessor accessor) {
  node_accessor_ = std::move(accessor);
}

bool PiMaster::operation_in_flight(const std::string& name) const {
  return ops_in_flight_.count(name) > 0;
}

util::Result<std::string> PiMaster::resolve_image(
    const std::string& requested) const {
  if (requested.empty()) return images_.latest(config_.default_image);
  if (requested.find(':') != std::string::npos) {
    auto layer = images_.get(requested);
    if (!layer.ok()) return layer.error();
    return requested;
  }
  return images_.latest(requested);
}

util::Result<util::Json> PiMaster::layer_list(
    const std::string& image_id) const {
  auto chain = images_.chain(image_id);
  if (!chain.ok()) return chain.error();
  Json layers = Json::array();
  for (const auto& layer : chain.value()) {
    Json j = Json::object();
    j.set("id", layer.id());
    j.set("bytes", static_cast<unsigned long long>(layer.layer_bytes));
    layers.push_back(std::move(j));
  }
  return layers;
}

std::vector<NodeView> PiMaster::placement_views() const {
  std::vector<NodeView> views = monitor_.views();
  // Heartbeats lag the truth by up to one period, so fuse in the master's
  // own authoritative registry (placed instances) plus in-flight
  // reservations — otherwise back-to-back spawns overpack a node.
  std::map<std::string, Reservation> placed;
  for (const auto& [name, record] : instances_) {
    // Lost instances hold no capacity anywhere — their container is gone.
    if (record.state == "lost") continue;
    placed[record.hostname].mem += record.mem_reserved;
    placed[record.hostname].containers += 1;
  }
  for (auto& view : views) {
    std::uint64_t known_mem = view.baseline_mem;
    int known_containers = 0;
    auto it = placed.find(view.hostname);
    if (it != placed.end()) {
      known_mem += it->second.mem;
      known_containers += it->second.containers;
    }
    auto pending = reservations_.find(view.hostname);
    if (pending != reservations_.end()) {
      known_mem += pending->second.mem;
      known_containers += pending->second.containers;
    }
    view.mem_used = std::max(view.mem_used, known_mem);
    view.containers = std::max(view.containers, known_containers);
  }
  if (network_observer_) {
    std::map<int, double> rack_util = network_observer_();
    for (auto& view : views) {
      auto it = rack_util.find(view.rack);
      if (it != rack_util.end()) view.rack_uplink_utilization = it->second;
    }
  }
  return views;
}

void PiMaster::spawn_instance(SpawnSpec spec, SpawnCallback cb) {
  // Every admission is counted exactly once, before any outcome: the
  // invariant spawns_ok + spawns_failed <= spawn_requests holds at all
  // times (equality once no spawn is in flight).
  spawn_requests_->inc();
  auto refuse = [&](util::Error error) {
    spawns_failed_->inc();
    cb(std::move(error));
  };
  if (spec.name.empty()) {
    refuse(util::Error::make("invalid", "instance name required"));
    return;
  }
  if (instances_.count(spec.name) > 0) {
    refuse(util::Error::make("exists", "instance name in use: " + spec.name));
    return;
  }
  auto image = resolve_image(spec.image);
  if (!image.ok()) {
    refuse(image.error());
    return;
  }
  auto layers = layer_list(image.value());
  if (!layers.ok()) {
    refuse(layers.error());
    return;
  }

  // Admission control + placement.
  std::uint64_t mem_needed =
      spec.memory_limit > 0 ? spec.memory_limit
      : spec.bare_metal     ? os::Container::kBareMetalRamBytes
                            : os::Container::kIdleRamBytes;
  std::string hostname = spec.hostname;
  if (hostname.empty()) {
    PlacementRequest request;
    request.instance_name = spec.name;
    request.mem_bytes = mem_needed;
    request.rack_affinity = spec.rack_affinity;
    request.affinity_group = spec.affinity_group;
    auto picked = policy_->pick(placement_views(), request);
    if (!picked.ok()) {
      refuse(picked.error());
      return;
    }
    hostname = picked.value();
  } else if (!monitor_.alive(hostname)) {
    refuse(util::Error::make("unavailable", "pinned node is not alive"));
    return;
  }
  const NodeRecord* node = monitor_.node(hostname);
  if (node == nullptr) {
    refuse(util::Error::make("unavailable", "no management address for node"));
    return;
  }

  // Container address from the DHCP pool ("customised IP policies"):
  // synthetic locally-administered MAC per virtual host.
  std::string mac = util::format("02:00:00:%02x:%02x:%02x",
                                 (next_container_mac_ >> 16) & 0xff,
                                 (next_container_mac_ >> 8) & 0xff,
                                 next_container_mac_ & 0xff);
  ++next_container_mac_;
  auto container_ip = dhcp_->allocate_static(mac, spec.name);
  if (!container_ip.ok()) {
    refuse(container_ip.error());
    return;
  }

  // Reserve capacity while the spawn is in flight (guards concurrent
  // placements from double-booking a node).
  reservations_[hostname].mem += mem_needed;
  reservations_[hostname].containers += 1;
  ops_in_flight_.insert(spec.name);

  Json body = Json::object();
  body.set("name", spec.name);
  // Idempotency key: wire-level retries of this request must not
  // double-spawn on the daemon.
  body.set("idem", util::format("spawn/%s/%llu", spec.name.c_str(),
                                static_cast<unsigned long long>(++op_seq_)));
  body.set("image", image.value());
  body.set("layers", layers.value());
  body.set("ip", container_ip.value().to_string());
  body.set("cpu_shares", spec.cpu_shares);
  body.set("cpu_limit", spec.cpu_limit);
  body.set("memory_limit", static_cast<unsigned long long>(spec.memory_limit));
  if (spec.bare_metal) body.set("bare_metal", true);
  if (!spec.app_kind.empty()) {
    body.set("app", spec.app_kind);
    body.set("app_params", spec.app_params);
  }

  net::Ipv4Addr daemon_ip = node->ip;
  net::Ipv4Addr vip = container_ip.value();
  client_->call(
      daemon_ip, NodeDaemon::kPort, Method::kPost, "/containers",
      std::move(body),
      [this, spec, hostname, vip, mem_needed, cb,
       image = image.value()](util::Result<HttpResponse> result) {
        auto& reservation = reservations_[hostname];
        reservation.mem -= std::min(reservation.mem, mem_needed);
        reservation.containers = std::max(reservation.containers - 1, 0);

        auto fail = [&](util::Error error) {
          dhcp_->release(vip);
          spawns_failed_->inc();
          ops_in_flight_.erase(spec.name);
          cb(std::move(error));
        };
        if (!result.ok()) {
          fail(result.error());
          return;
        }
        if (!result.value().ok()) {
          fail(util::Error::make(
              result.value().body.get_string("error", "error"),
              result.value().body.get_string("message", "spawn refused")));
          return;
        }
        InstanceRecord record;
        record.name = spec.name;
        record.hostname = hostname;
        record.ip = vip;
        record.image = image;
        record.app_kind = spec.app_kind;
        record.state = "running";
        record.mem_reserved = mem_needed;
        record.created_at = sim_.now();
        instances_[spec.name] = record;
        dns_->add_record(spec.name, vip);
        spawns_ok_->inc();
        if (util::FaultInjection::instance().double_count_spawn_ok) {
          spawns_ok_->inc();  // planted bug for the fuzzer self-check
        }
        ops_in_flight_.erase(spec.name);
        LOG_INFO("pimaster", "spawned %s on %s at %s", spec.name.c_str(),
                 hostname.c_str(), vip.to_string().c_str());
        cb(std::move(record));
      },
      proxy_policy(kSpawnTimeout));
}

void PiMaster::delete_instance(const std::string& name, SimpleCallback cb) {
  auto it = instances_.find(name);
  if (it == instances_.end()) {
    cb(util::Error::make("not_found", "no such instance: " + name));
    return;
  }
  InstanceRecord record = it->second;
  const NodeRecord* node = monitor_.node(record.hostname);
  if (record.state == "lost" || node == nullptr ||
      !monitor_.alive(record.hostname)) {
    // The container is gone or its node is dark: there is nothing to ask.
    // Repair the registry directly (the container died with its node).
    dhcp_->release(record.ip);
    dns_->remove_record(name);
    instances_.erase(name);
    ops_in_flight_.erase(name);
    cb(util::Status::success());
    return;
  }
  ops_in_flight_.insert(name);
  Json body = Json::object();
  body.set("idem", util::format("del/%s/%llu", name.c_str(),
                                static_cast<unsigned long long>(++op_seq_)));
  client_->call(
      node->ip, NodeDaemon::kPort, Method::kDelete,
      "/containers/" + name, std::move(body),
      [this, name, record, cb](util::Result<HttpResponse> result) {
        if (!result.ok()) {
          ops_in_flight_.erase(name);
          cb(util::Error::make("unavailable", result.error().message));
          return;
        }
        // 404 from the daemon still clears master state (drift repair).
        dhcp_->release(record.ip);
        dns_->remove_record(name);
        instances_.erase(name);
        ops_in_flight_.erase(name);
        cb(util::Status::success());
      },
      proxy_policy(sim::Duration::seconds(5)));
}

void PiMaster::migrate_instance(const std::string& name, const std::string& to,
                                bool live,
                                MigrationCoordinator::DoneCallback cb,
                                AddressUpdateMode address_update) {
  // Every refusal before the coordinator runs: a failed report naming what
  // was known when the request was refused.
  MigrationReport refusal;
  refusal.instance = name;
  auto refuse = [&](const char* error) {
    refusal.error = error;
    cb(refusal);
  };
  auto it = instances_.find(name);
  if (it == instances_.end()) {
    refuse("no such instance");
    return;
  }
  InstanceRecord& record = it->second;
  refusal.from = record.hostname;
  if (record.state == "lost") {
    refuse("instance is lost (no container to migrate)");
    return;
  }

  refusal.to = to;
  std::string destination = to;
  PlacementRequest request;
  request.instance_name = name;
  std::vector<NodeView> views = placement_views();
  if (!destination.empty()) {
    // Explicit destinations still pass admission control: the envelope
    // (3 containers per Pi, RAM headroom) binds migrations too.
    request.mem_bytes = record.mem_reserved;
    auto view = std::find_if(
        views.begin(), views.end(),
        [&](const NodeView& v) { return v.hostname == destination; });
    if (view == views.end() ||
        !PlacementPolicy::fits(*view, request, config_.placement_limits)) {
      refuse("destination fails admission control");
      return;
    }
  } else {
    // Policy-driven destination, excluding the current host.
    request.mem_bytes = os::Container::kIdleRamBytes;
    views.erase(std::remove_if(views.begin(), views.end(),
                               [&](const NodeView& v) {
                                 return v.hostname == record.hostname;
                               }),
                views.end());
    auto picked = policy_->pick(views, request);
    if (!picked.ok()) {
      refuse("no destination with capacity");
      return;
    }
    destination = picked.value();
  }

  MigrationParams params;
  params.instance = name;
  params.from = record.hostname;
  params.to = destination;
  params.live = live;
  params.address_update = address_update;
  auto layers = layer_list(record.image);
  if (layers.ok()) params.layers = layers.value();

  record.state = "migrating";
  ops_in_flight_.insert(name);
  migrations_->migrate(std::move(params), [this, name, destination,
                                           cb](const MigrationReport& report) {
    auto it = instances_.find(name);
    if (it != instances_.end()) {
      if (report.success) {
        it->second.state = "running";
        it->second.hostname = destination;
      } else if (report.instance_lost) {
        // The container survived on neither end (e.g. destination died in
        // the commit blackout). The record stays so a ReplicaSet can
        // respawn, but it holds no capacity and cannot be migrated again.
        it->second.state = "lost";
      } else {
        // Aborted/rolled back: still running on the source.
        it->second.state = "running";
      }
    }
    ops_in_flight_.erase(name);
    cb(report);
  });
}

bool PiMaster::instance_healthy(const std::string& name) const {
  auto it = instances_.find(name);
  if (it == instances_.end()) return false;
  const InstanceRecord& record = it->second;
  if (record.state != "running") return false;
  if (!monitor_.alive(record.hostname)) return false;
  // Registry drift check: a node that power-cycled re-registers as alive
  // but its containers died with it. Probe the daemon's actual state.
  NodeDaemon* daemon = node_daemon(record.hostname);
  if (daemon == nullptr) return false;
  os::Container* container = daemon->node().find_container(name);
  return container != nullptr &&
         container->state() == os::ContainerState::kRunning;
}

util::Result<InstanceRecord> PiMaster::instance(const std::string& name) const {
  auto it = instances_.find(name);
  if (it == instances_.end()) {
    return util::Error::make("not_found", "no such instance: " + name);
  }
  return it->second;
}

util::Status PiMaster::set_policy(const std::string& name) {
  auto policy = make_policy(name);
  if (!policy.ok()) return policy.error();
  policy_ = std::move(policy).value();
  policy_->set_limits(config_.placement_limits);
  policy_name_ = name;
  return util::Status::success();
}

void PiMaster::install_routes() {
  // The daemons post typed bodies here; a route takes its struct and
  // answers any other body with 400.
  router_.handle(
      Method::kPost, "/register",
      [this](const HttpRequest& req, const PathParams&) {
        const NodeRegistration* node = req.body.get<NodeRegistration>();
        if (node == nullptr || node->hostname.empty()) {
          return HttpResponse::bad_request("hostname and ip required");
        }
        monitor_.register_node(node->hostname, node->ip, node->rack,
                               node->cpu_hz);
        return HttpResponse::make(200, Json("registered"));
      });

  router_.handle(
      Method::kPost, "/nodes/:hostname/stats",
      [this](const HttpRequest& req, const PathParams& params) {
        const NodeHeartbeat* hb = req.body.get<NodeHeartbeat>();
        if (hb == nullptr) return HttpResponse::bad_request("not a heartbeat");
        if (!monitor_.record_sample(params.at("hostname"), hb->gauges)) {
          return HttpResponse::not_found("unregistered node");
        }
        return HttpResponse::make(200);
      });

  // One node's row in GET /nodes and GET /nodes/:hostname: its latest
  // heartbeat's gauges in the snapshot shape (the monitor keeps no
  // counters), and who the node is.
  auto node_row = [this](const NodeRecord& rec) {
    Json j = Json::object();
    j.set("counters", Json::object());
    j.set("gauges", rec.gauges.to_json());
    j.set("hostname", rec.hostname);
    j.set("ip", rec.ip.to_string());
    j.set("rack", rec.rack);
    j.set("alive", monitor_.alive(rec));
    return j;
  };

  router_.handle(Method::kGet, "/nodes",
                 [this, node_row](const HttpRequest&, const PathParams&) {
                   Json list = Json::array();
                   for (const auto& [hostname, rec] : monitor_.nodes()) {
                     list.push_back(node_row(rec));
                   }
                   return HttpResponse::make(200, std::move(list));
                 });

  router_.handle(
      Method::kGet, "/nodes/:hostname",
      [this, node_row](const HttpRequest&, const PathParams& params) {
        const NodeRecord* rec = monitor_.node(params.at("hostname"));
        if (rec == nullptr) return HttpResponse::not_found();
        return HttpResponse::make(200, node_row(*rec));
      });

  router_.handle(Method::kGet, "/cluster/summary",
                 [this](const HttpRequest&, const PathParams&) {
                   ClusterSummary s = monitor_.summary();
                   Json j = Json::object();
                   j.set("nodes_total", s.nodes_total);
                   j.set("nodes_alive", s.nodes_alive);
                   j.set("containers_running", s.containers_running);
                   j.set("avg_cpu", s.avg_cpu_utilization);
                   j.set("mem_used", static_cast<unsigned long long>(s.mem_used));
                   j.set("mem_capacity",
                         static_cast<unsigned long long>(s.mem_capacity));
                   j.set("watts", s.power_watts);
                   return HttpResponse::make(200, std::move(j));
                 });

  router_.handle(Method::kGet, "/instances",
                 [this](const HttpRequest&, const PathParams&) {
                   Json list = Json::array();
                   for (const auto& [name, record] : instances_) {
                     list.push_back(record.to_json());
                   }
                   return HttpResponse::make(200, std::move(list));
                 });

  router_.handle(Method::kGet, "/instances/:name",
                 [this](const HttpRequest&, const PathParams& params) {
                   auto record = instance(params.at("name"));
                   if (!record.ok()) return HttpResponse::not_found();
                   return HttpResponse::make(200, record.value().to_json());
                 });

  router_.handle_async(
      Method::kPost, "/instances",
      [this](const HttpRequest& req, const PathParams&,
             proto::Responder respond) {
        // A retried spawn (client resent after a lost response) replays the
        // recorded outcome instead of reporting a spurious name collision.
        const util::MetricsRegistry& m = sim_.metrics();
        const std::uint64_t replays_before =
            m.counter_value("cloud.master.dedup.replayed");
        proto::Responder once =
            idem_.admit(req.body.json().get_string("idem"),
                        std::move(respond));
        if (!once) {
          if (util::FaultInjection::instance().recount_replayed_spawn &&
              m.counter_value("cloud.master.dedup.replayed") > replays_before) {
            // Planted, schedule-dependent bug for the model checker
            // (util/faults.h): the replay path re-counts the recorded
            // success, which only happens when the duplicate arrived after
            // the original completed — a specific interleaving.
            spawns_ok_->inc();
          }
          return;
        }
        respond = std::move(once);
        const Json& body = req.body.json();
        SpawnSpec spec;
        spec.name = body.get_string("name");
        spec.image = body.get_string("image");
        spec.app_kind = body.get_string("app");
        spec.app_params = body.get("app_params");
        spec.cpu_shares = body.get_number("cpu_shares", 1024);
        spec.cpu_limit = body.get_number("cpu_limit", 0);
        spec.memory_limit =
            static_cast<std::uint64_t>(body.get_number("memory_limit", 0));
        spec.rack_affinity = static_cast<int>(body.get_number("rack", -1));
        spec.affinity_group = body.get_string("group");
        spec.hostname = body.get_string("node");
        spec.bare_metal = body.get_bool("bare_metal");
        spawn_instance(std::move(spec),
                       [respond = std::move(respond)](
                           util::Result<InstanceRecord> result) {
                         if (!result.ok()) {
                           respond(HttpResponse::from_error(result.error()));
                           return;
                         }
                         respond(HttpResponse::make(
                             201, result.value().to_json()));
                       });
      });

  router_.handle_async(
      Method::kDelete, "/instances/:name",
      [this](const HttpRequest& req, const PathParams& params,
             proto::Responder respond) {
        proto::Responder once =
            idem_.admit(req.body.json().get_string("idem"),
                        std::move(respond));
        if (!once) return;
        respond = std::move(once);
        delete_instance(params.at("name"),
                        [respond = std::move(respond)](util::Status status) {
                          if (!status.ok()) {
                            respond(HttpResponse::from_error(status.error()));
                            return;
                          }
                          respond(HttpResponse::make(204));
                        });
      });

  router_.handle_async(
      Method::kPut, "/instances/:name/limits",
      [this](const HttpRequest& req, const PathParams& params,
             proto::Responder respond) {
        auto record = instance(params.at("name"));
        if (!record.ok()) {
          respond(HttpResponse::not_found());
          return;
        }
        const NodeRecord* node = monitor_.node(record.value().hostname);
        if (node == nullptr) {
          respond(HttpResponse::service_unavailable("hosting node unknown"));
          return;
        }
        client_->call(node->ip, NodeDaemon::kPort, Method::kPut,
                      "/containers/" + record.value().name + "/limits",
                      req.body,
                      [respond = std::move(respond)](
                          util::Result<HttpResponse> result) {
                        if (!result.ok()) {
                          respond(HttpResponse::service_unavailable(
                              result.error().message));
                          return;
                        }
                        respond(result.value());
                      },
                      proxy_policy(sim::Duration::seconds(5)));
      });

  router_.handle_async(
      Method::kPost, "/instances/:name/migrate",
      [this](const HttpRequest& req, const PathParams& params,
             proto::Responder respond) {
        proto::Responder once =
            idem_.admit(req.body.json().get_string("idem"),
                        std::move(respond));
        if (!once) return;
        respond = std::move(once);
        const Json& body = req.body.json();
        AddressUpdateMode mode =
            body.get_string("address_update", "sdn") == "arp"
                ? AddressUpdateMode::kArpConvergence
                : AddressUpdateMode::kSdnRedirect;
        migrate_instance(params.at("name"), body.get_string("to"),
                         body.get_bool("live", true),
                         [respond = std::move(respond)](
                             const MigrationReport& report) {
                           respond(HttpResponse::make(
                               report.success ? 200 : 409, report.to_json()));
                         },
                         mode);
      });

  router_.handle(Method::kGet, "/images",
                 [this](const HttpRequest&, const PathParams&) {
                   Json list = Json::array();
                   for (const auto& id : images_.list()) {
                     auto layer = images_.get(id);
                     Json j = Json::object();
                     j.set("id", id);
                     j.set("bytes", static_cast<unsigned long long>(
                                        layer.value().layer_bytes));
                     j.set("note", layer.value().note);
                     list.push_back(std::move(j));
                   }
                   return HttpResponse::make(200, std::move(list));
                 });

  router_.handle(
      Method::kPost, "/images",
      [this](const HttpRequest& req, const PathParams&) {
        auto id = images_.add_base(
            req.body.json().get_string("name"),
            static_cast<std::uint64_t>(req.body.json().get_number("bytes")),
            req.body.json().get_string("note"));
        if (!id.ok()) return HttpResponse::from_error(id.error());
        return HttpResponse::make(201, Json(id.value()));
      });

  // A new version of a named image: a delta layer (patch) or a
  // self-contained one (upgrade).
  using NewVersion = util::Result<std::string> (storage::ImageStore::*)(
      const std::string&, std::uint64_t, const std::string&);
  auto new_version = [this](NewVersion add) {
    return [this, add](const HttpRequest& req, const PathParams& params) {
      auto id = (images_.*add)(
          params.at("name"),
          static_cast<std::uint64_t>(req.body.json().get_number("bytes")),
          req.body.json().get_string("note"));
      if (!id.ok()) return HttpResponse::from_error(id.error());
      return HttpResponse::make(201, Json(id.value()));
    };
  };
  router_.handle(Method::kPost, "/images/:name/patch",
                 new_version(&storage::ImageStore::patch));
  router_.handle(Method::kPost, "/images/:name/upgrade",
                 new_version(&storage::ImageStore::upgrade));

  router_.handle(Method::kGet, "/network",
                 [this](const HttpRequest&, const PathParams&) {
                   Json racks = Json::array();
                   if (network_observer_) {
                     for (const auto& [rack, util] : network_observer_()) {
                       Json j = Json::object();
                       j.set("rack", rack);
                       j.set("uplink_utilization", util);
                       racks.push_back(std::move(j));
                     }
                   }
                   Json body = Json::object();
                   body.set("racks", std::move(racks));
                   return HttpResponse::make(200, std::move(body));
                 });

  router_.handle(Method::kGet, "/health",
                 [this](const HttpRequest&, const PathParams&) {
                   const util::MetricsRegistry& m = sim_.metrics();
                   ClusterSummary s = monitor_.summary();
                   Json j = Json::object();
                   j.set("role", "pimaster");
                   j.set("nodes_alive", s.nodes_alive);
                   j.set("nodes_total", s.nodes_total);
                   j.set("instances", static_cast<double>(instances_.size()));
                   j.set("liveness_window_s",
                         ClusterMonitor::kLivenessWindow.to_seconds());
                   if (client_) {
                     Json retry = Json::object();
                     retry.set("inflight",
                               static_cast<double>(client_->inflight_retries()));
                     retry.set("attempts",
                               m.counter_value("proto.rest.attempts"));
                     retry.set("retries",
                               m.counter_value("proto.rest.retries"));
                     retry.set("exhausted",
                               m.counter_value("proto.rest.exhausted"));
                     j.set("retry", std::move(retry));
                   }
                   Json dedup = Json::object();
                   dedup.set("admitted",
                             m.counter_value("cloud.master.dedup.admitted"));
                   dedup.set("replayed",
                             m.counter_value("cloud.master.dedup.replayed"));
                   dedup.set("coalesced",
                             m.counter_value("cloud.master.dedup.coalesced"));
                   j.set("dedup", std::move(dedup));
                   if (reconciler_) {
                     Json rec = Json::object();
                     rec.set("sweeps",
                             m.counter_value("cloud.reconciler.sweeps"));
                     rec.set("marked_lost",
                             m.counter_value(
                                 "cloud.reconciler.marked_lost_dead_node") +
                                 m.counter_value(
                                     "cloud.reconciler.marked_lost_drift"));
                     rec.set("orphans_destroyed",
                             m.counter_value("cloud.reconciler.orphans_gc"));
                     j.set("reconciler", std::move(rec));
                   }
                   return HttpResponse::make(200, std::move(j));
                 });

  // The full telemetry spine: every counter/gauge/histogram registered by
  // any component of the simulation, in canonical snapshot form. This is
  // the one endpoint the web panel and external scrapers need.
  router_.handle(Method::kGet, "/metrics",
                 [this](const HttpRequest&, const PathParams&) {
                   return HttpResponse::make(200, sim_.metrics().snapshot());
                 });

  // Recent structured trace events (sim-time, bounded ring buffer).
  router_.handle(Method::kGet, "/trace",
                 [this](const HttpRequest&, const PathParams&) {
                   return HttpResponse::make(200, sim_.trace().to_json());
                 });

  router_.handle(Method::kGet, "/policy",
                 [this](const HttpRequest&, const PathParams&) {
                   Json j = Json::object();
                   j.set("name", policy_name_);
                   return HttpResponse::make(200, std::move(j));
                 });

  router_.handle(Method::kPut, "/policy",
                 [this](const HttpRequest& req, const PathParams&) {
                   util::Status status =
                       set_policy(req.body.json().get_string("name"));
                   if (!status.ok()) {
                     return HttpResponse::from_error(status.error());
                   }
                   Json j = Json::object();
                   j.set("name", policy_name_);
                   return HttpResponse::make(200, std::move(j));
                 });
}

}  // namespace picloud::cloud
