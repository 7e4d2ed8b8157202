#include "cloud/node_daemon.h"

#include <utility>

#include "util/logging.h"

namespace picloud::cloud {

using proto::HttpRequest;
using proto::HttpResponse;
using proto::Method;
using proto::PathParams;
using util::Json;

NodeDaemon::NodeDaemon(os::NodeOs& node, Config config)
    : node_(node),
      config_(config),
      scope_("node." + node.hostname()),
      idem_(node.simulation().metrics(), scope_ + ".dedup", 128) {
  util::MetricsRegistry& m = node_.simulation().metrics();
  heartbeats_sent_ = &m.counter(scope_ + ".heartbeats_sent");
  cpu_gauge_ = &m.gauge(scope_ + ".cpu_utilization");
  mem_used_gauge_ = &m.gauge(scope_ + ".mem_used");
  mem_capacity_gauge_ = &m.gauge(scope_ + ".mem_capacity");
  sd_used_gauge_ = &m.gauge(scope_ + ".sd_used");
  containers_total_gauge_ = &m.gauge(scope_ + ".containers_total");
  containers_running_gauge_ = &m.gauge(scope_ + ".containers_running");
  power_gauge_ = &m.gauge(scope_ + ".power_watts");
  install_routes();
}

NodeDaemon::~NodeDaemon() { stop(); }

void NodeDaemon::start() {
  if (started_) return;
  started_ = true;
  node_.boot();
  dhcp_ = std::make_unique<proto::DhcpClient>(
      node_.network(), node_.fabric_node(), node_.device().mac_address(),
      node_.hostname());
  dhcp_->start([this](net::Ipv4Addr ip, sim::Duration lease) {
    on_dhcp_bound(ip, lease);
  });
}

void NodeDaemon::stop() {
  if (!started_) return;
  started_ = false;
  registered_ = false;
  heartbeat_task_.cancel();
  register_retry_.cancel();
  server_.reset();
  client_.reset();
  dhcp_.reset();
  node_.shutdown();
}

void NodeDaemon::crash() {
  if (!started_) return;
  started_ = false;
  registered_ = false;
  heartbeat_task_.cancel();
  register_retry_.cancel();
  server_.reset();
  client_.reset();
  dhcp_.reset();
  node_.crash();
}

void NodeDaemon::on_dhcp_bound(net::Ipv4Addr ip, sim::Duration /*lease*/) {
  if (node_.host_ip() == ip && server_ != nullptr) return;  // renewal
  node_.set_host_ip(ip);
  server_ = std::make_unique<proto::RestServer>(node_.network(), ip, kPort,
                                                &router_);
  server_->start();
  client_ = std::make_unique<proto::RestClient>(node_.network(), ip, 49152,
                                                scope_ + ".rest");
  register_with_master();
}

void NodeDaemon::register_with_master() {
  Json body = Json::object();
  body.set("hostname", node_.hostname());
  body.set("mac", node_.device().mac_address());
  body.set("ip", node_.host_ip().to_string());
  body.set("rack", config_.rack);
  body.set("cpu_hz", node_.cpu().capacity());
  // Keep retrying with backoff until the master answers: a node that boots
  // while the master (or the path to it) is down registers as soon as it
  // recovers. The policy's jitter decorrelates a rack booting in lockstep.
  proto::RetryPolicy policy = proto::RetryPolicy::unbounded();
  client_->call(
      config_.pimaster_ip, kPiMasterPort, proto::Method::kPost,
      "/register", std::move(body),
      [this](util::Result<HttpResponse> result) {
        if (!started_) return;
        if (!result.ok()) return;  // cancelled: the daemon is going down
        if (!result.value().ok()) {
          // Master answered but refused: retry after a beat.
          register_retry_.after(node_.simulation(), sim::Duration::seconds(2),
                                [this]() {
                                  if (started_ && !registered_) {
                                    register_with_master();
                                  }
                                });
          return;
        }
        registered_ = true;
        LOG_INFO("daemon", "%s registered with pimaster",
                 node_.hostname().c_str());
        heartbeat_task_.every(node_.simulation(), config_.heartbeat_period,
                              [this]() { send_heartbeat(); });
      },
      policy);
}

Json NodeDaemon::stats_json() const {
  os::NodeOs::NodeStats s = node_.stats();
  cpu_gauge_->set(s.cpu_utilization);
  mem_used_gauge_->set(static_cast<double>(s.mem_used));
  mem_capacity_gauge_->set(static_cast<double>(s.mem_capacity));
  sd_used_gauge_->set(static_cast<double>(s.sd_used));
  containers_total_gauge_->set(s.containers_total);
  containers_running_gauge_->set(s.containers_running);
  power_gauge_->set(s.power_watts);
  return node_.simulation().metrics().snapshot(scope_);
}

void NodeDaemon::send_heartbeat() {
  if (!started_ || client_ == nullptr) return;
  heartbeats_sent_->inc();
  // Single attempt bounded by the heartbeat period: a lost heartbeat is
  // information (the monitor tolerates gaps), and retrying a stale one past
  // the next beat would only add load exactly when the network is sick.
  proto::RetryPolicy policy =
      proto::RetryPolicy::single(config_.heartbeat_period);
  client_->call(config_.pimaster_ip, kPiMasterPort,
                proto::Method::kPost, "/nodes/" + node_.hostname() + "/stats",
                stats_json(), [](util::Result<HttpResponse>) {}, policy);
}

void NodeDaemon::fetch_layers(util::JsonArray layers, size_t index,
                              std::function<void(util::Status)> done) {
  // Find the next layer we do not have.
  while (index < layers.size() &&
         node_.has_image_layer(layers[index].get_string("id"))) {
    ++index;
  }
  if (index >= layers.size()) {
    done(util::Status::success());
    return;
  }
  const Json& layer = layers[index];
  std::string id = layer.get_string("id");
  auto bytes = static_cast<std::uint64_t>(layer.get_number("bytes"));

  auto master_node = node_.network().resolve(config_.pimaster_ip);
  if (!master_node) {
    done(util::Error::make("unavailable", "pimaster unreachable for image pull"));
    return;
  }
  // Bulk layer download: a real flow across the fabric, then an SD write.
  net::FlowSpec flow;
  flow.src = *master_node;
  flow.dst = node_.fabric_node();
  flow.bytes = static_cast<double>(bytes);
  flow.on_complete = [this, id, bytes, layers = std::move(layers), index,
                      done = std::move(done)](sim::Duration,
                                              bool success) mutable {
    if (!success) {
      done(util::Error::make("unavailable", "image transfer failed: " + id));
      return;
    }
    node_.sdcard().write(
        bytes, [this, id, bytes, layers = std::move(layers), index,
                done = std::move(done)]() mutable {
          util::Status cached = node_.add_image_layer(id, bytes);
          if (!cached.ok()) {
            done(cached);
            return;
          }
          fetch_layers(std::move(layers), index + 1, std::move(done));
        });
  };
  node_.network().fabric().start_flow(std::move(flow));
}

void NodeDaemon::spawn_container(const Json& spec, SpawnCallback cb) {
  std::string name = spec.get_string("name");
  if (name.empty()) {
    cb(util::Error::make("invalid", "container name required"));
    return;
  }
  if (node_.find_container(name) != nullptr) {
    cb(util::Error::make("exists", "container exists: " + name));
    return;
  }
  util::JsonArray layers = spec.get("layers").as_array();
  fetch_layers(std::move(layers), 0, [this, spec, cb](util::Status fetched) {
    // The layer pull crosses the fabric; the node may have crashed (or been
    // cleanly stopped) while it was in flight. Never materialise a container
    // on a dead node.
    if (!started_ || !node_.running()) {
      cb(util::Error::make("unavailable", "node went down during spawn"));
      return;
    }
    if (!fetched.ok()) {
      cb(fetched.error());
      return;
    }
    os::ContainerConfig config;
    config.name = spec.get_string("name");
    config.image_id = spec.get_string("image");
    config.cpu_shares = spec.get_number("cpu_shares", 1024);
    config.cpu_limit = spec.get_number("cpu_limit", 0);
    config.memory_limit =
        static_cast<std::uint64_t>(spec.get_number("memory_limit", 0));
    config.bare_metal = spec.get_bool("bare_metal");
    auto created = node_.create_container(std::move(config));
    if (!created.ok()) {
      cb(created.error());
      return;
    }
    os::Container* container = created.value();

    std::string app_kind = spec.get_string("app");
    if (!app_kind.empty()) {
      if (!app_factory_) {
        (void)node_.destroy_container(container->name());
        cb(util::Error::make("invalid", "node has no app factory"));
        return;
      }
      auto app = app_factory_(app_kind, spec.get("app_params"));
      if (!app.ok()) {
        (void)node_.destroy_container(container->name());
        cb(app.error());
        return;
      }
      container->set_app(std::move(app).value());
    }

    auto ip = net::Ipv4Addr::parse(spec.get_string("ip"));
    util::Status started = container->start(ip.value_or(net::Ipv4Addr::any()));
    if (!started.ok()) {
      (void)node_.destroy_container(container->name());
      cb(started.error());
      return;
    }
    cb(container->name());
  });
}

void NodeDaemon::install_routes() {
  router_.handle(Method::kGet, "/ping",
                 [](const HttpRequest&, const PathParams&) {
                   return HttpResponse::make(200, Json("pong"));
                 });

  router_.handle(Method::kGet, "/stats",
                 [this](const HttpRequest&, const PathParams&) {
                   return HttpResponse::make(200, stats_json());
                 });

  router_.handle(Method::kGet, "/containers",
                 [this](const HttpRequest&, const PathParams&) {
                   Json list = Json::array();
                   for (os::Container* c : node_.containers()) {
                     list.push_back(c->describe());
                   }
                   return HttpResponse::make(200, std::move(list));
                 });

  router_.handle(Method::kGet, "/containers/:name",
                 [this](const HttpRequest&, const PathParams& params) {
                   os::Container* c = node_.find_container(params.at("name"));
                   if (c == nullptr) return HttpResponse::not_found();
                   return HttpResponse::make(200, c->describe());
                 });

  router_.handle_async(
      Method::kPost, "/containers",
      [this](const HttpRequest& req, const PathParams&,
             proto::Responder respond) {
        // Admit the request's idempotency key first: a retried spawn whose
        // original attempt already executed (or is still executing) must
        // not create a second container.
        proto::Responder once =
            idem_.admit(req.body.get_string("idem"), std::move(respond));
        if (!once) return;  // duplicate: replayed or coalesced
        spawn_container(req.body, [once = std::move(once)](
                                      util::Result<std::string> result) {
          if (!result.ok()) {
            once(HttpResponse::from_error(result.error()));
            return;
          }
          Json body = Json::object();
          body.set("name", result.value());
          once(HttpResponse::make(201, std::move(body)));
        });
      });

  auto lifecycle = [this](const std::string& action) {
    return [this, action](const HttpRequest&, const PathParams& params) {
      os::Container* c = node_.find_container(params.at("name"));
      if (c == nullptr) return HttpResponse::not_found();
      util::Status status =
          action == "stop" ? c->stop()
          : action == "freeze" ? c->freeze()
          : c->thaw();
      if (!status.ok()) return HttpResponse::from_error(status.error());
      return HttpResponse::make(200, c->describe());
    };
  };
  router_.handle(Method::kPost, "/containers/:name/stop", lifecycle("stop"));
  router_.handle(Method::kPost, "/containers/:name/freeze",
                 lifecycle("freeze"));
  router_.handle(Method::kPost, "/containers/:name/thaw", lifecycle("thaw"));

  router_.handle_async(
      Method::kDelete, "/containers/:name",
      [this](const HttpRequest& req, const PathParams& params,
             proto::Responder respond) {
        // Destroy is naturally idempotent (a second attempt sees 404), but
        // recording the outcome lets a retried delete observe its own 204
        // instead of a confusing not-found.
        proto::Responder once =
            idem_.admit(req.body.get_string("idem"), std::move(respond));
        if (!once) return;
        util::Status status = node_.destroy_container(params.at("name"));
        if (!status.ok()) {
          once(HttpResponse::from_error(status.error()));
          return;
        }
        once(HttpResponse::make(204));
      });

  router_.handle(
      Method::kPut, "/containers/:name/limits",
      [this](const HttpRequest& req, const PathParams& params) {
        os::Container* c = node_.find_container(params.at("name"));
        if (c == nullptr) return HttpResponse::not_found();
        if (req.body.has("cpu_limit")) {
          c->set_cpu_limit(req.body.get_number("cpu_limit"));
        }
        if (req.body.has("cpu_shares")) {
          c->set_cpu_shares(req.body.get_number("cpu_shares"));
        }
        if (req.body.has("memory_limit")) {
          c->set_memory_limit(
              static_cast<std::uint64_t>(req.body.get_number("memory_limit")));
        }
        return HttpResponse::make(200, c->describe());
      });

  router_.handle(
      Method::kGet, "/health",
      [this](const HttpRequest&, const PathParams&) {
        const util::MetricsRegistry& m = node_.simulation().metrics();
        Json j = Json::object();
        j.set("hostname", node_.hostname());
        j.set("registered", registered_);
        j.set("containers", static_cast<double>(node_.containers().size()));
        j.set("heartbeats_sent",
              static_cast<unsigned long long>(heartbeats_sent_->value()));
        if (client_ != nullptr) {
          Json retry = Json::object();
          retry.set("inflight", static_cast<double>(client_->inflight_retries()));
          retry.set("attempts", m.counter_value(scope_ + ".rest.attempts"));
          retry.set("retries", m.counter_value(scope_ + ".rest.retries"));
          retry.set("exhausted", m.counter_value(scope_ + ".rest.exhausted"));
          j.set("retry", std::move(retry));
        }
        Json dedup = Json::object();
        dedup.set("admitted", m.counter_value(scope_ + ".dedup.admitted"));
        dedup.set("replayed", m.counter_value(scope_ + ".dedup.replayed"));
        dedup.set("coalesced", m.counter_value(scope_ + ".dedup.coalesced"));
        j.set("dedup", std::move(dedup));
        return HttpResponse::make(200, std::move(j));
      });

  router_.handle(Method::kGet, "/metrics",
                 [this](const HttpRequest&, const PathParams&) {
                   // Refresh gauges first so a poll between heartbeats still
                   // sees current utilisation.
                   return HttpResponse::make(200, stats_json());
                 });

  router_.handle_async(
      Method::kPost, "/images/prefetch",
      [this](const HttpRequest& req, const PathParams&,
             proto::Responder respond) {
        util::JsonArray layers = req.body.get("layers").as_array();
        fetch_layers(std::move(layers), 0,
                     [respond = std::move(respond)](util::Status status) {
                       if (!status.ok()) {
                         respond(HttpResponse::from_error(status.error()));
                         return;
                       }
                       respond(HttpResponse::make(200));
                     });
      });
}

}  // namespace picloud::cloud
