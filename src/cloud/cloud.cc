#include "cloud/cloud.h"

#include <memory>
#include <utility>

#include "apps/factory.h"
#include "util/logging.h"

namespace picloud::cloud {

namespace {

// The facade's one wait: `start` begins an operation and hands its result
// to the callback it is given; time then steps until that callback has run
// or `max` has passed, and the wait returns the result, or `out` (a timeout
// error) when none came. The slot is shared with the callback, so a result
// that comes after a timed-out wait lands there and not in a finished frame.
template <typename T, typename Start>
T wait_for(PiCloud& cloud, sim::Duration max, T out, Start start) {
  struct Slot {
    bool done = false;
    T result;
  };
  auto slot = std::make_shared<Slot>(Slot{false, std::move(out)});
  start([slot](T result) {
    slot->done = true;
    slot->result = std::move(result);
  });
  const bool& done = slot->done;
  cloud.run_until(max, [&done]() { return done; });
  return std::move(slot->result);
}

}  // namespace

PiCloud::PiCloud(sim::Simulation& sim, PiCloudConfig config)
    : sim_(sim), config_(std::move(config)) {
  build();
}

PiCloud::~PiCloud() = default;

void PiCloud::build() {
  fabric_ = std::make_unique<net::Fabric>(sim_);
  network_ = std::make_unique<net::Network>(sim_, *fabric_);

  // --- Fig. 2: the data-centre fabric ---------------------------------------
  if (config_.topology == PiCloudConfig::Topo::kMultiRootTree) {
    net::MultiRootTreeConfig topo_config;
    topo_config.racks = config_.racks;
    topo_config.hosts_per_rack = config_.hosts_per_rack;
    topo_config.aggregation_switches = config_.aggregation_switches;
    topo_config.host_link_bps = config_.node_spec.nic_bits_per_sec;
    topology_ = net::build_multi_root_tree(*fabric_, topo_config);
  } else {
    net::FatTreeConfig topo_config;
    topo_config.k = config_.fat_tree_k;
    topo_config.host_link_bps = config_.node_spec.nic_bits_per_sec;
    topology_ = net::build_fat_tree(*fabric_, topo_config);
  }

  if (config_.enable_sdn) {
    sdn_ = std::make_unique<net::SdnController>(sim_, config_.sdn_policy);
    fabric_->set_routing(sdn_.get());
  }

  // The pimaster head node hangs off the gateway on a fast link; the admin
  // workstation reaches the cloud from beyond it (the Internet node).
  net::NetNodeId master_node =
      fabric_->add_node(net::NodeKind::kHost, "pimaster");
  fabric_->add_link(master_node, topology_.gateway, 1e9,
                    sim::Duration::micros(50));
  network_->bind_ip(config_.admin_ip, topology_.internet);

  // --- Fig. 1: racks and devices ---------------------------------------------
  for (int r = 0; r < topology_.rack_count(); ++r) {
    hw::RackGeometry geometry;
    geometry.slots = std::max(config_.hosts_per_rack,
                              static_cast<int>(topology_.hosts.size()));
    machine_room_.racks.push_back(std::make_unique<hw::Rack>(r, geometry));
  }

  for (size_t i = 0; i < topology_.hosts.size(); ++i) {
    int rack = topology_.host_rack[i];
    std::string hostname = fabric_->node(topology_.hosts[i]).name;
    auto device = std::make_unique<hw::Device>(static_cast<hw::DeviceId>(i),
                                               hostname, config_.node_spec);
    machine_room_.racks[rack]->install(device.get());
    power_board_.attach(&device->power());
    devices_.push_back(std::move(device));

    auto node_os = std::make_unique<os::NodeOs>(
        sim_, *devices_.back(), *network_, topology_.hosts[i]);
    node_oses_.push_back(std::move(node_os));

    NodeDaemon::Config daemon_config;
    daemon_config.pimaster_ip = config_.master_ip;
    daemon_config.rack = rack;
    daemon_config.heartbeat_period = config_.heartbeat_period;
    auto daemon =
        std::make_unique<NodeDaemon>(*node_oses_.back(), daemon_config);
    daemon->set_app_factory(
        [](const std::string& kind, const util::Json& params) {
          return apps::make_app(kind, params);
        });
    daemons_.push_back(std::move(daemon));
  }

  // The head node: a beefier box, also on the power board.
  hw::DeviceSpec master_spec = hw::pi_model_b_rev2();
  master_spec.name = "pimaster-node";
  master_device_ = std::make_unique<hw::Device>(
      static_cast<hw::DeviceId>(devices_.size()), "pimaster", master_spec);
  power_board_.attach(&master_device_->power());

  PiMaster::Config master_config;
  master_config.ip = config_.master_ip;
  master_config.subnet = config_.subnet;
  master_config.dhcp_range_start = config_.dhcp_range_start;
  master_config.dhcp_range_end = config_.dhcp_range_end;
  master_config.placement_policy = config_.placement_policy;
  master_config.placement_limits = config_.placement_limits;
  master_config.reconcile = config_.reconcile;
  master_ = std::make_unique<PiMaster>(*network_, master_node, master_config);
  master_->set_node_accessor([this](const std::string& hostname) {
    return daemon_by_hostname(hostname);
  });
  // The SDN controller's logically-central view: per-rack peak ToR-uplink
  // utilisation, read straight off the fabric gauges.
  master_->set_network_observer([this]() {
    std::map<int, double> rack_util;
    for (int r = 0; r < topology_.rack_count(); ++r) {
      double peak = 0;
      for (net::LinkId lid : fabric_->node(topology_.tor_switches[r]).out_links) {
        const net::DirectedLink& link = fabric_->link(lid);
        if (fabric_->node(link.to).kind != net::NodeKind::kSwitch) continue;
        peak = std::max(peak, link.utilization());
        peak = std::max(peak, fabric_->link(fabric_->reverse(lid)).utilization());
      }
      rack_util[r] = peak;
    }
    return rack_util;
  });

  panel_ = std::make_unique<ControlPanel>(*network_, config_.admin_ip,
                                          config_.master_ip, PiMaster::kPort);
}

void PiCloud::power_on() {
  if (powered_) return;
  powered_ = true;
  master_device_->set_powered(sim_.now(), true);
  master_->start();
  // SD cards ship pre-flashed with the stock image (the paper's cards are
  // imaged before racking); only patches/upgrades transfer over the fabric.
  auto base = master_->images().latest("raspbian-lxc");
  if (base.ok()) {
    auto chain = master_->images().chain(base.value());
    if (chain.ok()) {
      for (auto& node_os : node_oses_) {
        for (const auto& layer : chain.value()) {
          (void)node_os->add_image_layer(layer.id(), layer.layer_bytes);
        }
      }
    }
  }
  for (auto& daemon : daemons_) daemon->start();
  LOG_INFO("picloud", "powered on: %zu nodes in %d racks (%s, sdn=%s)",
           daemons_.size(), topology_.rack_count(), topology_.kind.c_str(),
           sdn_ ? net::sdn_policy_name(sdn_->policy()) : "off");
}

bool PiCloud::await_ready(sim::Duration max) {
  return run_until(max, [this]() {
    for (const auto& daemon : daemons_) {
      if (!daemon->registered()) return false;
    }
    return true;
  });
}

bool PiCloud::run_until(sim::Duration max,
                        const std::function<bool()>& predicate) {
  sim::SimTime deadline = sim_.now() + max;
  // Step in heartbeat-sized slices so the predicate is polled often without
  // burning host CPU per event.
  while (sim_.now() < deadline) {
    if (predicate()) return true;
    sim::Duration step = sim::Duration::millis(100);
    if (sim_.now() + step > deadline) step = deadline - sim_.now();
    sim_.run_for(step);
  }
  return predicate();
}

Autopilot& PiCloud::enable_autopilot(Autopilot::Config config) {
  if (autopilot_ == nullptr) {
    autopilot_ = std::make_unique<Autopilot>(sim_, *master_, config);
    autopilot_->set_power_control(
        [this](const std::string& hostname, bool on) {
          NodeDaemon* daemon = daemon_by_hostname(hostname);
          if (daemon == nullptr) return;
          if (on) {
            daemon->start();
          } else {
            daemon->stop();
          }
        });
    autopilot_->start();
  }
  return *autopilot_;
}

void PiCloud::start_gossip(GossipConfig config) {
  if (!gossip_.empty()) return;
  for (size_t i = 0; i < daemons_.size(); ++i) {
    auto agent = std::make_unique<GossipAgent>(*network_, config,
                                               sim_.rng().fork());
    os::NodeOs* node = node_oses_[i].get();
    agent->set_load_provider([node]() {
      os::NodeOs::NodeStats stats = node->stats();
      GossipAgent::SelfLoad load;
      load.cpu = stats.cpu_utilization;
      load.mem_used = stats.mem_used;
      load.containers = stats.containers_total;
      return load;
    });
    gossip_.push_back(std::move(agent));
  }
  // Seed a ring plus a common anchor, then start everyone.
  for (size_t i = 0; i < gossip_.size(); ++i) {
    size_t next = (i + 1) % gossip_.size();
    gossip_[i]->add_seed(node_oses_[next]->hostname(),
                         node_oses_[next]->host_ip());
    if (i != 0) {
      gossip_[i]->add_seed(node_oses_[0]->hostname(),
                           node_oses_[0]->host_ip());
    }
    gossip_[i]->start(node_oses_[i]->hostname(), node_oses_[i]->host_ip());
  }
}

void PiCloud::stop_gossip_agent(size_t i) {
  if (i < gossip_.size() && gossip_[i] != nullptr) gossip_[i]->stop();
}

NodeDaemon* PiCloud::daemon_by_hostname(const std::string& hostname) {
  for (auto& daemon : daemons_) {
    if (daemon->node().hostname() == hostname) return daemon.get();
  }
  return nullptr;
}

util::Result<InstanceRecord> PiCloud::spawn_and_wait(PiMaster::SpawnSpec spec,
                                                     sim::Duration max) {
  // Drive the full path: admin workstation -> pimaster REST -> node daemon.
  util::Json body = util::Json::object();
  body.set("name", spec.name);
  if (!spec.image.empty()) body.set("image", spec.image);
  if (!spec.app_kind.empty()) {
    body.set("app", spec.app_kind);
    body.set("app_params", spec.app_params);
  }
  body.set("cpu_shares", spec.cpu_shares);
  body.set("cpu_limit", spec.cpu_limit);
  body.set("memory_limit",
           static_cast<unsigned long long>(spec.memory_limit));
  if (spec.rack_affinity >= 0) body.set("rack", spec.rack_affinity);
  if (!spec.affinity_group.empty()) body.set("group", spec.affinity_group);
  if (!spec.hostname.empty()) body.set("node", spec.hostname);
  if (spec.bare_metal) body.set("bare_metal", true);

  return wait_for<util::Result<InstanceRecord>>(
      *this, max,
      util::Error::make("timeout", "spawn did not complete in time"),
      [&](auto deliver) {
        panel_->spawn_vm(
            std::move(body),
            [this, deliver](util::Result<util::Json> result) {
              if (!result.ok()) {
                deliver(result.error());
                return;
              }
              deliver(master_->instance(result.value().get_string("name")));
            });
      });
}

util::Status PiCloud::delete_and_wait(const std::string& name,
                                      sim::Duration max) {
  return wait_for<util::Status>(
      *this, max, util::Error::make("timeout", "delete did not complete"),
      [&](auto deliver) {
        panel_->delete_vm(name, [deliver](util::Result<util::Json> result) {
          deliver(result.ok() ? util::Status::success()
                              : util::Status(result.error()));
        });
      });
}

MigrationReport PiCloud::migrate_and_wait(const std::string& name,
                                          const std::string& to, bool live,
                                          sim::Duration max) {
  // A report the pimaster never sent: the call failed, or timed out.
  auto unsent = [name](std::string error) {
    MigrationReport report;
    report.instance = name;
    report.error = std::move(error);
    return report;
  };
  return wait_for(*this, max, unsent("timeout"), [&](auto deliver) {
    panel_->migrate_vm(
        name, to, live,
        [deliver, unsent](util::Result<util::Json> result) {
          deliver(result.ok() ? MigrationReport::from_json(result.value())
                              : unsent(result.error().message));
        });
  });
}

void PiCloud::schedule_fault(sim::Duration delay, std::string label,
                             std::function<void()> fault) {
  sim_.after(delay, [this, label = std::move(label),
                     fault = std::move(fault)]() {
    // Fault schedule point (DESIGN.md §13): inline in default runs, parked
    // for reordering when a model-checking strategy is installed.
    if (!sim_.schedule_points().active()) {
      fault();
      return;
    }
    sim::SchedulePoint point;
    point.kind = sim::SchedulePointKind::kFault;
    point.label = "fault:" + label;
    point.object = "fault";
    sim_.schedule_points().intercept(std::move(point), fault);
  });
}

util::Result<std::string> PiCloud::dashboard(sim::Duration max) {
  return wait_for<util::Result<std::string>>(
      *this, max, util::Error::make("timeout", "dashboard fetch timed out"),
      [&](auto deliver) { panel_->render_dashboard(deliver); });
}

util::Result<util::Json> PiCloud::metrics_snapshot(sim::Duration max) {
  return wait_for<util::Result<util::Json>>(
      *this, max, util::Error::make("timeout", "metrics fetch timed out"),
      [&](auto deliver) { panel_->get_metrics(deliver); });
}

}  // namespace picloud::cloud
