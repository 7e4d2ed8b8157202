// PiCloud — the public facade: builds the whole Glasgow Raspberry Pi Cloud
// and offers the high-level operations examples, tests and benches use.
//
// One call constructs the full stack of Fig. 2: 4 Lego racks of 14 Model B
// Pis behind ToR switches, an OpenFlow aggregation layer under a central
// SDN controller, the university gateway, the pimaster head node (DHCP,
// DNS, image store, placement, REST API) and an administrator workstation
// beyond the gateway running the web control panel.
//
//   sim::Simulation sim(42);
//   cloud::PiCloud cloud(sim);            // the Glasgow build
//   cloud.power_on();
//   cloud.await_ready();                  // DHCP storm, registration
//   auto web = cloud.spawn_and_wait({.name = "web-1", .app_kind = "httpd"});
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/autopilot.h"
#include "cloud/control_panel.h"
#include "cloud/gossip.h"
#include "cloud/node_daemon.h"
#include "cloud/pimaster.h"
#include "hw/rack.h"
#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace picloud::cloud {

struct PiCloudConfig {
  // --- Scale (defaults = the Glasgow build) ------------------------------------
  int racks = 4;
  int hosts_per_rack = 14;

  // --- Topology -------------------------------------------------------------------
  enum class Topo { kMultiRootTree, kFatTree };
  Topo topology = Topo::kMultiRootTree;
  int aggregation_switches = 2;  // multi-root tree roots
  int fat_tree_k = 4;            // ignored unless kFatTree (k^3/4 hosts)

  // --- Hardware -------------------------------------------------------------------
  hw::DeviceSpec node_spec = hw::pi_model_b();

  // --- SDN ------------------------------------------------------------------------
  bool enable_sdn = true;
  net::SdnPolicy sdn_policy = net::SdnPolicy::kEcmp;

  // --- Management -----------------------------------------------------------------
  std::string placement_policy = "first-fit";
  PlacementLimits placement_limits;
  sim::Duration heartbeat_period = sim::Duration::seconds(2);
  // Anti-entropy loop tuning, passed through to PiMaster::Config (the model
  // checker shortens the period so lost-marking happens inside an episode).
  Reconciler::Config reconcile;

  // --- Addressing -----------------------------------------------------------------
  net::Subnet subnet{net::Ipv4Addr(10, 0, 0, 0), 16};
  net::Ipv4Addr master_ip{10, 0, 0, 2};
  net::Ipv4Addr admin_ip{10, 0, 250, 1};
  net::Ipv4Addr dhcp_range_start{10, 0, 1, 1};
  net::Ipv4Addr dhcp_range_end{10, 0, 199, 254};
};

class PiCloud {
 public:
  explicit PiCloud(sim::Simulation& sim, PiCloudConfig config = {});
  ~PiCloud();

  PiCloud(const PiCloud&) = delete;
  PiCloud& operator=(const PiCloud&) = delete;

  // --- Lifecycle --------------------------------------------------------------
  // Powers the pimaster and every Pi; daemons begin the DHCP/register dance.
  void power_on();
  // Runs the simulation until every node is registered (or `max` elapses).
  // Returns true when the whole fleet reported in.
  bool await_ready(sim::Duration max = sim::Duration::seconds(120));

  // Steps simulated time until `predicate` holds or `max` elapses.
  bool run_until(sim::Duration max, const std::function<bool()>& predicate);
  void run_for(sim::Duration d) { sim_.run_for(d); }

  // --- Components --------------------------------------------------------------
  sim::Simulation& simulation() { return sim_; }
  const sim::Simulation& simulation() const { return sim_; }
  net::Fabric& fabric() { return *fabric_; }
  const net::Fabric& fabric() const { return *fabric_; }
  net::Network& network() { return *network_; }
  const net::Topology& topology() const { return topology_; }
  net::SdnController* sdn() { return sdn_.get(); }
  PiMaster& master() { return *master_; }
  const PiMaster& master() const { return *master_; }
  ControlPanel& panel() { return *panel_; }
  hw::MachineRoom& machine_room() { return machine_room_; }

  size_t node_count() const { return daemons_.size(); }
  NodeDaemon& daemon(size_t i) { return *daemons_[i]; }
  const NodeDaemon& daemon(size_t i) const { return *daemons_[i]; }
  NodeDaemon* daemon_by_hostname(const std::string& hostname);
  os::NodeOs& node(size_t i) { return *node_oses_[i]; }
  const os::NodeOs& node(size_t i) const { return *node_oses_[i]; }
  hw::Device& device(size_t i) { return *devices_[i]; }

  net::Ipv4Addr master_ip() const { return config_.master_ip; }
  net::Ipv4Addr admin_ip() const { return config_.admin_ip; }
  const PiCloudConfig& config() const { return config_; }

  // --- Autopilot (paper §III consolidation-for-power, automated) ----------------
  // Creates and starts the consolidation controller; its power control is
  // wired to daemon start/stop (the socket-board switch). Idempotent.
  Autopilot& enable_autopilot(Autopilot::Config config = {});
  Autopilot* autopilot() { return autopilot_.get(); }

  // --- Peer-to-peer management (paper §III "radical departures") ---------------
  // Starts a GossipAgent on every registered node (requires await_ready()):
  // nodes exchange membership/load epidemically, so any Pi can answer for
  // the whole cluster without the pimaster. Seeded as a ring + node 0.
  void start_gossip(GossipConfig config = {});
  GossipAgent* gossip_agent(size_t i) {
    return i < gossip_.size() ? gossip_[i].get() : nullptr;
  }
  // Silences a node's agent (used together with daemon(i).crash()).
  void stop_gossip_agent(size_t i);
  bool gossip_enabled() const { return !gossip_.empty(); }

  // --- Power instrumentation ("single trailing power socket board") -------------
  double current_power_watts() const { return power_board_.current_watts(); }
  double energy_kwh() const { return power_board_.kwh(sim_.now()); }
  const hw::PowerDistributionBoard& power_board() const { return power_board_; }

  // --- Convenience operations (drive the REST API, then step time) --------------
  // Each sends its request through the control panel and runs the
  // simulation until the reply comes or `max` passes (a "timeout" error),
  // so callers can write linear example code. A refusal is an error: a
  // delete of a name the pimaster does not know fails with not_found. A
  // migration returns the report the pimaster sent, every field, refused or
  // not; only a failed call or a timeout makes one here, with just the
  // instance and the error.
  util::Result<InstanceRecord> spawn_and_wait(
      PiMaster::SpawnSpec spec,
      sim::Duration max = sim::Duration::seconds(300));
  util::Status delete_and_wait(const std::string& name,
                               sim::Duration max = sim::Duration::seconds(60));
  MigrationReport migrate_and_wait(
      const std::string& name, const std::string& to, bool live,
      sim::Duration max = sim::Duration::seconds(600));
  // --- Fault schedule points (DESIGN.md §13) -------------------------------------
  // Schedules `fault` (e.g. a daemon crash or link blip) to be applied
  // `delay` from now, routed through the simulation's SchedulePoint hub: in
  // a default run it fires exactly at now+delay; under a model-checking
  // strategy it becomes a parked kFault action the explorer can reorder
  // against in-flight deliveries. `label` must be stable across episodes;
  // faults are treated as dependent with every other action.
  void schedule_fault(sim::Duration delay, std::string label,
                      std::function<void()> fault);

  // Renders the control panel dashboard over REST.
  util::Result<std::string> dashboard(
      sim::Duration max = sim::Duration::seconds(30));
  // GET /metrics from the pimaster over REST: the full registry snapshot.
  util::Result<util::Json> metrics_snapshot(
      sim::Duration max = sim::Duration::seconds(30));

 private:
  void build();

  sim::Simulation& sim_;
  PiCloudConfig config_;

  std::unique_ptr<net::Fabric> fabric_;
  // Declared before the network, which cancels its flows through the
  // fabric's routing provider when destroyed.
  std::unique_ptr<net::SdnController> sdn_;
  std::unique_ptr<net::Network> network_;
  net::Topology topology_;

  hw::MachineRoom machine_room_;
  hw::PowerDistributionBoard power_board_;
  std::vector<std::unique_ptr<hw::Device>> devices_;   // index = host index
  std::unique_ptr<hw::Device> master_device_;
  std::vector<std::unique_ptr<os::NodeOs>> node_oses_;
  std::vector<std::unique_ptr<NodeDaemon>> daemons_;

  std::unique_ptr<PiMaster> master_;
  std::unique_ptr<ControlPanel> panel_;
  std::vector<std::unique_ptr<GossipAgent>> gossip_;  // index = host index
  std::unique_ptr<Autopilot> autopilot_;
  bool powered_ = false;
};

}  // namespace picloud::cloud
