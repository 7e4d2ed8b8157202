#include "testing/runner.h"

#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "apps/lb.h"
#include "apps/loadgen.h"
#include "cloud/replicaset.h"
#include "net/fabric.h"
#include "os/node_os.h"
#include "util/check.h"
#include "util/fnv.h"

namespace picloud::testing {

namespace {

// Scenario-specific probe: the load generator's latency histogram must
// record exactly one sample per completed request, every arrival must be
// accounted exactly once, and client-side retries must stay inside the
// token-bucket budget (metrics consistency for the data path).
InvariantChecker::Probe probe_loadgen_accounting(
    const apps::HttpLoadGen& gen, int index) {
  return [&gen, index](const InvariantChecker::FailFn& fail) {
    if (gen.latencies().count() != gen.completed()) {
      std::ostringstream msg;
      msg << "loadgen " << index << ": histogram count "
          << gen.latencies().count() << " != completed " << gen.completed();
      fail(msg.str());
    }
    const std::uint64_t accounted = gen.completed() + gen.failed() +
                                    gen.timed_out() + gen.breaker_rejected() +
                                    gen.in_flight();
    if (gen.arrivals() != accounted) {
      std::ostringstream msg;
      msg << "loadgen " << index << ": arrivals " << gen.arrivals()
          << " != accounted " << accounted << " (completed "
          << gen.completed() << " failed " << gen.failed() << " timed_out "
          << gen.timed_out() << " rejected " << gen.breaker_rejected()
          << " in_flight " << gen.in_flight() << ")";
      fail(msg.str());
    }
    if (!gen.retry_budget().bounded(gen.attempts_sent())) {
      std::ostringstream msg;
      msg << "loadgen " << index << ": " << gen.attempts_sent()
          << " attempts for " << gen.sent() << " requests and "
          << gen.retries() << " retries break the retry budget";
      fail(msg.str());
    }
  };
}

// Resolves the (single) LB instance of tier `name` to its app object, via
// the registry -> daemon -> container chain. Returns nullptr while the LB is
// respawning after churn — callers re-resolve on every endpoint change
// instead of caching an app pointer that migration would invalidate.
apps::LbApp* find_lb_app(cloud::PiCloud& cloud, const std::string& name) {
  auto record = std::as_const(cloud).master().instance(name);
  if (!record.ok()) return nullptr;
  cloud::NodeDaemon* daemon =
      cloud.daemon_by_hostname(record.value().hostname);
  if (daemon == nullptr || !daemon->node().running()) return nullptr;
  os::Container* c = daemon->node().find_container(name);
  if (c == nullptr || c->app() == nullptr || c->app()->kind() != "lb") {
    return nullptr;
  }
  return static_cast<apps::LbApp*>(c->app());
}

// Resolves the ToR uplink list (rack -> aggregation links) the chaos
// schedule's link targets index into, in deterministic topology order.
std::vector<net::LinkId> tor_uplinks(cloud::PiCloud& cloud) {
  std::vector<net::LinkId> uplinks;
  for (net::NetNodeId tor : cloud.topology().tor_switches) {
    for (net::LinkId lid : cloud.fabric().node(tor).out_links) {
      if (cloud.fabric().node(cloud.fabric().link(lid).to).kind ==
          net::NodeKind::kSwitch) {
        uplinks.push_back(lid);
      }
    }
  }
  return uplinks;
}

std::vector<net::LinkId> rack_uplinks(cloud::PiCloud& cloud, int rack) {
  std::vector<net::LinkId> uplinks;
  const auto& tors = cloud.topology().tor_switches;
  if (tors.empty()) return uplinks;
  net::NetNodeId tor = tors[static_cast<size_t>(rack) % tors.size()];
  for (net::LinkId lid : cloud.fabric().node(tor).out_links) {
    if (cloud.fabric().node(cloud.fabric().link(lid).to).kind ==
        net::NodeKind::kSwitch) {
      uplinks.push_back(lid);
    }
  }
  return uplinks;
}

void apply_chaos_event(cloud::PiCloud& cloud,
                       const std::vector<net::LinkId>& uplinks,
                       net::LinkId master_uplink, const ChaosEvent& e) {
  net::Fabric& fabric = cloud.fabric();
  switch (e.kind) {
    case ChaosKind::kNodeCrash: {
      cloud::NodeDaemon& d = cloud.daemon(
          static_cast<size_t>(e.target) % cloud.node_count());
      // Crashing an already-dead node (two pairs picked the same target)
      // would be a no-op anyway; the guard keeps trace output clean.
      if (d.node().running()) d.crash();
      break;
    }
    case ChaosKind::kNodeRestart:
      // start() is idempotent, so overlapping pairs heal safely.
      cloud.daemon(static_cast<size_t>(e.target) % cloud.node_count())
          .start();
      break;
    case ChaosKind::kLinkDown:
      if (!uplinks.empty()) {
        fabric.set_link_pair_up(
            uplinks[static_cast<size_t>(e.target) % uplinks.size()], false);
      }
      break;
    case ChaosKind::kLinkUp:
      if (!uplinks.empty()) {
        fabric.set_link_pair_up(
            uplinks[static_cast<size_t>(e.target) % uplinks.size()], true);
      }
      break;
    case ChaosKind::kLinkLossOn:
      if (!uplinks.empty()) {
        fabric.set_link_pair_loss(
            uplinks[static_cast<size_t>(e.target) % uplinks.size()],
            e.param);
      }
      break;
    case ChaosKind::kLinkLossOff:
      if (!uplinks.empty()) {
        fabric.set_link_pair_loss(
            uplinks[static_cast<size_t>(e.target) % uplinks.size()], 0.0);
      }
      break;
    case ChaosKind::kRackPartition:
      for (net::LinkId lid : rack_uplinks(cloud, e.target)) {
        fabric.set_link_pair_up(lid, false);
      }
      break;
    case ChaosKind::kRackHeal:
      for (net::LinkId lid : rack_uplinks(cloud, e.target)) {
        fabric.set_link_pair_up(lid, true);
      }
      break;
    case ChaosKind::kMasterBlipStart:
      fabric.set_link_pair_up(master_uplink, false);
      break;
    case ChaosKind::kMasterBlipEnd:
      fabric.set_link_pair_up(master_uplink, true);
      break;
  }
}

}  // namespace

std::uint64_t end_state_digest(sim::Simulation& sim, cloud::PiCloud& cloud) {
  util::Fnv1a d;
  d.add(sim.events_executed());
  d.add(static_cast<std::uint64_t>(sim.now().ns()));
  d.add(sim.metrics().snapshot().dump());
  for (const auto& [name, rec] :
       std::as_const(cloud).master().instance_records()) {
    d.add(name);
    d.add(rec.state);
    d.add(rec.hostname);
    d.add(rec.mem_reserved);
    d.add(static_cast<std::uint64_t>(rec.ip.value()));
  }
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    const os::NodeOs& node = std::as_const(cloud).node(i);
    d.add(node.hostname());
    d.add(static_cast<std::uint64_t>(node.running() ? 1 : 0));
    d.add(node.running() ? node.memory().used() : 0);
  }
  return d.value();
}

std::string RunReport::signature() const {
  if (!ready) return "boot";
  if (!violations.empty()) return "probe:" + violations.front().probe;
  if (!converged) return "converge";
  return "ok";
}

RunReport run_scenario(const Scenario& scenario) {
  RunReport report;
  report.seed = scenario.seed;

  sim::Simulation sim(scenario.seed);
  cloud::PiCloudConfig config;
  config.racks = scenario.racks;
  config.hosts_per_rack = scenario.hosts_per_rack;
  config.topology = scenario.topology == "fat-tree"
                        ? cloud::PiCloudConfig::Topo::kFatTree
                        : cloud::PiCloudConfig::Topo::kMultiRootTree;
  config.fat_tree_k = scenario.fat_tree_k;
  config.placement_policy = scenario.placement_policy;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  report.ready = cloud.await_ready();

  InvariantChecker checker(sim, cloud);
  checker.install_builtin_probes();

  auto finalize = [&](bool converged) {
    report.converged = converged;
    report.violations = checker.violations();
    report.sweeps = checker.sweeps();
    report.events = sim.events_executed();
    report.digest = end_state_digest(sim, cloud);
    if (report.failed()) {
      std::ostringstream out;
      out << "scenario seed=" << scenario.seed
          << " failed (signature=" << report.signature() << ")\n"
          << "  ready=" << report.ready << " converged=" << report.converged
          << " violations=" << report.violations.size() << "\n"
          << checker.report(scenario.seed) << "repro: "
          << scenario.repro_command() << "\n";
      report.summary = out.str();
    }
  };

  if (!report.ready) {
    finalize(false);
    return report;
  }
  cloud.run_for(sim::Duration::seconds(5));

  // --- Workload --------------------------------------------------------------
  std::vector<std::unique_ptr<cloud::ReplicaSet>> tiers;
  std::vector<std::unique_ptr<apps::HttpLoadGen>> loadgens;
  // Healthy-baseline bookkeeping covers backend AND lb tiers, so indices
  // into `tiers` no longer align with scenario.workloads.
  struct TierExpect {
    cloud::ReplicaSet* rs;
    int want;
  };
  std::vector<TierExpect> expected;
  for (size_t i = 0; i < scenario.workloads.size(); ++i) {
    const WorkloadSpec& w = scenario.workloads[i];
    cloud::ReplicaSet::Config rs;
    rs.name_prefix = "w" + std::to_string(i);
    rs.replicas = w.replicas;
    rs.spec.app_kind = w.app_kind;
    tiers.push_back(
        std::make_unique<cloud::ReplicaSet>(sim, cloud.master(), rs));
    cloud::ReplicaSet* tier = tiers.back().get();
    expected.push_back({tier, w.replicas});
    const bool loaded = w.app_kind == "httpd" && w.load_rps > 0;
    const bool fronted = loaded && w.lb;
    cloud::ReplicaSet* lb_tier = nullptr;
    std::string lb_name;
    if (fronted) {
      cloud::ReplicaSet::Config lbc;
      lbc.name_prefix = rs.name_prefix + "-lb";
      lbc.replicas = 1;
      lbc.spec.app_kind = "lb";
      tiers.push_back(
          std::make_unique<cloud::ReplicaSet>(sim, cloud.master(), lbc));
      lb_tier = tiers.back().get();
      expected.push_back({lb_tier, 1});
      lb_name = lbc.name_prefix + "-0";
    }
    if (loaded) {
      apps::HttpLoadGen::Params load;
      load.requests_per_sec = w.load_rps;
      load.request_timeout = sim::Duration::seconds(1);
      load.shape = w.traffic;
      loadgens.push_back(std::make_unique<apps::HttpLoadGen>(
          cloud.network(), cloud.admin_ip(), std::vector<net::Ipv4Addr>{},
          load, sim.rng().fork(),
          static_cast<std::uint16_t>(40080 + i)));
      apps::HttpLoadGen* gen = loadgens.back().get();
      if (fronted) {
        // Backend churn re-pushes the endpoint set into the LB; LB churn
        // re-targets the generator AND refreshes the (possibly freshly
        // respawned) LB's backends. The LB app is re-resolved on every fire
        // because respawn/migration moves the container.
        auto push_backends = [&cloud, tier, lb_name]() {
          if (apps::LbApp* lb = find_lb_app(cloud, lb_name)) {
            lb->set_backends(tier->endpoints());
          }
        };
        tier->set_on_change(push_backends);
        lb_tier->set_on_change([gen, lb_tier, push_backends]() {
          push_backends();
          gen->set_targets(lb_tier->endpoints());
        });
      } else {
        tier->set_on_change(
            [gen, tier]() { gen->set_targets(tier->endpoints()); });
      }
      checker.register_probe(
          "loadgen-accounting", Phase::kSweep,
          probe_loadgen_accounting(*gen,
                                   static_cast<int>(loadgens.size()) - 1));
    }
    tier->start();
    if (lb_tier != nullptr) lb_tier->start();
  }
  auto workloads_healthy = [&]() {
    for (const TierExpect& e : expected) {
      if (e.rs->healthy_replicas() != static_cast<size_t>(e.want)) {
        return false;
      }
    }
    return true;
  };
  if (!cloud.run_until(sim::Duration::seconds(300), workloads_healthy)) {
    report.ready = false;  // never reached a healthy baseline
    finalize(false);
    return report;
  }
  for (auto& gen : loadgens) gen->start();

  // --- Chaos window, with the checker sweeping throughout --------------------
  sim::Timer sweeper;
  sweeper.every(sim, scenario.sweep_period, [&checker]() { checker.sweep(); });
  const std::vector<net::LinkId> uplinks = tor_uplinks(cloud);
  // The pimaster's only uplink: first directed link out of its fabric node.
  const net::NetNodeId master_node = cloud.master().fabric_node();
  PICLOUD_CHECK(!cloud.fabric().node(master_node).out_links.empty());
  const net::LinkId master_uplink =
      cloud.fabric().node(master_node).out_links.front();
  for (const ChaosEvent& e : scenario.chaos) {
    sim.after(e.at, [&cloud, &uplinks, master_uplink, e]() {
      apply_chaos_event(cloud, uplinks, master_uplink, e);
    });
  }
  cloud.run_for(scenario.chaos_window);

  // --- Convergence + quiesce --------------------------------------------------
  const bool converged =
      cloud.run_until(scenario.settle_budget, [&]() {
        return workloads_healthy() &&
               cloud.master().migrations().in_flight() == 0;
      });
  for (auto& gen : loadgens) gen->stop();
  // Two reconciler generations so orphan/drift strikes mature and the
  // registry-agreement probe sees the settled registry.
  const sim::Duration generation =
      cloud.master().master_config().reconcile.period;
  cloud.run_for(generation + generation + sim::Duration::seconds(10));
  sweeper.cancel();
  if (converged) checker.run_quiesce();
  finalize(converged);
  return report;
}

}  // namespace picloud::testing
