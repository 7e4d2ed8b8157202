// SDN playground — program the OpenFlow aggregation layer by hand.
//
// Demonstrates the "fully programmable" topology of §II-A: inspect
// equal-cost paths, pin a tenant's traffic to a chosen root with an
// administrative rule, break a link and watch reactive re-routing, and
// read the controller's counters throughout.
//
//   $ ./build/examples/sdn_playground
#include <cstdio>
#include <vector>

#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"

using namespace picloud;

namespace {

void print_stats(const char* when, const sim::Simulation& sim,
                 const net::SdnController& controller) {
  const util::MetricsRegistry& m = sim.metrics();
  std::printf("  [%s] packet-ins=%llu hits=%llu installed=%llu evicted=%llu "
              "rules=%zu\n",
              when,
              static_cast<unsigned long long>(
                  m.counter_value("net.sdn.packet_ins")),
              static_cast<unsigned long long>(
                  m.counter_value("net.sdn.table_hits")),
              static_cast<unsigned long long>(
                  m.counter_value("net.sdn.rules_installed")),
              static_cast<unsigned long long>(
                  m.counter_value("net.sdn.rules_evicted")),
              controller.total_rules());
}

std::string path_string(const net::Fabric& fabric,
                        const std::vector<net::LinkId>& path) {
  if (path.empty()) return "(none)";
  std::string out = fabric.node(fabric.link(path[0]).from).name;
  for (net::LinkId lid : path) {
    out += " > " + fabric.node(fabric.link(lid).to).name;
  }
  return out;
}

}  // namespace

int main() {
  sim::Simulation sim(3);
  net::Fabric fabric(sim);
  net::Topology topo =
      net::build_multi_root_tree(fabric, net::MultiRootTreeConfig{});
  net::SdnController controller(sim, net::SdnPolicy::kEcmp);
  fabric.set_routing(&controller);

  net::NetNodeId src = topo.hosts[0];   // pi-r0-00
  net::NetNodeId dst = topo.hosts[55];  // pi-r3-13

  std::printf("1. Path diversity between %s and %s:\n",
              fabric.node(src).name.c_str(), fabric.node(dst).name.c_str());
  auto paths = fabric.equal_cost_paths(src, dst);
  for (const auto& path : paths) {
    std::printf("   %s\n", path_string(fabric, path).c_str());
  }

  std::printf("\n2. Reactive flow setup (packet-in -> rules):\n");
  net::FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.bytes = 1e6;
  net::FlowId flow = fabric.start_flow(std::move(spec));
  std::printf("   chosen: %s\n",
              path_string(fabric, fabric.flow_path(flow)).c_str());
  print_stats("after first flow", sim, controller);
  sim.run();

  std::printf("\n3. Administrative pinning (policy override):\n");
  // Pin the pair to the OTHER root.
  std::vector<net::LinkId> chosen;
  controller.route(fabric, src, dst, 0, &chosen);
  size_t other = paths[0] == chosen ? 1 : 0;
  controller.install_path(fabric, src, dst, paths[other]);
  net::FlowSpec pinned;
  pinned.src = src;
  pinned.dst = dst;
  pinned.bytes = 1e6;
  net::FlowId pinned_flow = fabric.start_flow(std::move(pinned));
  std::printf("   pinned:  %s\n",
              path_string(fabric, fabric.flow_path(pinned_flow)).c_str());
  print_stats("after pinning", sim, controller);
  sim.run();

  std::printf("\n4. Failure reaction:\n");
  // Kill the link the pinned path uses at the ToR.
  net::LinkId broken = paths[other][1];
  std::printf("   cutting %s\n",
              path_string(fabric, {broken}).c_str());
  fabric.set_link_pair_up(broken, false);
  net::FlowSpec retry;
  retry.src = src;
  retry.dst = dst;
  retry.bytes = 1e6;
  net::FlowId retry_flow = fabric.start_flow(std::move(retry));
  std::printf("   rerouted: %s\n",
              path_string(fabric, fabric.flow_path(retry_flow)).c_str());
  print_stats("after failure", sim, controller);
  fabric.set_link_pair_up(broken, true);
  sim.run();

  std::printf("\n5. Idle rule eviction (30 s timeout):\n");
  sim.run_until(sim.now() + sim::Duration::seconds(60));
  controller.evict_idle(sim.now());
  print_stats("after 60 s idle", sim, controller);

  return 0;
}
