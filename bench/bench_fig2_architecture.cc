// Figure 2 — "System architecture".
//
// Regenerates the content of the architecture diagram: the canonical
// multi-root tree (56 Pis, 4 ToR switches, OpenFlow aggregation, university
// gateway, Internet), validates its connectivity, and quantifies it (hops,
// oversubscription, bisection bandwidth). Then performs the re-cabling the
// paper claims is easy — "the PiCloud clusters can easily be re-cabled to
// form a fat-tree topology" — and compares the two fabrics.
#include <cstdio>

#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"

using namespace picloud;

namespace {

void print_analysis(const char* label, net::Fabric& fabric,
                    const net::Topology& topo) {
  net::TopologyAnalysis a = net::analyze_topology(fabric, topo);
  std::printf("%-18s %5zu %8zu %7zu %8.2f %7d %8.2f %12.0f\n", label,
              topo.hosts.size(), a.switch_count, a.link_count, a.avg_hop_count,
              a.max_hop_count, a.oversubscription, a.bisection_bps / 1e6);
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("FIGURE 2 — System architecture (multi-root tree vs fat-tree)\n");
  std::printf("==============================================================\n\n");

  // --- The as-built topology ------------------------------------------------
  sim::Simulation sim(1);
  net::Fabric fabric(sim);
  net::Topology glasgow =
      net::build_multi_root_tree(fabric, net::MultiRootTreeConfig{});

  std::printf("As built (Fig. 2): %zu hosts in %d racks; ToR switches uplink\n",
              glasgow.hosts.size(), glasgow.rack_count());
  std::printf("to %zu OpenFlow aggregation roots; gateway to the Internet.\n\n",
              glasgow.agg_switches.size());

  // Structural walk matching the figure, top to bottom.
  std::printf("  internet <-> gateway: %s\n",
              fabric.shortest_path(glasgow.internet, glasgow.gateway).size() == 1
                  ? "direct link"
                  : "MISSING");
  for (net::NetNodeId agg : glasgow.agg_switches) {
    std::printf("  %s: uplink to gateway + %d ToR downlinks\n",
                fabric.node(agg).name.c_str(), glasgow.rack_count());
  }
  for (int r = 0; r < glasgow.rack_count(); ++r) {
    std::printf("  rack %d: %zu Pis behind %s\n", r,
                glasgow.hosts_in_rack(r).size(),
                fabric.node(glasgow.tor_switches[r]).name.c_str());
  }

  std::printf("\n%-18s %5s %8s %7s %8s %7s %8s %12s\n", "topology", "hosts",
              "switches", "links", "avg hop", "max hop", "oversub",
              "bisect Mb/s");
  print_analysis("multi-root-tree", fabric, glasgow);

  // --- The re-cabling ---------------------------------------------------------
  // k=6 fat-tree: 54 hosts from the same pool of boards (the two spares sit
  // out), uniform 100 Mb fabric links as the paper's switches provide.
  sim::Simulation sim2(1);
  net::Fabric fat_fabric(sim2);
  net::FatTreeConfig fat_config;
  fat_config.k = 6;
  net::Topology fat = net::build_fat_tree(fat_fabric, fat_config);
  print_analysis("fat-tree (k=6)", fat_fabric, fat);

  // Smaller fat-tree for reference.
  sim::Simulation sim3(1);
  net::Fabric fat4_fabric(sim3);
  net::FatTreeConfig fat4_config;
  fat4_config.k = 4;
  net::Topology fat4 = net::build_fat_tree(fat4_fabric, fat4_config);
  print_analysis("fat-tree (k=4)", fat4_fabric, fat4);

  // --- SDN readiness check ------------------------------------------------------
  // Install a controller on the as-built fabric and show the programmable
  // control plane reacting to a flow (packet-in -> rules).
  net::SdnController controller(sim, net::SdnPolicy::kEcmp);
  fabric.set_routing(&controller);
  net::FlowSpec spec;
  spec.src = glasgow.hosts[0];
  spec.dst = glasgow.hosts[55];
  spec.bytes = 1e6;
  fabric.start_flow(std::move(spec));
  std::printf("\nSDN control plane (OpenFlow aggregation):\n");
  std::printf("  packet-ins: %llu, rules installed: %llu, table rules: %zu\n",
              static_cast<unsigned long long>(
                  sim.metrics().counter_value("net.sdn.packet_ins")),
              static_cast<unsigned long long>(
                  sim.metrics().counter_value("net.sdn.rules_installed")),
              controller.total_rules());
  sim.run();

  net::TopologyAnalysis as_built = net::analyze_topology(fabric, glasgow);
  bool ok = as_built.fully_connected;
  std::printf("\nConnectivity: %s\n",
              ok ? "every host reaches every host and the Internet."
                 : "BROKEN");
  std::printf("Expected shape: fat-tree trades more switches for ~full "
              "bisection; the as-built tree is cheaper but oversubscribed at "
              "the aggregation layer.\n");
  return ok ? 0 : 1;
}
