// Web-service farm — the paper's "public website hosting" motivation.
//
// Builds a replicated web tier spread across racks (anti-affinity via
// worst-fit placement), serves a rising tide of clients, then cuts a ToR
// uplink mid-run and watches the SDN controller re-route around the failure
// while service continues.
//
//   $ ./build/examples/webservice_farm
#include <cstdio>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/strings.h"

using namespace picloud;

int main() {
  sim::Simulation sim(2026);
  cloud::PiCloudConfig config;
  config.placement_policy = "worst-fit";  // spread replicas across the fleet
  config.sdn_policy = net::SdnPolicy::kLeastCongested;
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  if (!cloud.await_ready()) return 1;
  cloud.run_for(sim::Duration::seconds(5));

  // An 8-replica web tier, two per rack (failure-domain anti-affinity: the
  // rack pin overrides the policy's hostname-ordered tie-break).
  std::vector<net::Ipv4Addr> tier;
  for (int i = 0; i < 8; ++i) {
    auto record = cloud.spawn_and_wait({.name = util::format("frontend-%d", i),
                                        .app_kind = "httpd",
                                        .rack_affinity = i % 4});
    if (!record.ok()) {
      std::printf("spawn failed: %s\n", record.error().message.c_str());
      return 1;
    }
    tier.push_back(record.value().ip);
    std::printf("frontend-%d -> %s (%s)\n", i,
                record.value().hostname.c_str(),
                record.value().ip.to_string().c_str());
  }

  // The load balancer is the client-side rotation (round-robin across the
  // tier), as small sites actually run.
  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 100;
  load.request_timeout = sim::Duration::seconds(2);
  apps::HttpLoadGen clients(cloud.network(), cloud.admin_ip(), tier, load,
                            util::Rng(5));
  clients.start();

  std::printf("\n%8s %10s %10s %10s %12s\n", "t (s)", "served", "p50 ms",
              "p99 ms", "lost");
  std::uint64_t last_completed = 0;
  auto report = [&](int t) {
    std::printf("%8d %10llu %10.2f %10.2f %12llu\n", t,
                static_cast<unsigned long long>(clients.completed() -
                                                last_completed),
                clients.latencies().median(), clients.latencies().p99(),
                static_cast<unsigned long long>(clients.timed_out()));
    last_completed = clients.completed();
  };

  cloud.run_for(sim::Duration::seconds(10));
  report(10);

  // Disaster: rack 0 loses one of its two aggregation uplinks.
  const net::Topology& topo = cloud.topology();
  net::NetNodeId tor0 = topo.tor_switches[0];
  net::LinkId uplink = net::kInvalidLink;
  for (net::LinkId lid : cloud.fabric().node(tor0).out_links) {
    if (cloud.fabric().node(cloud.fabric().link(lid).to).kind ==
        net::NodeKind::kSwitch) {
      uplink = lid;
      break;
    }
  }
  std::printf("\n  !! cutting %s -> %s\n",
              cloud.fabric().node(tor0).name.c_str(),
              cloud.fabric().node(cloud.fabric().link(uplink).to).name.c_str());
  cloud.fabric().set_link_pair_up(uplink, false);

  cloud.run_for(sim::Duration::seconds(10));
  report(20);

  std::printf("\n  !! repairing the uplink\n");
  cloud.fabric().set_link_pair_up(uplink, true);
  cloud.run_for(sim::Duration::seconds(10));
  report(30);
  clients.stop();

  if (cloud.sdn() != nullptr) {
    const util::MetricsRegistry& m = sim.metrics();
    std::printf("\nSDN controller: %llu packet-ins, %llu rules installed, "
                "%llu table hits\n",
                static_cast<unsigned long long>(
                    m.counter_value("net.sdn.packet_ins")),
                static_cast<unsigned long long>(
                    m.counter_value("net.sdn.rules_installed")),
                static_cast<unsigned long long>(
                    m.counter_value("net.sdn.table_hits")));
  }
  std::printf("service survived the uplink failure: %s\n",
              clients.timed_out() < clients.sent() / 20 ? "yes" : "no");
  return 0;
}
