// Live migration & consolidation — the paper's §III power story: pack a
// half-idle cloud onto fewer Pis with live migration while a web workload
// keeps serving, then compare the socket-board draw.
//
//   $ ./build/examples/live_migration
#include <cstdio>

#include <algorithm>
#include <map>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/strings.h"

using namespace picloud;

int main() {
  sim::Simulation sim(11);
  cloud::PiCloudConfig config;
  config.placement_policy = "round-robin";  // start spread out (worst case)
  cloud::PiCloud cloud(sim, config);
  cloud.power_on();
  if (!cloud.await_ready()) return 1;
  cloud.run_for(sim::Duration::seconds(5));

  // 12 lightly-loaded web instances spread over 12 Pis.
  std::vector<net::Ipv4Addr> tier;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    auto record = cloud.spawn_and_wait(
        {.name = util::format("svc-%02d", i), .app_kind = "httpd"});
    if (!record.ok()) return 1;
    tier.push_back(record.value().ip);
    names.push_back(record.value().name);
  }
  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 36;  // 3 req/s each: mostly idle
  apps::HttpLoadGen clients(cloud.network(), cloud.admin_ip(), tier, load,
                            util::Rng(9));
  clients.start();
  cloud.run_for(sim::Duration::seconds(10));

  auto hosting_nodes = [&]() {
    std::map<std::string, int> nodes;
    for (const auto& [name, record] : cloud.master().instance_records()) {
      nodes[record.hostname]++;
    }
    return nodes;
  };
  std::printf("before consolidation: %zu nodes host the tier, %.1f W\n",
              hosting_nodes().size(), cloud.current_power_watts());

  // Consolidate: ask the pimaster to re-pack every instance with best-fit.
  (void)cloud.master().set_policy("best-fit");
  int moved = 0;
  double total_downtime = 0;
  for (const auto& name : names) {
    auto record = cloud.master().instance(name);
    if (!record.ok()) continue;
    // Let the policy pick a destination; skip if it keeps the placement.
    auto report = cloud.migrate_and_wait(name, "", /*live=*/true);
    if (report.success) {
      ++moved;
      total_downtime += report.downtime.to_seconds();
      std::printf("  moved %-8s %s -> %s (blackout %.0f ms, %d rounds)\n",
                  name.c_str(), report.from.c_str(), report.to.c_str(),
                  report.downtime.to_seconds() * 1000, report.precopy_rounds);
    }
  }
  cloud.run_for(sim::Duration::seconds(10));
  clients.stop();

  auto nodes_after = hosting_nodes();
  std::printf("\nafter consolidation: %zu nodes host the tier, %.1f W\n",
              nodes_after.size(), cloud.current_power_watts());
  std::printf("migrations: %d moved, cumulative blackout %.2f s\n", moved,
              total_downtime);
  std::printf("service during the whole exercise: %llu ok, %llu lost "
              "(%.2f%%)\n",
              static_cast<unsigned long long>(clients.completed()),
              static_cast<unsigned long long>(clients.timed_out()),
              100.0 * clients.timed_out() /
                  std::max<std::uint64_t>(clients.sent(), 1));
  std::printf("\nIn a full deployment the vacated Pis would now be powered\n"
              "down; on the PiCloud that is a switch on the socket board —\n"
              "and the panel shows which rows went quiet.\n");
  return 0;
}
