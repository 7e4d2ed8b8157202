// Chaos soak: two simulated hours of mixed workload under aggressive node
// crashes, link flaps and lossy-link degradation, then convergence checks —
// every ReplicaSet back at target size, no duplicate containers anywhere,
// no "running" record pointing at a dead node, no leaked migrations — and
// the whole run must be bit-reproducible (same seed => same digest).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "apps/loadgen.h"
#include "cloud/chaos.h"
#include "cloud/cloud.h"
#include "cloud/replicaset.h"
#include "util/fnv.h"

namespace picloud {
namespace {

using cloud::ChaosMonkey;
using cloud::PiCloud;
using cloud::PiCloudConfig;

std::uint64_t run_soak(std::uint64_t seed) {
  sim::Simulation sim(seed);
  PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  config.placement_policy = "round-robin";
  PiCloud cloud(sim, config);
  cloud.power_on();
  EXPECT_TRUE(cloud.await_ready());
  cloud.run_for(sim::Duration::seconds(5));

  // Mixed workload: a web tier under HTTP load plus a kv tier, both
  // self-healing, plus control-plane churn injected during the soak below.
  cloud::ReplicaSet::Config web_config;
  web_config.name_prefix = "web";
  web_config.replicas = 3;
  web_config.spec.app_kind = "httpd";
  cloud::ReplicaSet web(sim, cloud.master(), web_config);
  cloud::ReplicaSet::Config kv_config;
  kv_config.name_prefix = "kv";
  kv_config.replicas = 2;
  kv_config.spec.app_kind = "kvstore";
  cloud::ReplicaSet kv(sim, cloud.master(), kv_config);
  apps::HttpLoadGen::Params load;
  load.requests_per_sec = 20;
  load.request_timeout = sim::Duration::seconds(1);
  apps::HttpLoadGen gen(cloud.network(), cloud.admin_ip(), {}, load,
                        sim.rng().fork());
  web.set_on_change([&]() { gen.set_targets(web.endpoints()); });
  web.start();
  kv.start();
  EXPECT_TRUE(cloud.run_until(sim::Duration::seconds(300), [&]() {
    return web.healthy_replicas() == 3 && kv.healthy_replicas() == 2;
  }));
  gen.set_targets(web.endpoints());
  gen.start();

  // Aggressive chaos on every axis: crashes, ToR-uplink flaps and lossy
  // periods that also eat control-plane datagrams.
  ChaosMonkey::Config chaos_config;
  chaos_config.node_mtbf = sim::Duration::minutes(20);
  chaos_config.node_mttr = sim::Duration::minutes(2);
  chaos_config.link_mtbf = sim::Duration::minutes(30);
  chaos_config.link_mttr = sim::Duration::seconds(30);
  chaos_config.loss_mtbf = sim::Duration::minutes(15);
  chaos_config.loss_mttr = sim::Duration::minutes(1);
  chaos_config.loss_rate = 0.05;
  ChaosMonkey chaos(sim, cloud.fabric(), chaos_config, util::Rng(seed * 2 + 1));
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    chaos.add_node(&cloud.daemon(i));
  }
  for (net::NetNodeId tor : cloud.topology().tor_switches) {
    for (net::LinkId lid : cloud.fabric().node(tor).out_links) {
      if (cloud.fabric().node(cloud.fabric().link(lid).to).kind ==
          net::NodeKind::kSwitch) {
        chaos.add_link(lid);
      }
    }
  }
  chaos.start();

  // Two simulated hours, with a control-plane operation every chunk so
  // migrations and deletes race the chaos (failures are expected and must
  // be absorbed, not leak state).
  std::uint64_t migrations_tried = 0;
  for (int chunk = 0; chunk < 16; ++chunk) {
    cloud.run_for(sim::Duration::minutes(7) + sim::Duration::seconds(30));
    std::string victim = (chunk % 2 == 0) ? "web-0" : "kv-1";
    cloud.master().migrate_instance(victim, "", /*live=*/true,
                                    [](const cloud::MigrationReport&) {});
    ++migrations_tried;
  }
  chaos.stop();
  gen.stop();
  EXPECT_GT(sim.metrics().counter_value("cloud.chaos.node_crashes"), 3u);
  EXPECT_GT(sim.metrics().counter_value("cloud.chaos.loss_onsets"), 0u);

  // Convergence: whatever the monkey did, the tiers self-heal back to
  // target and the registry agrees with reality.
  EXPECT_TRUE(cloud.run_until(sim::Duration::minutes(15), [&]() {
    return web.healthy_replicas() == 3 && kv.healthy_replicas() == 2 &&
           cloud.master().migrations().in_flight() == 0;
  })) << "web=" << web.healthy_replicas() << " kv=" << kv.healthy_replicas()
      << " inflight=" << cloud.master().migrations().in_flight();
  // One more reconciler generation so orphan strikes can mature.
  cloud.run_for(sim::Duration::minutes(2));

  // No container name exists twice anywhere in the fleet.
  std::map<std::string, int> live;
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    if (!cloud.node(i).running()) continue;
    for (const auto& c : cloud.node(i).containers()) {
      if (c->state() == os::ContainerState::kRunning ||
          c->state() == os::ContainerState::kFrozen) {
        ++live[c->name()];
      }
    }
  }
  for (const auto& [name, count] : live) {
    EXPECT_EQ(count, 1) << "duplicate container " << name;
  }
  // No "running" record points at a dead node or a missing container.
  for (const auto& [name, record] : cloud.master().instance_records()) {
    if (record.state != "running") continue;
    cloud::NodeDaemon* host = cloud.daemon_by_hostname(record.hostname);
    EXPECT_NE(host, nullptr) << record.name;
    if (host == nullptr) continue;
    EXPECT_TRUE(host->node().running())
        << record.name << " recorded running on dead " << record.hostname;
    EXPECT_NE(host->node().find_container(record.name), nullptr)
        << record.name << " recorded on " << record.hostname
        << " but no container there";
  }

  util::Fnv1a d;
  d.add(sim.events_executed());
  d.add(static_cast<std::uint64_t>(sim.now().ns()));
  d.add(gen.sent());
  d.add(gen.completed());
  d.add(gen.timed_out());
  d.add(cloud.energy_kwh());
  d.add(migrations_tried);
  // Every registry series: chaos, migration, reconciler, retry and the rest.
  d.add(sim.metrics().snapshot().dump());
  for (const auto& [name, record] : cloud.master().instance_records()) {
    d.add(record.name);
    d.add(record.state);
    d.add(record.hostname);
    d.add(static_cast<std::uint64_t>(record.ip.value()));
  }
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    d.add(cloud.node(i).hostname());
    d.add(static_cast<std::uint64_t>(cloud.node(i).running() ? 1 : 0));
    d.add(static_cast<std::uint64_t>(cloud.node(i).stats().mem_used));
  }
  return d.value();
}

// The soak is also the repo's heaviest determinism witness: a two-hour
// chaos run repeated with the same seed must produce the same digest bit
// for bit (retry backoff jitter, chaos draws, loss drops and all).
TEST(ChaosSoak, TwoHoursOfChaosConvergesAndIsReproducible) {
  std::uint64_t first = run_soak(2026);
  std::uint64_t second = run_soak(2026);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace picloud
