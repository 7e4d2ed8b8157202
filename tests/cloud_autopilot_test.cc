// Autopilot (automated consolidation + power management) and the IP-less
// address-update modes of migration.
#include <gtest/gtest.h>

#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "cloud/replicaset.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace picloud::cloud {
namespace {

TEST(Autopilot, ConsolidatesSpreadInstancesAndParksNodes) {
  sim::Simulation sim(13);
  PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  config.placement_policy = "round-robin";  // start spread: 1 per node
  PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  cloud.run_for(sim::Duration::seconds(5));

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cloud.spawn_and_wait({.name = util::format("svc-%d", i),
                                      .app_kind = "httpd"})
                    .ok());
  }
  double watts_before = cloud.current_power_watts();

  // Switch the master to packing and let the autopilot work.
  ASSERT_TRUE(cloud.master().set_policy("best-fit").ok());
  Autopilot::Config auto_config;
  auto_config.evaluation_period = sim::Duration::seconds(10);
  auto_config.min_nodes_on = 2;
  Autopilot& autopilot = cloud.enable_autopilot(auto_config);
  cloud.run_for(sim::Duration::minutes(10));

  // The fleet shrank: several Pis are parked and drawing nothing.
  EXPECT_GE(autopilot.stats().nodes_powered_off, 4u);
  EXPECT_GT(autopilot.parked_nodes().size(), 3u);
  EXPECT_LT(cloud.current_power_watts(), watts_before - 5.0);
  // All four instances still run somewhere.
  int running = 0;
  for (const auto& [name, record] : cloud.master().instance_records()) {
    if (record.state == "running") ++running;
  }
  EXPECT_EQ(running, 4);
  // And the survivors live on few nodes.
  std::set<std::string> hosts;
  for (const auto& [name, record] : cloud.master().instance_records()) {
    hosts.insert(record.hostname);
  }
  EXPECT_LE(hosts.size(), 2u);
}

TEST(Autopilot, WakesParkedNodesUnderPressure) {
  sim::Simulation sim(17);
  PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = 4;
  config.placement_policy = "best-fit";
  PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  cloud.run_for(sim::Duration::seconds(5));

  Autopilot::Config auto_config;
  auto_config.evaluation_period = sim::Duration::seconds(5);
  auto_config.min_nodes_on = 1;
  auto_config.wake_cpu_threshold = 0.6;
  Autopilot& autopilot = cloud.enable_autopilot(auto_config);

  // Idle fleet: autopilot parks empty nodes down to the floor.
  cloud.run_for(sim::Duration::minutes(3));
  ASSERT_GE(autopilot.parked_nodes().size(), 3u);

  // Saturate the survivor.
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    if (!cloud.node(i).running()) continue;
    for (os::Container* c : cloud.node(i).containers()) {
      c->run_cpu(1e13, [](bool) {});
    }
    // Even with no containers: spin the node via a direct group.
    auto g = cloud.node(i).cpu().create_group();
    cloud.node(i).cpu().run(g, 1e13, [](bool) {});
  }
  cloud.run_for(sim::Duration::minutes(3));
  EXPECT_GE(autopilot.stats().nodes_powered_on, 1u);
  // A rewoken node re-registers with the master.
  auto summary = cloud.master().monitor().summary();
  EXPECT_GT(summary.nodes_alive, 1);
}

TEST(Autopilot, SloBurnWakesCapacityAndScalesTheTier) {
  sim::Simulation sim(19);
  PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = 5;
  config.placement_policy = "best-fit";
  PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  cloud.run_for(sim::Duration::seconds(5));

  ReplicaSet::Config rs;
  rs.name_prefix = "web";
  rs.replicas = 2;
  rs.spec.app_kind = "httpd";
  rs.reconcile_period = sim::Duration::seconds(5);
  ReplicaSet tier(sim, cloud.master(), rs);
  tier.start();
  ASSERT_TRUE(cloud.run_until(sim::Duration::minutes(5), [&]() {
    return tier.healthy_replicas() == 2;
  }));

  Autopilot::Config auto_config;
  auto_config.evaluation_period = sim::Duration::seconds(10);
  auto_config.min_nodes_on = 1;
  auto_config.slo_burn_counter = "apps.httpd.shed_admission";
  auto_config.slo_burn_threshold = 2.0;  // violations/sec
  Autopilot& autopilot = cloud.enable_autopilot(auto_config);
  // The scale-up hook widens the serving tier — the runbook reaction the
  // overload design calls for (shed requests are the SLO-burn signal).
  autopilot.set_scale_up_hook([&]() {
    if (tier.replicas() < 4) tier.set_replicas(tier.replicas() + 1);
  });

  // Idle fleet: with no burn, the autopilot parks spare capacity.
  cloud.run_for(sim::Duration::minutes(3));
  ASSERT_GE(autopilot.parked_nodes().size(), 1u);
  EXPECT_EQ(autopilot.stats().slo_scale_ups, 0u);
  std::size_t parked_before = autopilot.parked_nodes().size();

  // Burn the SLO: the metered shed counter (the same registry series the
  // httpd instances write through) grows past the threshold.
  util::Counter& sheds = sim.metrics().counter("apps.httpd.shed_admission");
  sim::Timer burner;
  burner.every(sim, sim::Duration::seconds(1), [&sheds]() { sheds.inc(50); });
  cloud.run_for(sim::Duration::minutes(2));
  burner.cancel();

  EXPECT_GE(autopilot.stats().slo_scale_ups, 1u);
  // Parked capacity was woken, and the hook grew the tier.
  EXPECT_LT(autopilot.parked_nodes().size(), parked_before);
  EXPECT_GT(tier.replicas(), 2);
  ASSERT_TRUE(cloud.run_until(sim::Duration::minutes(5), [&]() {
    return tier.healthy_replicas() ==
           static_cast<size_t>(tier.replicas());
  }));

  // Once the burn stops, no further scale-ups fire. (One more evaluation
  // may still see the final partial window's increments — let it flush.)
  cloud.run_for(sim::Duration::seconds(15));
  std::uint64_t scale_ups = autopilot.stats().slo_scale_ups;
  cloud.run_for(sim::Duration::minutes(2));
  EXPECT_EQ(autopilot.stats().slo_scale_ups, scale_ups);
}

TEST(Autopilot, SloBurnWindowOpensAtStart) {
  // Sheds counted before the autopilot was enabled are history, not burn:
  // the first window runs from start(), not from a zero count.
  sim::Simulation sim(19);
  PiCloudConfig config;
  config.racks = 1;
  config.hosts_per_rack = 3;
  PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  sim.metrics().counter("apps.httpd.shed_admission").inc(1000);

  Autopilot::Config auto_config;
  auto_config.evaluation_period = sim::Duration::seconds(10);
  auto_config.slo_burn_counter = "apps.httpd.shed_admission";
  auto_config.slo_burn_threshold = 2.0;  // violations/sec
  Autopilot& autopilot = cloud.enable_autopilot(auto_config);
  cloud.run_for(sim::Duration::seconds(25));  // two evaluations, no sheds
  EXPECT_EQ(autopilot.stats().evaluations, 2u);
  EXPECT_EQ(autopilot.stats().slo_scale_ups, 0u);
}

TEST(Migration, ArpConvergenceCostsMoreDowntimeThanSdnRedirect) {
  double downtime[2] = {0, 0};
  int i = 0;
  for (AddressUpdateMode mode : {AddressUpdateMode::kArpConvergence,
                                 AddressUpdateMode::kSdnRedirect}) {
    sim::Simulation sim(21);
    PiCloudConfig config;
    config.racks = 1;
    config.hosts_per_rack = 3;
    PiCloud cloud(sim, config);
    cloud.power_on();
    ASSERT_TRUE(cloud.await_ready());
    cloud.run_for(sim::Duration::seconds(5));
    auto web = cloud.spawn_and_wait(
        {.name = "web", .app_kind = "httpd", .hostname = "pi-r0-00"});
    ASSERT_TRUE(web.ok());

    MigrationParams params;
    params.instance = "web";
    params.from = "pi-r0-00";
    params.to = "pi-r0-01";
    params.live = true;
    params.address_update = mode;
    bool done = false;
    MigrationReport report;
    cloud.master().migrations().migrate(params,
                                        [&](const MigrationReport& r) {
                                          done = true;
                                          report = r;
                                        });
    cloud.run_until(sim::Duration::seconds(120), [&]() { return done; });
    ASSERT_TRUE(report.success) << report.error;
    downtime[i++] = report.downtime.to_seconds();
  }
  // ARP convergence adds ~500 ms of darkness; SDN redirect ~2 ms.
  EXPECT_GT(downtime[0], downtime[1] + 0.4);
}

TEST(Migration, ServiceLossDuringArpVsSdn) {
  std::uint64_t lost[2] = {0, 0};
  int i = 0;
  for (const char* mode : {"arp", "sdn"}) {
    sim::Simulation sim(23);
    PiCloudConfig config;
    config.racks = 1;
    config.hosts_per_rack = 3;
    PiCloud cloud(sim, config);
    cloud.power_on();
    ASSERT_TRUE(cloud.await_ready());
    cloud.run_for(sim::Duration::seconds(5));
    auto web = cloud.spawn_and_wait(
        {.name = "web", .app_kind = "httpd", .hostname = "pi-r0-00"});
    ASSERT_TRUE(web.ok());

    apps::HttpLoadGen::Params load;
    load.requests_per_sec = 100;
    load.request_timeout = sim::Duration::millis(400);
    apps::HttpLoadGen gen(cloud.network(), cloud.admin_ip(), {web.value().ip},
                          load, util::Rng(3));
    gen.start();
    cloud.run_for(sim::Duration::seconds(3));

    // Migrate over REST with the address-update mode in the body.
    util::Json body = util::Json::object();
    body.set("to", "pi-r0-01");
    body.set("live", true);
    body.set("address_update", mode);
    bool done = false;
    cloud.panel().client().call(
        cloud.master_ip(), PiMaster::kPort, proto::Method::kPost,
        "/instances/web/migrate", std::move(body),
        [&](util::Result<proto::HttpResponse> result) {
          done = true;
          ASSERT_TRUE(result.ok());
          EXPECT_TRUE(result.value().ok());
        },
        sim::Duration::seconds(120));
    cloud.run_until(sim::Duration::seconds(150), [&]() { return done; });
    cloud.run_for(sim::Duration::seconds(3));
    gen.stop();
    lost[i++] = gen.timed_out();
  }
  // The 500 ms dark window at 100 req/s loses a visible burst; the SDN
  // redirect loses almost nothing.
  EXPECT_GT(lost[0], lost[1]);
  EXPECT_GE(lost[0], 20u);
  EXPECT_LE(lost[1], 10u);
}

}  // namespace
}  // namespace picloud::cloud
