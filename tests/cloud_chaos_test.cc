// Chaos + trace tests: failure/repair cycling, availability of a replicated
// tier under churn, diurnal profile shape, trace recording.
#include <gtest/gtest.h>

#include "apps/trace.h"
#include "cloud/chaos.h"
#include "cloud/cloud.h"
#include "cloud/replicaset.h"
#include "util/strings.h"

namespace picloud {
namespace {

using cloud::ChaosMonkey;
using cloud::PiCloud;
using cloud::PiCloudConfig;

TEST(Chaos, NodesCrashAndRecoverWithReRegistration) {
  sim::Simulation sim(41);
  PiCloudConfig config;
  config.racks = 2;
  config.hosts_per_rack = 4;
  PiCloud cloud(sim, config);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  cloud.run_for(sim::Duration::seconds(5));

  ChaosMonkey::Config chaos_config;
  chaos_config.node_mtbf = sim::Duration::minutes(5);  // aggressive
  chaos_config.node_mttr = sim::Duration::minutes(1);
  ChaosMonkey chaos(sim, cloud.fabric(), chaos_config, util::Rng(9));
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    chaos.add_node(&cloud.daemon(i));
  }
  chaos.start();
  cloud.run_for(sim::Duration::minutes(60));
  chaos.stop();

  EXPECT_GT(sim.metrics().counter_value("cloud.chaos.node_crashes"), 5u);
  EXPECT_GT(sim.metrics().counter_value("cloud.chaos.node_repairs"), 3u);
  // Let in-flight repairs land, then the whole fleet should be back.
  cloud.run_for(sim::Duration::minutes(5));
  int registered = 0;
  for (size_t i = 0; i < cloud.node_count(); ++i) {
    if (cloud.daemon(i).registered()) ++registered;
  }
  EXPECT_GE(registered, static_cast<int>(cloud.node_count()) -
                            static_cast<int>(chaos.nodes_down()));
}

TEST(Chaos, ReplicaSetKeepsServiceAliveUnderChurn) {
  // Same churn, two deployments: a self-healing 4-replica set keeps
  // serving; a bare single instance dies with its first node and stays
  // dead (nothing replaces it).
  auto run = [](int replicas, bool self_heal) {
    sim::Simulation sim(43);
    PiCloudConfig config;
    config.racks = 2;
    config.hosts_per_rack = 4;
    config.placement_policy = "round-robin";
    PiCloud cloud(sim, config);
    cloud.power_on();
    cloud.await_ready();
    cloud.run_for(sim::Duration::seconds(5));

    cloud::ReplicaSet::Config rs_config;
    rs_config.name_prefix = "web";
    rs_config.replicas = replicas;
    rs_config.spec.app_kind = "httpd";
    cloud::ReplicaSet tier(sim, cloud.master(), rs_config);
    apps::HttpLoadGen::Params load;
    load.requests_per_sec = 40;
    load.request_timeout = sim::Duration::seconds(1);
    apps::HttpLoadGen gen(cloud.network(), cloud.admin_ip(), {}, load,
                          util::Rng(3));
    tier.set_on_change([&]() { gen.set_targets(tier.endpoints()); });
    tier.start();
    cloud.run_until(sim::Duration::seconds(120), [&]() {
      return tier.healthy_replicas() == static_cast<size_t>(replicas);
    });
    gen.set_targets(tier.endpoints());
    gen.start();
    if (!self_heal) tier.stop();  // deploy-and-forget

    ChaosMonkey::Config chaos_config;
    chaos_config.node_mtbf = sim::Duration::minutes(10);
    chaos_config.node_mttr = sim::Duration::minutes(2);
    ChaosMonkey chaos(sim, cloud.fabric(), chaos_config, util::Rng(11));
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      chaos.add_node(&cloud.daemon(i));
    }
    chaos.start();
    cloud.run_for(sim::Duration::minutes(30));
    chaos.stop();
    gen.stop();
    return 1.0 - static_cast<double>(gen.timed_out()) /
                     std::max<std::uint64_t>(gen.sent(), 1);
  };
  double fire_and_forget = run(1, false);
  double self_healing = run(4, true);
  EXPECT_GT(self_healing, fire_and_forget);
  EXPECT_GT(self_healing, 0.9);
}

TEST(Chaos, LinkFlapsAreRepaired) {
  sim::Simulation sim(47);
  net::Fabric fabric(sim);
  net::Topology topo =
      net::build_multi_root_tree(fabric, net::MultiRootTreeConfig{});
  ChaosMonkey::Config config;
  config.link_mtbf = sim::Duration::minutes(2);
  config.link_mttr = sim::Duration::seconds(20);
  ChaosMonkey chaos(sim, fabric, config, util::Rng(5));
  // Flap the ToR uplinks.
  for (net::NetNodeId tor : topo.tor_switches) {
    for (net::LinkId lid : fabric.node(tor).out_links) {
      if (fabric.node(fabric.link(lid).to).kind == net::NodeKind::kSwitch) {
        chaos.add_link(lid);
      }
    }
  }
  chaos.start();
  sim.run_until(sim.now() + sim::Duration::minutes(60));
  chaos.stop();
  const util::MetricsRegistry& m = sim.metrics();
  EXPECT_GT(m.counter_value("cloud.chaos.link_cuts"), 5u);
  EXPECT_GT(m.counter_value("cloud.chaos.link_repairs"), 5u);
  // The live down/lossy sets reconcile with the cumulative counters.
  EXPECT_EQ(chaos.links_down(),
            m.counter_value("cloud.chaos.link_cuts") -
                m.counter_value("cloud.chaos.link_repairs"));
  EXPECT_EQ(chaos.links_lossy(),
            m.counter_value("cloud.chaos.loss_onsets") -
                m.counter_value("cloud.chaos.loss_clears"));
  // Multi-root redundancy: even with one uplink down per rack, hosts reach
  // each other (only total-rack isolation would break this).
  sim.run_until(sim.now() + sim::Duration::minutes(2));
}

TEST(Diurnal, ProfilePeaksAtTheRightHour) {
  apps::DiurnalProfile::Params params;
  params.base_rps = 10;
  params.peak_rps = 100;
  params.peak_hour = 14;
  params.noise = 0;
  params.flash_per_day = 0;
  apps::DiurnalProfile profile(params, util::Rng(1));
  profile.advance(sim::SimTime::zero() + sim::Duration::minutes(360));
  EXPECT_FALSE(profile.in_flash());  // flash_per_day = 0: never in flash
  auto at_hour = [&](double h) {
    return profile.rate_at(sim::SimTime::from_ns(
        static_cast<std::int64_t>(h * 3600.0 * 1e9)));
  };
  EXPECT_NEAR(at_hour(14), 100, 1e-6);   // peak
  EXPECT_NEAR(at_hour(2), 10, 0.5);      // overnight floor
  EXPECT_GT(at_hour(11), at_hour(7));    // morning ramp
  EXPECT_GT(at_hour(14), at_hour(20));   // evening decline
}

TEST(Diurnal, FlashCrowdsMultiplyTheRate) {
  apps::DiurnalProfile::Params params;
  params.base_rps = 50;
  params.peak_rps = 50;  // flat, isolate the flash effect
  params.noise = 0;
  params.flash_per_day = 1e6;  // certain on first advance
  params.flash_multiplier = 4;
  params.flash_duration = sim::Duration::minutes(10);
  apps::DiurnalProfile profile(params, util::Rng(2));
  sim::SimTime t = sim::SimTime::zero() + sim::Duration::minutes(30);
  profile.advance(t);
  EXPECT_TRUE(profile.in_flash());
  EXPECT_NEAR(profile.rate_at(t), 200, 1e-6);
  sim::SimTime later = t + sim::Duration::minutes(11);
  EXPECT_NEAR(profile.rate_at(later), 50, 1e-6);  // flash expired
}

TEST(TraceRecorder, SamplesGaugesOnSchedule) {
  sim::Simulation sim(1);
  apps::TraceRecorder recorder(sim, sim::Duration::seconds(10));
  double value = 1;
  recorder.add_gauge("x", [&]() { return value; });
  recorder.add_gauge("twice", [&]() { return 2 * value; });
  recorder.start();
  sim.run_until(sim.now() + sim::Duration::seconds(5));
  value = 7;
  sim.run_until(sim.now() + sim::Duration::seconds(10));
  recorder.stop();
  ASSERT_GE(recorder.rows().size(), 2u);
  EXPECT_EQ(recorder.rows()[0].values.at("x"), 1);
  EXPECT_EQ(recorder.rows()[1].values.at("x"), 7);
  EXPECT_EQ(recorder.rows()[1].values.at("twice"), 14);
  EXPECT_NE(recorder.render().find("twice"), std::string::npos);
}

TEST(TracePlayer, DrivesGeneratorRate) {
  sim::Simulation sim(3);
  net::Fabric fabric(sim);
  net::Network network(sim, fabric);
  net::Topology topo = net::build_single_rack(fabric, 2);
  net::Ipv4Addr client(10, 0, 0, 200);
  network.bind_ip(client, topo.internet);
  apps::HttpLoadGen gen(network, client, {}, {}, util::Rng(1));

  apps::DiurnalProfile::Params params;
  params.base_rps = 5;
  params.peak_rps = 50;
  params.peak_hour = 0;  // peak at t=0
  params.noise = 0;
  params.flash_per_day = 0;
  apps::TracePlayer player(sim, gen,
                           apps::DiurnalProfile(params, util::Rng(2)),
                           sim::Duration::minutes(10));
  player.start();
  sim.run_until(sim.now() + sim::Duration::minutes(1));
  EXPECT_NEAR(player.current_rps(), 50, 1);  // at the peak
  sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(12 * 3600));
  EXPECT_NEAR(player.current_rps(), 5, 1);   // twelve hours later: floor
  player.stop();
}

}  // namespace
}  // namespace picloud
