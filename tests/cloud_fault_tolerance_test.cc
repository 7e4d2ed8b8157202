// Control-plane fault tolerance: migration crash injection (source and
// destination dying mid-flight), reconciler repair of registry drift
// (lost marking + orphan GC), and end-to-end idempotent spawns.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "cloud/replicaset.h"
#include "hw/device.h"
#include "net/topology.h"
#include "os/node_os.h"
#include "proto/dhcp.h"
#include "proto/rest.h"
#include "util/strings.h"

namespace picloud {
namespace {

using cloud::PiCloud;
using cloud::PiCloudConfig;
using util::Json;

class FaultCloud : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(29);
    PiCloudConfig config;
    config.racks = 2;
    config.hosts_per_rack = 3;
    cloud_ = std::make_unique<PiCloud>(*sim_, config);
    cloud_->power_on();
    ASSERT_TRUE(cloud_->await_ready());
    cloud_->run_for(sim::Duration::seconds(5));
  }

  // Spawns a kvstore pinned to `host` and loads `mb` megabytes into it so a
  // live migration has real memory to pre-copy.
  net::Ipv4Addr spawn_loaded_kv(const std::string& name,
                                const std::string& host, int mb) {
    auto record = cloud_->spawn_and_wait(
        {.name = name, .app_kind = "kvstore", .hostname = host});
    EXPECT_TRUE(record.ok()) << record.error().message;
    apps::KvClient kv(cloud_->network(), cloud_->admin_ip());
    int stored = 0;
    for (int i = 0; i < mb; ++i) {
      kv.put(record.value().ip, util::format("k%d", i), 1 << 20,
             [&](util::Result<apps::ServeReply> r) {
               if (r.ok() && r.value().ok.value_or(false)) ++stored;
             });
    }
    cloud_->run_until(sim::Duration::seconds(60),
                      [&]() { return stored == mb; });
    EXPECT_EQ(stored, mb);
    return record.value().ip;
  }

  // Caches the base image on `host` so a later migration's prepare phase is
  // fast (the destination doesn't pull 1.8 GB mid-test).
  void warm_image_cache(const std::string& host) {
    auto warm = cloud_->spawn_and_wait({.name = "warm-" + host,
                                        .app_kind = "",
                                        .hostname = host});
    ASSERT_TRUE(warm.ok()) << warm.error().message;
    ASSERT_TRUE(cloud_->delete_and_wait("warm-" + host).ok());
  }

  // Containers named `name` in a runnable state on powered-on nodes.
  int live_containers_named(const std::string& name) {
    int count = 0;
    for (size_t i = 0; i < cloud_->node_count(); ++i) {
      if (!cloud_->node(i).running()) continue;
      os::Container* c = cloud_->node(i).find_container(name);
      if (c != nullptr && (c->state() == os::ContainerState::kRunning ||
                           c->state() == os::ContainerState::kFrozen)) {
        ++count;
      }
    }
    return count;
  }

  cloud::MigrationReport migrate_with_crash(const std::string& instance,
                                            const std::string& to,
                                            const std::string& crash_host,
                                            sim::Duration crash_after) {
    cloud::NodeDaemon* victim = cloud_->daemon_by_hostname(crash_host);
    EXPECT_NE(victim, nullptr);
    sim_->after(crash_after, [victim]() { victim->crash(); });
    bool done = false;
    cloud::MigrationReport report;
    cloud_->master().migrate_instance(instance, to, /*live=*/true,
                                      [&](const cloud::MigrationReport& r) {
                                        done = true;
                                        report = r;
                                      });
    cloud_->run_until(sim::Duration::seconds(600), [&]() { return done; });
    EXPECT_TRUE(done) << "migration never reported";
    return report;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<PiCloud> cloud_;
};

// ---------------------------------------------------------------------------
// Migration crash injection

TEST_F(FaultCloud, SourceCrashMidPreCopyAborts) {
  spawn_loaded_kv("db", "pi-r0-00", 20);
  warm_image_cache("pi-r1-00");

  // ~50 MB to pre-copy over 100 Mb takes seconds; 1.5 s in is mid-copy.
  auto report = migrate_with_crash("db", "pi-r1-00", "pi-r0-00",
                                   sim::Duration::millis(1500));
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.instance_lost);
  EXPECT_EQ(
      sim_->metrics().counter_value("cloud.migration.aborted_source_dead"),
      1u);
  EXPECT_EQ(cloud_->master().migrations().in_flight(), 0u);
  // Nothing half-built on the destination.
  cloud::NodeDaemon* dst = cloud_->daemon_by_hostname("pi-r1-00");
  EXPECT_EQ(dst->node().find_container("db"), nullptr);

  // The source-dead reconciliation path takes over: within the liveness
  // window plus a couple of sweeps the record flips to "lost".
  cloud_->run_for(sim::Duration::seconds(60));
  auto record = cloud_->master().instance("db");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, "lost");
  EXPECT_GE(
      sim_->metrics().counter_value("cloud.reconciler.marked_lost_dead_node"),
      1u);
  // A lost instance can still be deleted (registry repair, no node to ask).
  EXPECT_TRUE(cloud_->delete_and_wait("db").ok());
  EXPECT_FALSE(cloud_->master().instance("db").ok());
}

// The coordinator owns a committed migration's blackout: destroying it
// while the destination waits out the address update cancels the restart
// instead of leaving it to fire into the freed coordinator.
TEST_F(FaultCloud, CoordinatorDestroyedDuringTheBlackoutCancelsIt) {
  spawn_loaded_kv("db", "pi-r0-00", 2);
  auto coordinator = std::make_unique<cloud::MigrationCoordinator>(
      *sim_, cloud_->fabric(), [this](const std::string& hostname) {
        return cloud_->daemon_by_hostname(hostname);
      });
  bool done = false;
  coordinator->migrate(
      {.instance = "db", .from = "pi-r0-00", .to = "pi-r1-00",
       .address_update = cloud::AddressUpdateMode::kArpConvergence},
      [&done](const cloud::MigrationReport&) { done = true; });
  // Step to the commit: the source container is destroyed and the
  // destination is dark for the address update.
  os::NodeOs& source = cloud_->daemon_by_hostname("pi-r0-00")->node();
  const sim::SimTime give_up = sim_->now() + sim::Duration::seconds(120);
  while (source.find_container("db") != nullptr && sim_->now() < give_up) {
    sim_->step();
  }
  ASSERT_EQ(source.find_container("db"), nullptr);
  ASSERT_FALSE(done);
  coordinator.reset();
  cloud_->run_for(sim::Duration::seconds(5));
  EXPECT_FALSE(done);
}

TEST_F(FaultCloud, DestinationCrashMidPreCopyRollsBackToSource) {
  spawn_loaded_kv("db", "pi-r0-00", 20);
  warm_image_cache("pi-r1-00");
  cloud::NodeDaemon* src = cloud_->daemon_by_hostname("pi-r0-00");
  std::uint64_t mem_before = src->node().stats().mem_used;

  auto report = migrate_with_crash("db", "pi-r1-00", "pi-r1-00",
                                   sim::Duration::millis(1500));
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.instance_lost);
  EXPECT_GE(sim_->metrics().counter_value("cloud.migration.aborted_dest_dead"),
            1u);
  EXPECT_EQ(cloud_->master().migrations().in_flight(), 0u);

  // The instance must still be serving on the source, thawed, app attached,
  // with its memory charged exactly once.
  os::Container* c = src->node().find_container("db");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), os::ContainerState::kRunning);
  EXPECT_NE(c->app(), nullptr);
  EXPECT_EQ(src->node().stats().mem_used, mem_before);
  auto record = cloud_->master().instance("db");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, "running");
  EXPECT_EQ(record.value().hostname, "pi-r0-00");
  EXPECT_TRUE(cloud_->master().instance_healthy("db"));
  // The abandoned pre-copy flows are gone from the fabric.
  cloud_->run_for(sim::Duration::seconds(10));
  EXPECT_EQ(cloud_->fabric().active_flow_count(), 0u);
}

// Sweeps the destination-crash instant across the whole migration timeline
// (pre-copy, final copy, commit, post-commit darkness). Whatever the
// outcome, exactly one of these holds afterwards: the instance runs on the
// source (rollback), runs on the destination (crash landed after commit
// completed... impossible here since the destination died for good), or the
// record is "lost" — and never is a container duplicated or leaked.
// A registration the master refused is retried 2 s later by a timer that
// crash() cancels: a node that crashes and reboots inside that window sends
// one registration per boot, and the old boot's retry never runs on the new
// one. Here the new boot's DHCP bind comes after the window, so a stale
// retry would call the master with no REST client yet.
TEST(NodeRegistration, RefusedRetryDoesNotOutliveACrash) {
  sim::Simulation sim(5);
  net::Fabric fabric(sim);
  net::Network network(sim, fabric);
  const net::Topology topo = net::build_single_rack(fabric, 2);
  const net::Ipv4Addr master_ip(10, 0, 0, 2);
  network.bind_ip(master_ip, topo.gateway);
  proto::DhcpServerConfig dhcp_config;
  dhcp_config.subnet = net::Subnet(net::Ipv4Addr(10, 0, 0, 0), 16);
  dhcp_config.range_start = net::Ipv4Addr(10, 0, 1, 1);
  dhcp_config.range_end = net::Ipv4Addr(10, 0, 1, 100);
  proto::DhcpServer dhcp(network, topo.gateway, master_ip, dhcp_config);
  dhcp.start();
  // A master that refuses the first registration and accepts the rest.
  int registrations = 0;
  proto::Router router;
  router.handle(proto::Method::kPost, "/register",
                [&registrations](const proto::HttpRequest&,
                                 const proto::PathParams&) {
                  return ++registrations == 1
                             ? proto::HttpResponse::service_unavailable("busy")
                             : proto::HttpResponse::make(200);
                });
  proto::RestServer master(network, master_ip, cloud::kPiMasterPort, &router);
  master.start();

  hw::Device device(0, "pi-r0-00", hw::pi_model_b());
  os::NodeOs node(sim, device, network, topo.hosts[0]);
  cloud::NodeDaemon daemon(node, {.pimaster_ip = master_ip, .rack = 0});
  daemon.start();
  const sim::SimTime give_up = sim.now() + sim::Duration::seconds(30);
  while (registrations == 0 && sim.now() < give_up) sim.step();
  sim.run_for(sim::Duration::millis(100));  // the refusal reaches the node
  ASSERT_EQ(registrations, 1);
  ASSERT_FALSE(daemon.registered());

  dhcp.stop();
  daemon.crash();
  daemon.start();  // reboots inside the 2 s retry window
  sim.run_for(sim::Duration::seconds(3));
  EXPECT_EQ(registrations, 1);
  dhcp.start();
  sim.run_for(sim::Duration::seconds(30));
  EXPECT_TRUE(daemon.registered());
  EXPECT_EQ(registrations, 2);  // the refused one, then the new boot's
}

TEST(FaultSweep, DestinationCrashAnywhereNeverDuplicatesOrLeaks) {
  const double offsets_s[] = {0.5, 2.0, 4.0, 6.0, 8.0, 12.0};
  bool saw_abort = false;
  for (double offset : offsets_s) {
    sim::Simulation sim(31);
    PiCloudConfig config;
    config.racks = 2;
    config.hosts_per_rack = 3;
    PiCloud cloud(sim, config);
    cloud.power_on();
    ASSERT_TRUE(cloud.await_ready());
    cloud.run_for(sim::Duration::seconds(5));

    auto db = cloud.spawn_and_wait(
        {.name = "db", .app_kind = "kvstore", .hostname = "pi-r0-00"});
    ASSERT_TRUE(db.ok());
    auto warm = cloud.spawn_and_wait(
        {.name = "warm", .app_kind = "", .hostname = "pi-r1-00"});
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cloud.delete_and_wait("warm").ok());
    apps::KvClient kv(cloud.network(), cloud.admin_ip());
    int stored = 0;
    for (int i = 0; i < 20; ++i) {
      kv.put(db.value().ip, util::format("k%d", i), 1 << 20,
             [&](util::Result<apps::ServeReply> r) {
               if (r.ok() && r.value().ok.value_or(false)) ++stored;
             });
    }
    cloud.run_until(sim::Duration::seconds(60), [&]() { return stored == 20; });

    cloud::NodeDaemon* dst = cloud.daemon_by_hostname("pi-r1-00");
    sim.after(sim::Duration::millis(static_cast<std::int64_t>(offset * 1000)),
              [dst]() { dst->crash(); });
    bool done = false;
    cloud::MigrationReport report;
    cloud.master().migrate_instance(
        "db", "pi-r1-00", /*live=*/true,
        [&](const cloud::MigrationReport& r) {
          done = true;
          report = r;
        },
        cloud::AddressUpdateMode::kArpConvergence);
    cloud.run_until(sim::Duration::seconds(600), [&]() { return done; });
    ASSERT_TRUE(done) << "offset " << offset;
    if (!report.success) saw_abort = true;

    // Let the reconciler converge, then audit the world.
    cloud.run_for(sim::Duration::seconds(60));
    int live = 0;
    for (size_t i = 0; i < cloud.node_count(); ++i) {
      if (!cloud.node(i).running()) continue;
      os::Container* c = cloud.node(i).find_container("db");
      if (c != nullptr && c->state() == os::ContainerState::kRunning) ++live;
    }
    EXPECT_LE(live, 1) << "duplicate instance at offset " << offset;
    EXPECT_EQ(cloud.master().migrations().in_flight(), 0u);
    EXPECT_EQ(cloud.fabric().active_flow_count(), 0u)
        << "leaked flows at offset " << offset;
    auto record = cloud.master().instance("db");
    ASSERT_TRUE(record.ok());
    if (record.value().state == "running") {
      EXPECT_EQ(live, 1) << "running record but no container, offset "
                         << offset;
      EXPECT_TRUE(cloud.master().instance_healthy("db"));
    } else {
      EXPECT_EQ(record.value().state, "lost");
      EXPECT_EQ(live, 0) << "lost record but container alive, offset "
                         << offset;
    }
  }
  EXPECT_TRUE(saw_abort) << "no offset interrupted the migration";
}

// ---------------------------------------------------------------------------
// Reconciler

TEST_F(FaultCloud, ReconcilerMarksDeadNodeInstancesLostAndReplicaSetReplaces) {
  cloud::ReplicaSet::Config rs_config;
  rs_config.name_prefix = "web";
  rs_config.replicas = 2;
  rs_config.spec.app_kind = "httpd";
  cloud::ReplicaSet tier(*sim_, cloud_->master(), rs_config);
  tier.start();
  ASSERT_TRUE(cloud_->run_until(sim::Duration::seconds(600), [&]() {
    return tier.healthy_replicas() == 2;
  }));

  // A standalone instance shares web-0's node: nothing owns it, so only
  // the reconciler can notice its death.
  auto record = cloud_->master().instance("web-0");
  ASSERT_TRUE(record.ok());
  auto solo = cloud_->spawn_and_wait(
      {.name = "solo", .app_kind = "httpd", .hostname = record.value().hostname});
  ASSERT_TRUE(solo.ok());

  // Kill the node; never repair it.
  cloud::NodeDaemon* victim = cloud_->daemon_by_hostname(
      record.value().hostname);
  ASSERT_NE(victim, nullptr);
  victim->crash();

  // The ReplicaSet notices the unhealthy replica, deletes the record and
  // respawns the slot elsewhere.
  ASSERT_TRUE(cloud_->run_until(sim::Duration::seconds(600), [&]() {
    return tier.healthy_replicas() == 2;
  }));
  EXPECT_GE(tier.stats().replaced, 1u);
  auto replacement = cloud_->master().instance("web-0");
  ASSERT_TRUE(replacement.ok());
  EXPECT_NE(replacement.value().hostname, record.value().hostname);
  EXPECT_EQ(replacement.value().state, "running");

  // The orphaned standalone record is the reconciler's job: marked lost
  // once the liveness window (10 s) lapses and a sweep confirms.
  ASSERT_TRUE(cloud_->run_until(sim::Duration::seconds(600), [&]() {
    auto r = cloud_->master().instance("solo");
    return r.ok() && r.value().state == "lost";
  }));
  EXPECT_GE(
      sim_->metrics().counter_value("cloud.reconciler.marked_lost_dead_node"),
      1u);
}

TEST_F(FaultCloud, ReconcilerDestroysOrphanContainers) {
  // A container no record claims — e.g. the remnant of a spawn whose
  // response was lost. Planted behind the master's back.
  cloud::NodeDaemon* host = cloud_->daemon_by_hostname("pi-r1-01");
  ASSERT_NE(host, nullptr);
  auto ghost = host->node().create_container({.name = "ghost"});
  ASSERT_TRUE(ghost.ok());
  ASSERT_TRUE(ghost.value()->start(net::Ipv4Addr(10, 0, 240, 7)).ok());

  // Needs `confirmations` (2) consecutive sightings plus the DELETE round
  // trip; three sweep periods is plenty.
  cloud_->run_for(sim::Duration::seconds(60));
  os::Container* c = host->node().find_container("ghost");
  EXPECT_TRUE(c == nullptr || c->state() == os::ContainerState::kDestroyed);
  EXPECT_GE(sim_->metrics().counter_value("cloud.reconciler.orphans_gc"), 1u);
}

TEST_F(FaultCloud, ReconcilerSparesClaimedAndInFlightContainers) {
  auto record = cloud_->spawn_and_wait({.name = "web", .app_kind = "httpd"});
  ASSERT_TRUE(record.ok());
  std::uint64_t destroyed_before =
      sim_->metrics().counter_value("cloud.reconciler.orphans_gc");
  cloud_->run_for(sim::Duration::minutes(3));
  // A legitimately placed instance is never garbage-collected.
  EXPECT_EQ(sim_->metrics().counter_value("cloud.reconciler.orphans_gc"),
            destroyed_before);
  EXPECT_TRUE(cloud_->master().instance_healthy("web"));
}

// ---------------------------------------------------------------------------
// End-to-end idempotent spawn

TEST_F(FaultCloud, DuplicateSpawnRequestsCoalesceAndReplay) {
  Json spec = Json::object();
  spec.set("name", "web-1");
  spec.set("app", "httpd");
  spec.set("idem", "op-123");

  auto post = [&](int* status) {
    cloud_->panel().client().call(
        cloud_->master_ip(), cloud::PiMaster::kPort, proto::Method::kPost,
        "/instances", spec,
        [status](util::Result<proto::HttpResponse> result) {
          *status = result.ok() ? result.value().status : 599;
        },
        sim::Duration::seconds(300));
  };

  // Two copies of the same logical request race: the second coalesces onto
  // the first execution instead of failing with "name in use".
  int first = 0, second = 0;
  post(&first);
  post(&second);
  cloud_->run_until(sim::Duration::seconds(300),
                    [&]() { return first != 0 && second != 0; });
  EXPECT_EQ(first, 201);
  EXPECT_EQ(second, 201);

  // A third copy after completion replays the recorded response.
  int third = 0;
  post(&third);
  cloud_->run_until(sim::Duration::seconds(30), [&]() { return third != 0; });
  EXPECT_EQ(third, 201);

  // Exactly one instance exists; the dedup cache saw one run, one coalesce,
  // one replay.
  EXPECT_EQ(cloud_->master().instance_records().size(), 1u);
  const util::MetricsRegistry& m = sim_->metrics();
  EXPECT_EQ(m.counter_value("cloud.master.dedup.admitted"), 1u);
  EXPECT_GE(m.counter_value("cloud.master.dedup.coalesced"), 1u);
  EXPECT_GE(m.counter_value("cloud.master.dedup.replayed"), 1u);

  // A different key with the same name is a genuine conflict.
  spec.set("idem", "op-456");
  int conflict = 0;
  post(&conflict);
  cloud_->run_until(sim::Duration::seconds(30),
                    [&]() { return conflict != 0; });
  EXPECT_EQ(conflict, 409);
  EXPECT_EQ(cloud_->master().instance_records().size(), 1u);
}

}  // namespace
}  // namespace picloud
