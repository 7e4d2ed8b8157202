// Management-plane edge cases on a small (2-rack) cloud: spawn validation,
// registry drift repair, image patching over REST, policy switching, and
// migration failure/rollback paths.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "apps/loadgen.h"
#include "cloud/cloud.h"
#include "util/strings.h"

namespace picloud {
namespace {

using cloud::PiCloud;
using cloud::PiCloudConfig;
using util::Json;

class SmallCloud : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(7);
    PiCloudConfig config;
    config.racks = 2;
    config.hosts_per_rack = 3;
    sim_ = std::make_unique<sim::Simulation>(7);
    cloud_ = std::make_unique<PiCloud>(*sim_, config);
    cloud_->power_on();
    ASSERT_TRUE(cloud_->await_ready());
    cloud_->run_for(sim::Duration::seconds(5));
  }

  // Admin REST helper: returns the response body or the error payload.
  proto::HttpResponse call(proto::Method method, const std::string& path,
                           Json body = Json()) {
    proto::HttpResponse out;
    bool done = false;
    cloud_->panel().client().call(
        cloud_->master_ip(), cloud::PiMaster::kPort, method, path,
        std::move(body),
        [&](util::Result<proto::HttpResponse> result) {
          done = true;
          if (result.ok()) out = result.value();
          else out.status = 599;
        },
        sim::Duration::seconds(120));
    cloud_->run_until(sim::Duration::seconds(150), [&]() { return done; });
    return out;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<PiCloud> cloud_;
};

TEST_F(SmallCloud, SpawnValidation) {
  // Boot sanity: every Pi leased its address from the master's DHCP service.
  EXPECT_EQ(cloud_->master().dhcp().active_leases(), 6u);
  // Missing name.
  EXPECT_EQ(call(proto::Method::kPost, "/instances", Json::object()).status,
            400);
  // Unknown image.
  Json bad_image = Json::object();
  bad_image.set("name", "x");
  bad_image.set("image", "win95");
  EXPECT_EQ(call(proto::Method::kPost, "/instances", bad_image).status, 404);
  // Duplicate name.
  Json ok = Json::object();
  ok.set("name", "dup");
  EXPECT_EQ(call(proto::Method::kPost, "/instances", ok).status, 201);
  Json dup = Json::object();
  dup.set("name", "dup");
  EXPECT_EQ(call(proto::Method::kPost, "/instances", dup).status, 409);
  // Pin to a nonexistent node.
  Json ghost = Json::object();
  ghost.set("name", "ghost-pin");
  ghost.set("node", "pi-r9-99");
  EXPECT_EQ(call(proto::Method::kPost, "/instances", ghost).status, 503);
}

TEST_F(SmallCloud, DeleteCleansRegistryEvenWhenNodeCrashed) {
  auto record = cloud_->spawn_and_wait({.name = "orphan"});
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(cloud_->master().spawn_requests(), 1u);
  EXPECT_EQ(cloud_->master().spawns_succeeded(), 1u);
  EXPECT_EQ(cloud_->master().spawns_failed(), 0u);
  cloud::NodeDaemon* daemon =
      cloud_->daemon_by_hostname(record.value().hostname);
  ASSERT_NE(daemon, nullptr);
  EXPECT_EQ(daemon->metrics_scope(), "node." + record.value().hostname);
  daemon->crash();
  cloud_->run_for(sim::Duration::seconds(12));
  // The daemon is gone; delete must still clear master state. The daemon's
  // REST server died with it, so the proxy call times out -> master repairs
  // its registry on the pimaster-direct path.
  bool done = false;
  cloud_->master().delete_instance("orphan", [&](util::Status status) {
    done = true;
    EXPECT_TRUE(status.ok() || status.error().code == "unavailable");
  });
  cloud_->run_until(sim::Duration::seconds(30), [&]() { return done; });
  EXPECT_TRUE(done);
}

TEST_F(SmallCloud, ImagePatchRollsOutIncrementally) {
  // Publish a patch on the base image.
  Json patch = Json::object();
  patch.set("bytes", 5.0 * (1 << 20));
  patch.set("note", "security fix");
  auto resp = call(proto::Method::kPost, "/images/raspbian-lxc/patch", patch);
  ASSERT_EQ(resp.status, 201);
  EXPECT_EQ(resp.body.as_string(), "raspbian-lxc:2");

  // A new instance spawns from :2; only the 5 MiB delta crosses the fabric
  // (the base is pre-flashed on every SD card).
  double bytes_before = cloud_->fabric().total_bytes_carried();
  auto record = cloud_->spawn_and_wait({.name = "patched"});
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().image, "raspbian-lxc:2");
  double transferred = cloud_->fabric().total_bytes_carried() - bytes_before;
  // Delta (5 MiB x path hops) plus control chatter; far below the 1.8 GB base.
  EXPECT_GT(transferred, 5.0 * (1 << 20));
  EXPECT_LT(transferred, 100.0 * (1 << 20));
  // The node now caches the new layer.
  cloud::NodeDaemon* daemon =
      cloud_->daemon_by_hostname(record.value().hostname);
  EXPECT_TRUE(daemon->node().has_image_layer("raspbian-lxc:2"));
}

TEST_F(SmallCloud, FleetWidePatchPrefetchOverRest) {
  // Publish a patch, then push it to every node ahead of time via the
  // daemons' /images/prefetch endpoint — the paper's mass "image upgrading,
  // patching" workflow (SII-A).
  ASSERT_TRUE(
      cloud_->master().images().patch("raspbian-lxc", 8ull << 20, "rollout")
          .ok());
  util::Json layers = util::Json::array();
  {
    auto chain = cloud_->master().images().chain("raspbian-lxc:2");
    ASSERT_TRUE(chain.ok());
    for (const auto& layer : chain.value()) {
      util::Json j = util::Json::object();
      j.set("id", layer.id());
      j.set("bytes", static_cast<unsigned long long>(layer.layer_bytes));
      layers.push_back(std::move(j));
    }
  }
  int done = 0;
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    util::Json body = util::Json::object();
    body.set("layers", layers);
    cloud_->panel().client().call(
        cloud_->daemon(i).ip(), cloud::NodeDaemon::kPort, proto::Method::kPost,
        "/images/prefetch", std::move(body),
        [&](util::Result<proto::HttpResponse> result) {
          if (result.ok() && result.value().ok()) ++done;
        },
        sim::Duration::seconds(60));
  }
  cloud_->run_until(sim::Duration::minutes(5), [&]() {
    return done == static_cast<int>(cloud_->node_count());
  });
  EXPECT_EQ(done, static_cast<int>(cloud_->node_count()));
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    EXPECT_TRUE(cloud_->node(i).has_image_layer("raspbian-lxc:2"))
        << cloud_->node(i).hostname();
  }
  // Spawning from :2 after prefetch needs no transfer at all.
  double before = cloud_->fabric().total_bytes_carried();
  auto record = cloud_->spawn_and_wait({.name = "prefetched"});
  ASSERT_TRUE(record.ok());
  EXPECT_LT(cloud_->fabric().total_bytes_carried() - before, 1e5)
      << "spawn should have been transfer-free";
}

TEST_F(SmallCloud, PolicySwitchOverRest) {
  auto get = call(proto::Method::kGet, "/policy");
  EXPECT_EQ(get.body.get_string("name"), "first-fit");
  Json put = Json::object();
  put.set("name", "worst-fit");
  EXPECT_EQ(call(proto::Method::kPut, "/policy", put).status, 200);
  EXPECT_EQ(cloud_->master().policy_name(), "worst-fit");
  Json bogus = Json::object();
  bogus.set("name", "dice");
  EXPECT_EQ(call(proto::Method::kPut, "/policy", bogus).status, 404);
}

TEST_F(SmallCloud, MigrateUnknownInstanceFails) {
  auto report = cloud_->migrate_and_wait("phantom", "", true);
  EXPECT_FALSE(report.success);
}

TEST_F(SmallCloud, MigrationToFullNodeRollsBack) {
  // Fill a destination to its 3-container envelope.
  std::string dest;
  for (int i = 0; i < 3; ++i) {
    auto r = cloud_->spawn_and_wait({.name = util::format("filler-%d", i),
                                     .app_kind = "kvstore",
                                     .hostname = "pi-r1-00"});
    ASSERT_TRUE(r.ok()) << r.error().message;
    dest = r.value().hostname;
  }
  auto victim = cloud_->spawn_and_wait(
      {.name = "victim", .app_kind = "kvstore", .hostname = "pi-r0-00"});
  ASSERT_TRUE(victim.ok());

  // Force a migration onto the full node: the destination create fails and
  // the source must keep running.
  auto report = cloud_->migrate_and_wait("victim", dest, true);
  EXPECT_FALSE(report.success);
  cloud::NodeDaemon* src = cloud_->daemon_by_hostname("pi-r0-00");
  os::Container* c = src->node().find_container("victim");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), os::ContainerState::kRunning);
  EXPECT_NE(c->app(), nullptr) << "app must be re-attached after rollback";
  // Master still records the old placement.
  auto record = cloud_->master().instance("victim");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().hostname, "pi-r0-00");
}

TEST_F(SmallCloud, CoordinatorRollsBackWhenDestinationCreateRaces) {
  // Master admission can race with node-local reality; drive the
  // coordinator directly against a node whose container slots are consumed
  // behind the master's back.
  auto victim = cloud_->spawn_and_wait(
      {.name = "victim", .app_kind = "kvstore", .hostname = "pi-r0-00"});
  ASSERT_TRUE(victim.ok());
  cloud::NodeDaemon* dst = cloud_->daemon_by_hostname("pi-r1-02");
  ASSERT_NE(dst, nullptr);
  // Exhaust destination RAM out-of-band (node-local, master never told).
  for (int i = 0; i < 6; ++i) {
    auto c = dst->node().create_container({.name = "squatter-" +
                                                   std::to_string(i)});
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(
        c.value()->start(net::Ipv4Addr(10, 0, 230, 1 + i)).ok());
  }
  // A same-name squatter makes the destination create itself fail.
  auto conflict = dst->node().create_container({.name = "victim"});
  ASSERT_TRUE(conflict.ok());

  cloud::MigrationParams params;
  params.instance = "victim";
  params.from = "pi-r0-00";
  params.to = "pi-r1-02";
  bool done = false;
  cloud::MigrationReport report;
  cloud_->master().migrations().migrate(params,
                                        [&](const cloud::MigrationReport& r) {
                                          done = true;
                                          report = r;
                                        });
  cloud_->run_until(sim::Duration::seconds(300), [&]() { return done; });
  ASSERT_TRUE(done);
  EXPECT_FALSE(report.success);
  // Rollback: the source container is alive and serving again.
  cloud::NodeDaemon* src = cloud_->daemon_by_hostname("pi-r0-00");
  os::Container* c = src->node().find_container("victim");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), os::ContainerState::kRunning);
  EXPECT_NE(c->app(), nullptr);
}

TEST_F(SmallCloud, MigrationPreservesKvState) {
  auto db = cloud_->spawn_and_wait(
      {.name = "db", .app_kind = "kvstore", .hostname = "pi-r0-00"});
  ASSERT_TRUE(db.ok());
  apps::KvClient kv(cloud_->network(), cloud_->admin_ip());
  int stored = 0;
  for (int i = 0; i < 10; ++i) {
    kv.put(db.value().ip, util::format("k%d", i), 1 << 20,
           [&](util::Result<apps::ServeReply> r) {
             if (r.ok() && r.value().ok.value_or(false)) ++stored;
           });
  }
  cloud_->run_until(sim::Duration::seconds(30), [&]() { return stored == 10; });
  ASSERT_EQ(stored, 10);

  auto report = cloud_->migrate_and_wait("db", "pi-r1-01", true);
  ASSERT_TRUE(report.success) << report.error;

  // Every key answers from the new host, same IP.
  int found = 0;
  for (int i = 0; i < 10; ++i) {
    kv.get(db.value().ip, util::format("k%d", i),
           [&](util::Result<apps::ServeReply> r) {
             if (r.ok() && r.value().ok.value_or(false)) ++found;
           });
  }
  cloud_->run_until(sim::Duration::seconds(30), [&]() { return found == 10; });
  EXPECT_EQ(found, 10);
  // And the dataset is resident on the destination.
  cloud::NodeDaemon* dst = cloud_->daemon_by_hostname("pi-r1-01");
  os::Container* c = dst->node().find_container("db");
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->memory_usage(), 10ull << 20);
}

TEST_F(SmallCloud, ConcurrentDoubleMigrationRefused) {
  auto db = cloud_->spawn_and_wait({.name = "db", .app_kind = "kvstore"});
  ASSERT_TRUE(db.ok());
  // Make the migration take a while: big dataset.
  apps::KvClient kv(cloud_->network(), cloud_->admin_ip());
  int stored = 0;
  for (int i = 0; i < 40; ++i) {
    kv.put(db.value().ip, util::format("k%d", i), 1 << 20,
           [&](util::Result<apps::ServeReply> r) {
             if (r.ok() && r.value().ok.value_or(false)) ++stored;
           });
  }
  cloud_->run_until(sim::Duration::seconds(60), [&]() { return stored == 40; });

  int finished = 0;
  bool second_failed = false;
  cloud_->master().migrate_instance("db", "", true,
                                    [&](const cloud::MigrationReport&) {
                                      ++finished;
                                    });
  cloud_->master().migrate_instance(
      "db", "", true, [&](const cloud::MigrationReport& report) {
        ++finished;
        if (!report.success) second_failed = true;
      });
  cloud_->run_until(sim::Duration::seconds(300), [&]() { return finished == 2; });
  EXPECT_EQ(finished, 2);
  EXPECT_TRUE(second_failed) << "second concurrent migration must be refused";
}

TEST_F(SmallCloud, MetricsEndpointsServeTheSpine) {
  ASSERT_TRUE(cloud_->spawn_and_wait({.name = "web", .app_kind = "httpd"}).ok());
  cloud_->run_for(sim::Duration::seconds(5));

  // Pimaster GET /metrics: the whole registry, canonical shape.
  proto::HttpResponse master = call(proto::Method::kGet, "/metrics");
  ASSERT_EQ(master.status, 200);
  ASSERT_TRUE(master.body.has("counters"));
  ASSERT_TRUE(master.body.has("gauges"));
  ASSERT_TRUE(master.body.has("histograms"));
  const Json& counters = master.body.get("counters");
  EXPECT_GE(counters.get_number("cloud.master.spawns_ok"), 1);
  EXPECT_GT(counters.get_number("sim.events_executed"), 0);
  EXPECT_GT(counters.get_number("net.fabric.flows_started"), 0);
  EXPECT_GT(counters.get_number("proto.rest.server.requests"), 0);
  // Per-node series show up under node.<hostname>.
  const std::string& host0 = cloud_->daemon(0).hostname();
  EXPECT_GT(counters.get_number("node." + host0 + ".heartbeats_sent"), 0);
  EXPECT_GT(master.body.get("gauges").get_number("node." + host0 +
                                                 ".mem_capacity"),
            0);

  // GET /trace serves the sim-time event ring alongside.
  proto::HttpResponse trace = call(proto::Method::kGet, "/trace");
  ASSERT_EQ(trace.status, 200);
  EXPECT_TRUE(trace.body.has("events"));

  // Node daemon GET /metrics: the same canonical shape, prefix-stripped to
  // the daemon's own node.<hostname> scope.
  cloud::NodeDaemon& daemon = cloud_->daemon(0);
  proto::HttpResponse node;
  bool done = false;
  cloud_->panel().client().call(
      daemon.ip(), cloud::NodeDaemon::kPort, proto::Method::kGet, "/metrics",
      Json(),
      [&](util::Result<proto::HttpResponse> result) {
        done = true;
        if (result.ok()) node = result.value();
      },
      sim::Duration::seconds(30));
  cloud_->run_until(sim::Duration::seconds(60), [&]() { return done; });
  ASSERT_EQ(node.status, 200);
  EXPECT_GT(node.body.get("counters").get_number("heartbeats_sent"), 0);
  EXPECT_GT(node.body.get("gauges").get_number("mem_capacity"), 0);
  EXPECT_FALSE(node.body.get("counters").has("cloud.master.spawns_ok"));
}

}  // namespace
}  // namespace picloud
