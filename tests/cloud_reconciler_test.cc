// Unit tests for the reconciler's strike counting (cloud/reconciler.h): a
// discrepancy must persist `confirmations` consecutive sweeps before the
// reconciler acts, and any sweep that no longer sees it resets the count.
// The soak/fault-tolerance suites cover the end-to-end repair paths; here we
// pin down the sweep-by-sweep bookkeeping the fuzzer's convergence probe
// leans on.
#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "os/container.h"

namespace picloud {
namespace {

using cloud::PiCloud;
using cloud::PiCloudConfig;

class ReconcilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(83);
    PiCloudConfig config;
    config.racks = 1;
    config.hosts_per_rack = 2;
    cloud_ = std::make_unique<PiCloud>(*sim_, config);
    cloud_->power_on();
    ASSERT_TRUE(cloud_->await_ready());
    cloud_->run_for(sim::Duration::seconds(5));
  }

  std::uint64_t sweeps() const {
    return sim_->metrics().counter_value("cloud.reconciler.sweeps");
  }
  std::uint64_t orphans_gc() const {
    return sim_->metrics().counter_value("cloud.reconciler.orphans_gc");
  }
  std::uint64_t marked_lost_drift() const {
    return sim_->metrics().counter_value("cloud.reconciler.marked_lost_drift");
  }

  // Runs until `n` more sweeps have fired, plus a grace period for the
  // per-node GET /containers audits (and any resulting DELETE) to land.
  void run_sweeps(int n) {
    const std::uint64_t target = sweeps() + static_cast<std::uint64_t>(n);
    ASSERT_TRUE(cloud_->run_until(sim::Duration::minutes(5),
                                  [&]() { return sweeps() >= target; }));
    cloud_->run_for(sim::Duration::seconds(5));
  }

  // Plants a container no record claims, behind the master's back.
  os::Container* plant_orphan(const std::string& name) {
    auto ghost = cloud_->daemon(0).node().create_container({.name = name});
    EXPECT_TRUE(ghost.ok());
    EXPECT_TRUE(ghost.value()->start(net::Ipv4Addr(10, 0, 240, 9)).ok());
    return ghost.value();
  }

  bool orphan_alive(const std::string& name) {
    os::Container* c = cloud_->daemon(0).node().find_container(name);
    return c != nullptr && c->state() != os::ContainerState::kDestroyed;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<PiCloud> cloud_;
};

// One sighting is not enough: the orphan survives the first sweep (strike 1
// of 2) and is collected only after the second consecutive sighting.
TEST_F(ReconcilerTest, OrphanNeedsTwoConsecutiveSightings) {
  plant_orphan("ghost");
  run_sweeps(1);
  EXPECT_TRUE(orphan_alive("ghost")) << "GC'd after a single sighting";
  EXPECT_EQ(orphans_gc(), 0u);

  run_sweeps(1);
  EXPECT_FALSE(orphan_alive("ghost"));
  EXPECT_EQ(orphans_gc(), 1u);
}

// A container that vanishes between sightings forgets its strike: when it
// reappears it must again survive the next sweep and be collected only after
// two fresh consecutive sightings.
TEST_F(ReconcilerTest, OrphanStrikeResetsWhenContainerVanishes) {
  plant_orphan("ghost");
  run_sweeps(1);  // strike 1
  ASSERT_TRUE(orphan_alive("ghost"));

  // Vanishes on its own before the confirming sweep.
  ASSERT_TRUE(cloud_->daemon(0).node().destroy_container("ghost").ok());
  run_sweeps(1);  // sighting list no longer contains it — strike erased
  EXPECT_EQ(orphans_gc(), 0u);

  // Reappears: the old strike must not carry over.
  plant_orphan("ghost");
  run_sweeps(1);  // fresh strike 1
  EXPECT_TRUE(orphan_alive("ghost")) << "stale strike carried over a reset";
  EXPECT_EQ(orphans_gc(), 0u);
  run_sweeps(1);  // fresh strike 2 — now it goes
  EXPECT_FALSE(orphan_alive("ghost"));
  EXPECT_EQ(orphans_gc(), 1u);
}

// Registry drift — a record claiming a live node that no longer reports the
// container — is likewise confirmed across two sweeps before the record is
// marked lost.
TEST_F(ReconcilerTest, DriftNeedsTwoConsecutiveSweeps) {
  auto record = cloud_->spawn_and_wait({.name = "web", .app_kind = "httpd"});
  ASSERT_TRUE(record.ok()) << record.error().message;

  // Destroy the container behind the master's back; the node stays alive.
  cloud::NodeDaemon* host =
      cloud_->daemon_by_hostname(record.value().hostname);
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(host->node().destroy_container("web").ok());

  run_sweeps(1);
  auto after_one = cloud_->master().instance("web");
  ASSERT_TRUE(after_one.ok());
  EXPECT_EQ(after_one.value().state, "running")
      << "marked lost after a single sweep";

  run_sweeps(1);
  auto after_two = cloud_->master().instance("web");
  ASSERT_TRUE(after_two.ok());
  EXPECT_EQ(after_two.value().state, "lost");
  EXPECT_GE(marked_lost_drift(), 1u);
}

// A legitimately recorded instance accrues no strikes and is never touched,
// no matter how many sweeps pass.
TEST_F(ReconcilerTest, ClaimedContainerIsNeverCollected) {
  auto record = cloud_->spawn_and_wait({.name = "web", .app_kind = "httpd"});
  ASSERT_TRUE(record.ok()) << record.error().message;
  run_sweeps(4);
  EXPECT_EQ(orphans_gc(), 0u);
  EXPECT_TRUE(cloud_->master().instance_healthy("web"));
}

// Idle heartbeats do not pile up on the pimaster uplink: each node sends at
// its own instant within the period, so between reconciler sweeps no
// component solve holds more than two flows (at 56 hosts every heartbeat
// takes the uncontended fast path). The sweep is what fans out: it sends
// GET /containers to every live node from one loop, so those flows start
// together on the uplink and are re-solved together.
TEST(ReconcilerFanOut, OnlySweepsShareTheUplink) {
  sim::Simulation sim(1);
  PiCloud cloud(sim, PiCloudConfig{});  // 4 racks x 14 hosts
  ASSERT_EQ(cloud.node_count(), 56u);
  cloud.power_on();
  ASSERT_TRUE(cloud.await_ready());
  auto sweeps = [&sim]() {
    return sim.metrics().counter_value("cloud.reconciler.sweeps");
  };
  struct Window {
    std::uint64_t sweeps, solves, component_solves, component_flows;
  };
  auto measure = [&](sim::Duration length) {
    const std::uint64_t sweeps_before = sweeps();
    const net::FabricSolverStats before = cloud.fabric().solver_stats();
    cloud.run_for(length);
    const net::FabricSolverStats after = cloud.fabric().solver_stats();
    return Window{sweeps() - sweeps_before, after.solves - before.solves,
                  after.component_solves - before.component_solves,
                  after.component_flows - before.component_flows};
  };
  // Start once a sweep's audits have landed; the next sweep is 15 s after
  // it, so the first window holds none and the second holds one.
  const std::uint64_t seen = sweeps();
  ASSERT_TRUE(cloud.run_until(sim::Duration::minutes(1),
                              [&]() { return sweeps() > seen; }));
  cloud.run_for(sim::Duration::seconds(3));

  const Window quiet = measure(sim::Duration::seconds(10));
  ASSERT_EQ(quiet.sweeps, 0u);
  ASSERT_GT(quiet.solves, 0u);  // heartbeats flowed
  EXPECT_LE(quiet.component_flows, 2 * quiet.component_solves);

  const Window sweep = measure(sim::Duration::seconds(4));
  ASSERT_EQ(sweep.sweeps, 1u);
  EXPECT_GT(sweep.component_flows, 2 * sweep.component_solves);
}

}  // namespace
}  // namespace picloud
