// Memory manager, container lifecycle and NodeOs tests — the paper's
// resource envelope (256 MB, 30 MB idle containers, 3 per Pi).
#include <gtest/gtest.h>

#include "hw/device.h"
#include "net/network.h"
#include "net/topology.h"
#include "os/memory.h"
#include "os/node_os.h"
#include "sim/simulation.h"
#include "util/strings.h"

namespace picloud::os {
namespace {

// ---------------------------------------------------------------------------
// MemoryManager

TEST(MemoryManager, ChargesAndLimits) {
  MemoryManager mem(100);
  MemGroupId g = mem.create_group(/*limit=*/40);
  EXPECT_EQ(mem.group_limit(g), 40u);
  EXPECT_TRUE(mem.charge(g, 30).ok());
  EXPECT_EQ(mem.group_usage(g), 30u);
  util::Status over_limit = mem.charge(g, 20);
  ASSERT_FALSE(over_limit.ok());
  EXPECT_EQ(over_limit.error().code, "limit");
  mem.uncharge(g, 10);
  EXPECT_TRUE(mem.charge(g, 20).ok());
}

TEST(MemoryManager, NodeCapacityIsHard) {
  MemoryManager mem(100);
  MemGroupId a = mem.create_group();
  MemGroupId b = mem.create_group();
  EXPECT_TRUE(mem.charge(a, 70).ok());
  util::Status oom = mem.charge(b, 40);
  ASSERT_FALSE(oom.ok());
  EXPECT_EQ(oom.error().code, "oom");
  EXPECT_EQ(mem.available(), 30u);
}

TEST(MemoryManager, SoftLimitBelowUsageBlocksNewCharges) {
  MemoryManager mem(100);
  MemGroupId g = mem.create_group();
  EXPECT_TRUE(mem.charge(g, 50).ok());
  mem.set_limit(g, 40);  // below current usage: soft semantics
  EXPECT_EQ(mem.group_usage(g), 50u);  // resident pages stay
  EXPECT_FALSE(mem.charge(g, 1).ok());
  mem.uncharge(g, 20);
  EXPECT_TRUE(mem.charge(g, 5).ok());
}

TEST(MemoryManager, DestroyGroupReleasesEverything) {
  MemoryManager mem(100);
  MemGroupId g = mem.create_group();
  ASSERT_TRUE(mem.charge(g, 60).ok());
  mem.destroy_group(g);
  EXPECT_EQ(mem.used(), 0u);
}

// ---------------------------------------------------------------------------
// Container + NodeOs

struct NodeWorld {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  net::Network network{sim, fabric};
  net::Topology topo;
  hw::Device device{0, "pi-r0-00", hw::pi_model_b()};
  std::unique_ptr<NodeOs> node;

  NodeWorld() {
    topo = net::build_single_rack(fabric, 2);
    node = std::make_unique<NodeOs>(sim, device, network, topo.hosts[0]);
    node->boot();
  }
};

TEST(NodeOs, BootChargesSystemFootprint) {
  NodeWorld w;
  // 256 MB - 16 MB GPU = 240 MB usable; 48 MB system.
  EXPECT_EQ(w.node->memory().capacity(), 240ull << 20);
  EXPECT_EQ(w.node->memory().used(), 48ull << 20);
  EXPECT_TRUE(w.node->running());
}

TEST(NodeOs, ThreeIdleContainersFitTheFourthAppDoesNot) {
  // The paper's envelope: 3 x 30 MB idle containers fit comfortably in
  // 240 MB alongside the 48 MB system; memory-hungry additions do not.
  NodeWorld w;
  for (int i = 0; i < 3; ++i) {
    auto c = w.node->create_container({.name = util::format("c%d", i)});
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10 + i)).ok());
  }
  EXPECT_EQ(w.node->memory().used(), (48ull + 90ull) << 20);
  // A 4th idle container still squeezes in (138+30=168 < 240)...
  auto c4 = w.node->create_container({.name = "c3"});
  ASSERT_TRUE(c4.ok());
  EXPECT_TRUE(c4.value()->start(net::Ipv4Addr(10, 0, 0, 13)).ok());
  // ...but its app cannot take the 80 MB a real workload wants.
  EXPECT_FALSE(c4.value()->alloc_memory(80ull << 20).ok());
}

TEST(Container, LifecycleTransitions) {
  NodeWorld w;
  auto created = w.node->create_container({.name = "web"});
  ASSERT_TRUE(created.ok());
  Container* c = created.value();
  EXPECT_EQ(c->state(), ContainerState::kStopped);
  EXPECT_FALSE(c->freeze().ok());  // must be running first
  ASSERT_TRUE(c->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
  EXPECT_EQ(c->state(), ContainerState::kRunning);
  EXPECT_FALSE(c->start(net::Ipv4Addr(10, 0, 0, 10)).ok());  // double start
  ASSERT_TRUE(c->freeze().ok());
  EXPECT_EQ(c->state(), ContainerState::kFrozen);
  ASSERT_TRUE(c->thaw().ok());
  ASSERT_TRUE(c->stop().ok());
  EXPECT_EQ(c->state(), ContainerState::kStopped);
  // Stopping released the idle RAM.
  EXPECT_EQ(w.node->memory().used(), 48ull << 20);
}

TEST(Container, StartFailsCleanlyWhenRamExhausted) {
  NodeWorld w;
  // Fill the node: 240 - 48 = 192 MB free; 6 x 30 = 180, 7th fails.
  for (int i = 0; i < 6; ++i) {
    auto c = w.node->create_container({.name = util::format("f%d", i)});
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 20 + i)).ok());
  }
  auto last = w.node->create_container({.name = "straw"});
  ASSERT_TRUE(last.ok());
  util::Status status = last.value()->start(net::Ipv4Addr(10, 0, 0, 30));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "oom");
  EXPECT_EQ(last.value()->state(), ContainerState::kStopped);
}

TEST(Container, FrozenContainerMakesNoCpuProgress) {
  NodeWorld w;
  auto c = w.node->create_container({.name = "c"});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
  bool done = false;
  c.value()->run_cpu(7e6, [&](bool completed) { done = completed; });
  ASSERT_TRUE(c.value()->freeze().ok());
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(60));
  EXPECT_FALSE(done);
  ASSERT_TRUE(c.value()->thaw().ok());
  w.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(120));
  EXPECT_TRUE(done);
}

TEST(Container, CpuLimitSlowsWork) {
  NodeWorld w;
  auto c = w.node->create_container({.name = "c", .cpu_limit = 0.1});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
  sim::SimTime finish;
  c.value()->run_cpu(70e6, [&](bool) { finish = w.sim.now(); });  // 0.1s at full
  w.sim.run();
  EXPECT_NEAR(finish.to_seconds(), 1.0, 1e-6);  // 10x slower under the cap
}

TEST(Container, DescribeCarriesStateAndResources) {
  NodeWorld w;
  auto c = w.node->create_container({.name = "c", .memory_limit = 64ull << 20});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
  util::Json j = c.value()->describe();
  EXPECT_EQ(j.get_string("name"), "c");
  EXPECT_EQ(j.get_string("state"), "running");
  EXPECT_EQ(j.get_string("ip"), "10.0.0.10");
  EXPECT_EQ(j.get_number("memory_bytes"), 30.0 * (1 << 20));
}

TEST(NodeOs, CrashDropsEverything) {
  NodeWorld w;
  auto c = w.node->create_container({.name = "c"});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
  w.node->set_host_ip(net::Ipv4Addr(10, 0, 0, 1));
  w.node->crash();
  EXPECT_FALSE(w.node->running());
  EXPECT_EQ(w.node->container_count(), 0u);
  EXPECT_FALSE(w.network.resolve(net::Ipv4Addr(10, 0, 0, 1)).has_value());
  EXPECT_FALSE(w.network.resolve(net::Ipv4Addr(10, 0, 0, 10)).has_value());
  EXPECT_EQ(w.device.power().current_watts(), 0.0);
}

TEST(NodeOs, RepeatedCrashBootCyclesDoNotLeakSystemRam) {
  // Regression: crash() must release the system accounting groups — power
  // loss clears RAM — or each crash/boot cycle leaks the 48 MiB footprint
  // until boot cannot charge it (found by the Debug/ASan suite).
  NodeWorld w;
  for (int cycle = 0; cycle < 20; ++cycle) {
    auto c = w.node->create_container({.name = "c"});
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
    w.node->crash();
    EXPECT_EQ(w.node->memory().used(), 0u) << "cycle " << cycle;
    w.node->boot();
    EXPECT_EQ(w.node->memory().used(), 48ull << 20) << "cycle " << cycle;
  }
}

TEST(NodeOs, ImageCacheRespectsSdCapacity) {
  NodeWorld w;
  EXPECT_TRUE(w.node->add_image_layer("base:1", 10ull << 30).ok());
  EXPECT_TRUE(w.node->has_image_layer("base:1"));
  // 16 GB card: a second 10 GB layer cannot fit.
  util::Status full = w.node->add_image_layer("huge:1", 10ull << 30);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, "disk_full");
  // Re-adding a cached layer is a no-op success.
  EXPECT_TRUE(w.node->add_image_layer("base:1", 10ull << 30).ok());
  EXPECT_EQ(w.node->cached_layers(), std::vector<std::string>{"base:1"});
}

TEST(NodeOs, CreateRequiresCachedImage) {
  NodeWorld w;
  auto missing = w.node->create_container({.name = "x", .image_id = "nope:1"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, "no_image");
}

TEST(NodeOs, StatsReflectLoad) {
  NodeWorld w;
  auto c = w.node->create_container({.name = "c"});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->start(net::Ipv4Addr(10, 0, 0, 10)).ok());
  c.value()->run_cpu(1e12, [](bool) {});
  auto stats = w.node->stats();
  EXPECT_EQ(stats.containers_running, 1);
  EXPECT_DOUBLE_EQ(stats.cpu_utilization, 1.0);
  EXPECT_GT(stats.power_watts, w.device.spec().idle_watts);
}

}  // namespace
}  // namespace picloud::os
