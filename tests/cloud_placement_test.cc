// Placement policy unit tests + cluster monitor behaviour.
#include <gtest/gtest.h>

#include "cloud/monitor.h"
#include "cloud/placement.h"
#include "sim/simulation.h"

namespace picloud::cloud {
namespace {

constexpr std::uint64_t MiB = 1ull << 20;

NodeView make_node(const std::string& hostname, int rack,
                   std::uint64_t mem_used_mib, int containers,
                   double cpu = 0.0) {
  NodeView v;
  v.hostname = hostname;
  v.rack = rack;
  v.alive = true;
  v.mem_capacity = 240 * MiB;
  v.mem_used = mem_used_mib * MiB;
  v.cpu_capacity_hz = 700e6;
  v.cpu_utilization = cpu;
  v.containers = containers;
  return v;
}

PlacementRequest request_30mib() {
  PlacementRequest r;
  r.instance_name = "x";
  r.mem_bytes = 30 * MiB;
  return r;
}

TEST(FirstFit, PicksLowestHostnameThatFits) {
  FirstFitPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-b", 0, 48, 0),
      make_node("pi-a", 0, 230, 0),  // too full
      make_node("pi-c", 0, 48, 0),
  };
  auto picked = policy.pick(nodes, request_30mib());
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value(), "pi-b");
}

TEST(FirstFit, SkipsDeadAndFullNodes) {
  FirstFitPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 48, 0),
      make_node("pi-b", 0, 48, 0),
  };
  nodes[0].alive = false;
  nodes[1].containers = 3;  // at the paper's envelope
  auto picked = policy.pick(nodes, request_30mib());
  ASSERT_FALSE(picked.ok());
  EXPECT_EQ(picked.error().code, "no_capacity");
}

TEST(BestFit, PacksTightest) {
  BestFitPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 48, 0),
      make_node("pi-b", 0, 150, 1),  // tightest that still fits
      make_node("pi-c", 0, 100, 1),
  };
  auto picked = policy.pick(nodes, request_30mib());
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value(), "pi-b");
}

TEST(WorstFit, SpreadsToEmptiest) {
  WorstFitPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 150, 1),
      make_node("pi-b", 0, 48, 0),
      make_node("pi-c", 0, 100, 1),
  };
  auto picked = policy.pick(nodes, request_30mib());
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value(), "pi-b");
}

TEST(RoundRobin, CyclesThroughNodes) {
  RoundRobinPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 48, 0),
      make_node("pi-b", 0, 48, 0),
      make_node("pi-c", 0, 48, 0),
  };
  std::vector<std::string> picks;
  for (int i = 0; i < 6; ++i) {
    auto picked = policy.pick(nodes, request_30mib());
    ASSERT_TRUE(picked.ok());
    picks.push_back(picked.value());
  }
  EXPECT_EQ(picks, (std::vector<std::string>{"pi-a", "pi-b", "pi-c", "pi-a",
                                             "pi-b", "pi-c"}));
}

TEST(LeastLoaded, PicksColdestCpu) {
  LeastLoadedPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 48, 0, 0.9),
      make_node("pi-b", 0, 48, 0, 0.1),
      make_node("pi-c", 0, 48, 0, 0.5),
  };
  auto picked = policy.pick(nodes, request_30mib());
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value(), "pi-b");
}

TEST(RackAffinity, GroupStaysInOneRack) {
  RackAffinityPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 48, 0), make_node("pi-b", 0, 48, 0),
      make_node("pi-c", 1, 48, 0), make_node("pi-d", 1, 48, 0),
  };
  PlacementRequest req = request_30mib();
  req.affinity_group = "hadoop";
  auto first = policy.pick(nodes, req);
  ASSERT_TRUE(first.ok());
  // Find the rack of the first pick; the second must match it.
  int first_rack = first.value() == "pi-a" || first.value() == "pi-b" ? 0 : 1;
  auto second = policy.pick(nodes, req);
  ASSERT_TRUE(second.ok());
  int second_rack = second.value() == "pi-a" || second.value() == "pi-b" ? 0 : 1;
  EXPECT_EQ(first_rack, second_rack);
}

TEST(RackAffinity, PinnedRackIsRespected) {
  RackAffinityPolicy policy;
  std::vector<NodeView> nodes{
      make_node("pi-a", 0, 48, 0),
      make_node("pi-b", 1, 48, 0),
  };
  PlacementRequest req = request_30mib();
  req.rack_affinity = 1;
  auto picked = policy.pick(nodes, req);
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value(), "pi-b");
}

TEST(PlacementLimits, HeadroomShrinksBudget) {
  FirstFitPolicy policy;
  PlacementLimits limits;
  limits.mem_headroom = 0.5;  // only half the RAM may be used
  policy.set_limits(limits);
  std::vector<NodeView> nodes{make_node("pi-a", 0, 100, 0)};
  // 100 + 30 = 130 MiB > 120 MiB budget.
  auto picked = policy.pick(nodes, request_30mib());
  EXPECT_FALSE(picked.ok());
}

TEST(PolicyFactory, AllNamesConstruct) {
  for (const auto& name : policy_names()) {
    auto policy = make_policy(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(policy.value()->name(), name);
  }
  EXPECT_FALSE(make_policy("coin-flip").ok());
}

// ---------------------------------------------------------------------------
// ClusterMonitor

TEST(Monitor, LivenessFollowsHeartbeats) {
  sim::Simulation sim;
  ClusterMonitor monitor(sim);
  monitor.register_node("pi-a", net::Ipv4Addr(10, 0, 1, 1), 0, 700e6);
  EXPECT_TRUE(monitor.alive("pi-a"));  // fresh registration counts
  sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(5));
  NodeHeartbeat::Gauges gauges;
  gauges.cpu_utilization = 0.5;
  monitor.record_sample("pi-a", gauges);
  sim.run_until(sim.now() + sim::Duration::seconds(9));
  EXPECT_TRUE(monitor.alive("pi-a"));
  sim.run_until(sim.now() + sim::Duration::seconds(2));
  EXPECT_FALSE(monitor.alive("pi-a"));
}

TEST(Monitor, SummaryAggregatesOnlyLiveNodes) {
  sim::Simulation sim;
  ClusterMonitor monitor(sim);
  for (int i = 0; i < 3; ++i) {
    std::string name = "pi-" + std::to_string(i);
    monitor.register_node(name, net::Ipv4Addr(10, 0, 1, 1 + i), 0, 700e6);
    NodeHeartbeat::Gauges gauges;
    gauges.cpu_utilization = 0.3;
    gauges.mem_used = 100;
    gauges.mem_capacity = 240;
    gauges.containers_running = 2;
    gauges.power_watts = 3.0;
    monitor.record_sample(name, gauges);
  }
  auto summary = monitor.summary();
  EXPECT_EQ(summary.nodes_alive, 3);
  EXPECT_EQ(summary.containers_running, 6);
  EXPECT_NEAR(summary.avg_cpu_utilization, 0.3, 1e-12);
  EXPECT_NEAR(summary.power_watts, 9.0, 1e-12);
}

TEST(Monitor, BaselineMemIsFirstSample) {
  sim::Simulation sim;
  ClusterMonitor monitor(sim);
  monitor.register_node("pi-a", net::Ipv4Addr(10, 0, 1, 1), 0, 700e6);
  NodeHeartbeat::Gauges first;
  first.mem_used = 48 * MiB;
  monitor.record_sample("pi-a", first);
  NodeHeartbeat::Gauges second = first;
  second.mem_used = 200 * MiB;
  monitor.record_sample("pi-a", second);
  auto views = monitor.views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].baseline_mem, 48 * MiB);
  EXPECT_EQ(views[0].mem_used, 200 * MiB);
  EXPECT_EQ(monitor.samples_ingested(), 2u);
}

TEST(Monitor, SamplesForUnknownNodesIgnored) {
  sim::Simulation sim;
  ClusterMonitor monitor(sim);
  monitor.record_sample("ghost", NodeHeartbeat::Gauges());
  EXPECT_EQ(monitor.samples_ingested(), 0u);
  EXPECT_FALSE(monitor.alive("ghost"));
}

}  // namespace
}  // namespace picloud::cloud
