// A message crossing the net layer in steady state allocates nothing: the
// fabric recycles flow records and routes into their path vectors, the SDN
// controller walks its installed rules into that path, and Network parks the
// message in a recycled slot, so the fabric callback and the delivery event
// fit inline. The global operator new below counts every allocation in this
// binary, so this test lives in a binary of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/addr.h"
#include "net/fabric.h"
#include "net/network.h"
#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "util/json.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: GCC 12 flags free() on an operator new pointer
// (-Wmismatched-new-delete) when it inlines these into a Release caller.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace picloud::net {
namespace {

TEST(NetAllocations, SteadyStateMessagesAllocateNothing) {
  sim::Simulation sim;
  Fabric fabric(sim);
  MultiRootTreeConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  const Topology topo = build_multi_root_tree(fabric, cfg);
  SdnController sdn(sim, SdnPolicy::kEcmp);
  fabric.set_routing(&sdn);
  Network network(sim, fabric);
  std::vector<Ipv4Addr> ips;
  for (size_t i = 0; i < topo.hosts.size(); ++i) {
    ips.push_back(Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
    network.bind_ip(ips.back(), topo.hosts[i]);
  }
  std::size_t delivered = 0;
  network.listen(ips[0], 80, [&delivered](const Message&) { ++delivered; });

  // Every other host sends four messages to host 0, all at one instant, so
  // the flows share host 0's downlink and the solver re-solves components.
  constexpr int kPerSender = 4;
  auto build_batch = [&ips]() {
    std::vector<Message> batch;
    for (size_t h = 1; h < ips.size(); ++h) {
      for (int i = 0; i < kPerSender; ++i) {
        Message msg;
        msg.src = ips[h];
        msg.dst = ips[0];
        msg.src_port = 4000;
        msg.dst_port = 80;
        msg.payload = util::Json(util::JsonObject{{"i", i}, {"m", "GET"}});
        batch.push_back(std::move(msg));
      }
    }
    return batch;
  };
  auto send_batch = [&](std::vector<Message>& batch) {
    for (Message& msg : batch) EXPECT_TRUE(network.send(std::move(msg)));
    sim.run();
  };

  // Warm-up: installs the SDN rules and grows every pool to its high water.
  for (int warm = 0; warm < 3; ++warm) {
    std::vector<Message> batch = build_batch();
    send_batch(batch);
  }

  std::vector<Message> batch = build_batch();
  const std::uint64_t solves_before = fabric.solver_stats().component_solves;
  const std::size_t delivered_before = delivered;
  const std::size_t before = g_allocations;
  send_batch(batch);
  const std::size_t allocations = g_allocations - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(delivered - delivered_before, batch.size());
  EXPECT_EQ(batch.size(), 28u);
  EXPECT_GT(fabric.solver_stats().component_solves, solves_before);
}

}  // namespace
}  // namespace picloud::net
