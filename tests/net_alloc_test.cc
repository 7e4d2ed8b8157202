// A message crossing the net layer in steady state allocates nothing: the
// fabric recycles flow records and routes into their path vectors, the SDN
// controller walks its installed rules into that path, and Network parks the
// message in a recycled slot, so the fabric callback and the delivery event
// fit inline. A typed body (net/body.h) sits inside the message, so moving
// it through the slots allocates nothing either. The global operator new
// below counts every allocation in this binary, so this test lives in a
// binary of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "apps/serving.h"
#include "net/addr.h"
#include "net/fabric.h"
#include "net/network.h"
#include "net/sdn.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

// Out of line, all three: GCC 12 flags free() on an operator new pointer,
// or operator delete on a malloc() pointer (-Wmismatched-new-delete), when
// it inlines these into a Release caller.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace picloud::net {
namespace {

// Sends batches of messages whose bodies `body(i)` builds, every other host
// sending four to host 0 at one instant (so the flows share host 0's
// downlink and the solver re-solves components), and returns how many
// allocations the last batch made once warm.
std::size_t steady_state_allocations(const std::function<Body(int)>& body) {
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

  constexpr int kPerSender = 4;
  auto build_batch = [&ips, &body]() {
    std::vector<Message> batch;
    for (size_t h = 1; h < ips.size(); ++h) {
      for (int i = 0; i < kPerSender; ++i) {
        Message msg;
        msg.src = ips[h];
        msg.dst = ips[0];
        msg.src_port = 4000;
        msg.dst_port = 80;
        msg.body = body(i);
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
  // Bodies of mixed sizes reorder completions, so a recycled flow record can
  // meet a longer route than any it carried in the first batches; by the
  // fourth, every record's path has grown to the longest it will carry.
  for (int warm = 0; warm < 4; ++warm) {
    std::vector<Message> batch = build_batch();
    send_batch(batch);
  }

  std::vector<Message> batch = build_batch();
  const std::uint64_t solves_before = fabric.solver_stats().component_solves;
  const std::size_t delivered_before = delivered;
  const std::size_t before = g_allocations;
  send_batch(batch);
  const std::size_t allocations = g_allocations - before;

  EXPECT_EQ(delivered - delivered_before, batch.size());
  EXPECT_EQ(batch.size(), 28u);
  EXPECT_GT(fabric.solver_stats().component_solves, solves_before);
  return allocations;
}

// The serving tier's bodies: the load generator's request (with a Pareto
// cost) and httpd's reply, with short strings held in place.
TEST(NetAllocations, SteadyStateTypedServingBodiesAllocateNothing) {
  EXPECT_EQ(steady_state_allocations([](int i) {
              if (i % 2 == 0) {
                apps::ServeRequest request;
                request.id = static_cast<std::uint64_t>(i);
                request.path = "/index.html";
                request.cost = 1.7;
                return Body(std::move(request));
              }
              apps::ServeReply reply;
              reply.id = static_cast<std::uint64_t>(i);
              reply.status = 200;
              reply.path = "/index.html";
              reply.brownout = true;
              return Body(std::move(reply));
            }),
            0u);
}

}  // namespace
}  // namespace picloud::net
