// Network (message layer) tests: addressing, delivery, broadcast,
// node-level pre-IP messaging, drop semantics.
#include <gtest/gtest.h>

#include "net/addr.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace picloud::net {
namespace {

TEST(Ipv4Addr, ParseAndFormat) {
  auto a = Ipv4Addr::parse("10.0.1.17");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.1.17");
  EXPECT_EQ(*a, Ipv4Addr(10, 0, 1, 17));
  EXPECT_FALSE(Ipv4Addr::parse("10.0.1").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.0.1.256").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("ten.0.1.2").has_value());
}

TEST(Subnet, ContainmentAndRanges) {
  auto subnet = Subnet::parse("10.0.0.0/16");
  ASSERT_TRUE(subnet.has_value());
  EXPECT_TRUE(subnet->contains(Ipv4Addr(10, 0, 255, 1)));
  EXPECT_FALSE(subnet->contains(Ipv4Addr(10, 1, 0, 1)));
  EXPECT_EQ(subnet->first_host(), Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(subnet->last_host(), Ipv4Addr(10, 0, 255, 254));
  EXPECT_EQ(subnet->broadcast_addr(), Ipv4Addr(10, 0, 255, 255));
  EXPECT_EQ(subnet->host_capacity(), 65534u);
  EXPECT_EQ(subnet->to_string(), "10.0.0.0/16");
}

TEST(Subnet, SlashThirtyTwoHasNoHosts) {
  Subnet s(Ipv4Addr(1, 2, 3, 4), 32);
  EXPECT_EQ(s.host_capacity(), 0u);
  EXPECT_TRUE(s.contains(Ipv4Addr(1, 2, 3, 4)));
}

struct MessageWorld {
  sim::Simulation sim;
  Fabric fabric{sim};
  Network network{sim, fabric};
  Topology topo;

  MessageWorld() { topo = build_single_rack(fabric, 4); }
};

TEST(Network, UnicastDeliveryWithLatency) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  sim::SimTime delivered_at;
  std::string got;
  w.network.listen(b, 80, [&](const Message& msg) {
    got = msg.payload.as_string();
    delivered_at = w.sim.now();
  });
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.payload = "hello";
  EXPECT_TRUE(w.network.send(msg));
  w.sim.run();
  EXPECT_EQ(got, "hello");
  // Serialization (71 B over 100 Mb) + 2 hops of 50 us propagation.
  EXPECT_GT(delivered_at.to_seconds(), 100e-6);
  EXPECT_EQ(w.network.messages_delivered(), 1u);
}

// Delivery timing: a message arrives when its flow's last byte is
// serialised plus the propagation delay of the path the flow was admitted on.

// Sends `msg` on an idle fabric and returns how long it took to arrive.
sim::Duration one_way(sim::Simulation& sim, Network& network, Message msg) {
  const sim::SimTime sent = sim.now();
  sim::SimTime arrived = sent;
  network.listen(msg.dst, msg.dst_port,
                 [&](const Message&) { arrived = sim.now(); });
  EXPECT_TRUE(network.send(std::move(msg)));
  sim.run();
  return arrived - sent;
}

TEST(Network, UnicastArrivesAtFlowCompletionPlusPathDelay) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.payload = "hello";

  // A bare flow of the message's wire size over the same idle path.
  FlowSpec spec;
  spec.src = w.topo.hosts[0];
  spec.dst = w.topo.hosts[1];
  spec.bytes = msg.wire_bytes();
  sim::SimTime flow_done;
  spec.on_complete = [&](auto, bool ok) {
    EXPECT_TRUE(ok);
    flow_done = w.sim.now();
  };
  const sim::SimTime flow_start = w.sim.now();
  FlowId id = w.fabric.start_flow(std::move(spec));
  const sim::Duration path_delay = w.fabric.path_delay(w.fabric.flow_path(id));
  w.sim.run();
  EXPECT_EQ(path_delay, sim::Duration::micros(100));  // 2 hops of 50 us

  EXPECT_EQ(one_way(w.sim, w.network, msg),
            (flow_done - flow_start) + path_delay);
}

// The fabric charges the header, the payload's encoded size and the padding:
// {"id":7,"op":"get"} encodes to 19 bytes, so with 100 bytes of padding the
// message is a 64 + 19 + 100 = 183-byte flow.
TEST(Network, WireBytesAreHeaderEncodedPayloadAndPadding) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);

  FlowSpec spec;
  spec.src = w.topo.hosts[0];
  spec.dst = w.topo.hosts[1];
  spec.bytes = 183;
  sim::SimTime flow_done;
  spec.on_complete = [&](auto, bool ok) {
    EXPECT_TRUE(ok);
    flow_done = w.sim.now();
  };
  const sim::SimTime flow_start = w.sim.now();
  FlowId id = w.fabric.start_flow(std::move(spec));
  const sim::Duration path_delay = w.fabric.path_delay(w.fabric.flow_path(id));
  w.sim.run();

  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.payload = util::Json::object().set("id", 7).set("op", "get");
  msg.padding_bytes = 100;
  EXPECT_EQ(one_way(w.sim, w.network, msg),
            (flow_done - flow_start) + path_delay);
}

TEST(Network, SameHostMessageTakesTwoLoopbackDelays) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[0]);  // two containers on one Pi
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 80;
  msg.payload = "hello";
  EXPECT_EQ(one_way(w.sim, w.network, msg),
            Fabric::kLoopbackDelay + Fabric::kLoopbackDelay);
}

TEST(Network, L2UnicastArrivesWithIpUnicastTiming) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 67;
  msg.payload = "discover";
  const sim::Duration ip_latency = one_way(w.sim, w.network, msg);

  const sim::SimTime sent = w.sim.now();
  sim::SimTime arrived = sent;
  w.network.listen_node(w.topo.hosts[1], 67,
                        [&](const Message&) { arrived = w.sim.now(); });
  w.network.send_to_node(w.topo.hosts[0], w.topo.hosts[1], msg);
  w.sim.run();
  EXPECT_GT(ip_latency, sim::Duration::zero());
  EXPECT_EQ(arrived - sent, ip_latency);
}

// Hosts a and b joined by two equal-hop paths: a fast one (50 us a hop) that
// shortest-path routing admits flows on, and a slow one (5 ms a hop).
struct TwoPathWorld {
  sim::Simulation sim;
  Fabric fabric{sim};
  Network network{sim, fabric};
  NetNodeId a = fabric.add_node(NodeKind::kHost, "a");
  NetNodeId b = fabric.add_node(NodeKind::kHost, "b");
  NetNodeId fast = fabric.add_node(NodeKind::kSwitch, "fast");
  NetNodeId slow = fabric.add_node(NodeKind::kSwitch, "slow");
  LinkId a_fast =
      fabric.add_link(a, fast, 100e6, sim::Duration::micros(50)).first;

  TwoPathWorld() {
    fabric.add_link(a, slow, 100e6, sim::Duration::millis(5));
    fabric.add_link(fast, b, 100e6, sim::Duration::micros(50));
    fabric.add_link(slow, b, 100e6, sim::Duration::millis(5));
  }
  // Cuts the fast path halfway through a 0.1 s transfer.
  void cut_fast_path_midway() {
    sim.after(sim::Duration::millis(50),
              [this]() { fabric.set_link_pair_up(a_fast, false); });
  }
};

TEST(Network, RerouteKeepsTheAdmittedPathDelay) {
  Message msg;
  msg.src = Ipv4Addr(10, 0, 0, 1);
  msg.dst = Ipv4Addr(10, 0, 0, 2);
  msg.dst_port = 80;
  msg.padding_bytes = 1.25e6;  // 0.1 s at 100 Mb/s

  // A bare flow of the message's size, moved onto the slow path mid-transfer.
  TwoPathWorld bare;
  FlowSpec spec;
  spec.src = bare.a;
  spec.dst = bare.b;
  spec.bytes = msg.wire_bytes();
  sim::SimTime flow_done;
  spec.on_complete = [&](auto, bool ok) {
    EXPECT_TRUE(ok);
    flow_done = bare.sim.now();
  };
  FlowId id = bare.fabric.start_flow(std::move(spec));
  const sim::Duration admitted =
      bare.fabric.path_delay(bare.fabric.flow_path(id));
  EXPECT_EQ(admitted, sim::Duration::micros(100));
  bare.cut_fast_path_midway();
  bare.sim.run();
  EXPECT_EQ(bare.sim.metrics().counter_value("net.fabric.reroutes"), 1u);

  // The same transfer as a message: delivered after the fast path's 100 us,
  // not the slow path's 10 ms.
  TwoPathWorld w;
  w.network.bind_ip(msg.src, w.a);
  w.network.bind_ip(msg.dst, w.b);
  w.cut_fast_path_midway();
  EXPECT_EQ(sim::SimTime::zero() + one_way(w.sim, w.network, msg),
            flow_done + admitted);
  EXPECT_EQ(w.sim.metrics().counter_value("net.fabric.reroutes"), 1u);
}

TEST(Network, UnboundSourceRefused) {
  MessageWorld w;
  Message msg;
  msg.src = Ipv4Addr(9, 9, 9, 9);
  msg.dst = Ipv4Addr(10, 0, 0, 2);
  msg.dst_port = 80;
  EXPECT_FALSE(w.network.send(msg));
}

TEST(Network, UnknownDestinationDrops) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1);
  w.network.bind_ip(a, w.topo.hosts[0]);
  Message msg;
  msg.src = a;
  msg.dst = Ipv4Addr(10, 0, 0, 99);
  msg.dst_port = 80;
  EXPECT_TRUE(w.network.send(msg));  // accepted, then dropped
  w.sim.run();
  EXPECT_EQ(w.network.messages_dropped(), 1u);
  EXPECT_EQ(w.network.messages_delivered(), 0u);
}

TEST(Network, PortUnreachableDrops) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.dst_port = 81;  // nobody listening
  w.network.send(msg);
  w.sim.run();
  EXPECT_EQ(w.network.messages_dropped(), 1u);
}

TEST(Network, BroadcastReachesAllListenersExceptSender) {
  MessageWorld w;
  Ipv4Addr ips[3] = {Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                     Ipv4Addr(10, 0, 0, 3)};
  int received = 0;
  for (int i = 0; i < 3; ++i) {
    w.network.bind_ip(ips[i], w.topo.hosts[i]);
    w.network.listen(ips[i], 67, [&](const Message&) { ++received; });
  }
  Message msg;
  msg.src = ips[0];
  msg.dst = Ipv4Addr::broadcast();
  msg.dst_port = 67;
  w.network.send(msg);
  w.sim.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, NodeLevelMessagingWorksWithoutIp) {
  MessageWorld w;
  int got = 0;
  w.network.listen_node(w.topo.hosts[1], 67,
                        [&](const Message&) { ++got; });
  Message msg;
  msg.dst_port = 67;
  w.network.send_to_node(w.topo.hosts[0], std::nullopt, msg);  // broadcast
  w.network.send_to_node(w.topo.hosts[0], w.topo.hosts[1], msg);  // unicast
  w.sim.run();
  EXPECT_EQ(got, 2);
}

TEST(Network, RebindMovesDelivery) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), vip(10, 0, 0, 50);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(vip, w.topo.hosts[1]);
  // The "migration": vip moves from host 1 to host 2.
  w.network.bind_ip(vip, w.topo.hosts[2]);
  EXPECT_EQ(w.network.resolve(vip), std::optional<NetNodeId>(w.topo.hosts[2]));
  EXPECT_EQ(w.network.ips_on_node(w.topo.hosts[1]), 0u);  // vip moved away
  EXPECT_EQ(w.network.ips_on_node(w.topo.hosts[2]), 1u);
  int got = 0;
  w.network.listen(vip, 80, [&](const Message&) { ++got; });
  Message msg;
  msg.src = a;
  msg.dst = vip;
  msg.dst_port = 80;
  w.network.send(msg);
  w.sim.run();
  EXPECT_EQ(got, 1);
}

TEST(Network, PaddingBytesStretchTransferTime) {
  MessageWorld w;
  Ipv4Addr a(10, 0, 0, 1), b(10, 0, 0, 2);
  w.network.bind_ip(a, w.topo.hosts[0]);
  w.network.bind_ip(b, w.topo.hosts[1]);
  sim::SimTime small_at, big_at;
  w.network.listen(b, 80, [&](const Message& msg) {
    (msg.padding_bytes > 0 ? big_at : small_at) = w.sim.now();
  });
  Message small;
  small.src = a;
  small.dst = b;
  small.dst_port = 80;
  w.network.send(small);
  w.sim.run();
  Message big = small;
  big.padding_bytes = 1.25e6;  // 0.1 s at 100 Mb/s
  sim::SimTime start = w.sim.now();
  w.network.send(big);
  w.sim.run();
  EXPECT_GT((big_at - start).to_seconds(), 0.09);
}

}  // namespace
}  // namespace picloud::net
