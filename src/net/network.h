// Network — datagram-style messaging over the fabric.
//
// Binds IP addresses (assigned by DHCP) to fabric nodes, registers port
// listeners, and carries every message as a real flow so that control-plane
// traffic (REST, DHCP, DNS, heartbeats) contends with data-plane traffic on
// the same links — the cross-layer coupling the paper's argument rests on.
// A message reaches its listener when the flow's last byte is serialised
// plus the propagation delay of the path the fabric admitted the flow on.
// IP and pre-IP (L2) messages share that one path; they differ only in the
// listener table they are delivered from. In flight, a message waits in a
// recycled slot of this Network, so its fabric callback and its delivery
// event each hold only (this, slot) and neither allocates.
//
// Containers are bridged (paper §II-B): a container's IP binds to its host
// device's fabric node, so all containers on one Pi share its 100 Mb NIC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/addr.h"
#include "net/body.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace picloud::net {

struct Message {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  // The body, handed to the receiver as a value: a schema'd struct
  // (net/body.h). On the wire it is its JSON text, so the fabric charges
  // body.wire_size() bytes for it.
  Body body;
  // Bulk body size carried on the wire but not materialised in the body
  // (MapReduce shuffle partitions, file chunks). The fabric charges it;
  // receivers read it as metadata.
  double padding_bytes = 0;

  // L2-L4 framing overhead charged to the fabric per message.
  static constexpr double kHeaderBytes = 64;
  double wire_bytes() const {
    return kHeaderBytes + static_cast<double>(body.wire_size()) +
           padding_bytes;
  }
};

class Network {
 public:
  Network(sim::Simulation& sim, Fabric& fabric);
  // Cancels the flows of the messages still in the fabric, so the fabric
  // never calls back into a destroyed network. The fabric, and the routing
  // provider it was given, must outlive the network.
  ~Network();

  Fabric& fabric() { return fabric_; }
  sim::Simulation& simulation() { return sim_; }

  // --- Address registry -----------------------------------------------------
  // Binds an IP to a fabric node (host NIC or bridged container).
  void bind_ip(Ipv4Addr ip, NetNodeId node);
  void unbind_ip(Ipv4Addr ip);
  std::optional<NetNodeId> resolve(Ipv4Addr ip) const;
  // Number of IPs bound to `node`.
  size_t ips_on_node(NetNodeId node) const;

  // --- Sockets ----------------------------------------------------------------
  // A handler owns the delivered message: it may move the body out. One
  // that takes `const Message&` binds as well.
  using Handler = std::function<void(Message&)>;
  // Registers a listener on (ip, port). Replaces any existing listener.
  void listen(Ipv4Addr ip, std::uint16_t port, Handler handler);
  void unlisten(Ipv4Addr ip, std::uint16_t port);

  // Sends a message. Returns false when the source IP is unbound (caller
  // bug). Unknown destinations and unreachable paths drop the message (a
  // datagram network); reliability lives in proto::rest retries.
  // dst == broadcast delivers a copy to every listener on dst_port (except
  // the sender) — used by DHCP DISCOVER.
  bool send(Message msg);

  // --- Raw node addressing ----------------------------------------------------
  // Pre-IP traffic (the DHCP handshake happens before a node has an address)
  // addresses fabric nodes directly. A node listener receives messages sent
  // with send_to_node() on that port.
  void listen_node(NetNodeId node, std::uint16_t port, Handler handler);
  void unlisten_node(NetNodeId node, std::uint16_t port);
  // Sends from a node (src IP may be 0.0.0.0) to every listener on
  // `dst_port` when `dst_node` is nullopt (L2 broadcast), or to the node
  // listener of `dst_node`.
  void send_to_node(NetNodeId src_node, std::optional<NetNodeId> dst_node,
                    Message msg);

  // --- Counters ----------------------------------------------------------------
  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  // A message between transmit() and its arrival.
  struct Parked {
    Message msg;
    // For pre-IP traffic, the fabric node it is addressed to.
    std::optional<NetNodeId> l2_node;
  };
  struct InFlight {
    Parked parked;
    // The message's flow until it lands (0 afterwards); destroying the
    // Network cancels it.
    FlowId flow = 0;
    // The delivery event once the flow has landed; destroying the Network
    // cancels it.
    sim::Timer delivery;
  };

  // Parks `msg` in a slot and carries it from src_node to dst_node as one
  // fabric flow; once the flow completes and the admitted path's delay has
  // passed, arrive() takes it out.
  void transmit(NetNodeId src_node, NetNodeId dst_node, Message msg,
                std::optional<NetNodeId> l2_node);
  // Moves the message out of `slot` and frees the slot, so a handler that
  // sends (and grows the slot table) never sees it.
  Parked unpark(std::uint32_t slot);
  // The delivery event: unparks the message and hands it to deliver(), or
  // to the schedule-point hub when a strategy is installed.
  void arrive(std::uint32_t slot);
  // Hands `msg` to the listener on its dst_port: the node listener of
  // `l2_node` when set, else the listener of its dst IP.
  void deliver(Message& msg, std::optional<NetNodeId> l2_node);

  sim::Simulation& sim_;
  Fabric& fabric_;
  std::map<Ipv4Addr, NetNodeId> ip_to_node_;
  std::map<std::pair<std::uint32_t, std::uint16_t>, Handler> listeners_;
  std::map<std::pair<NetNodeId, std::uint16_t>, Handler> node_listeners_;
  // In-flight messages by slot; a freed slot is reused by the next send.
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace picloud::net
