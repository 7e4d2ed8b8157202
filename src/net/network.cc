#include "net/network.h"

#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace picloud::net {

Network::Network(sim::Simulation& sim, Fabric& fabric)
    : sim_(sim), fabric_(fabric) {}

Network::~Network() {
  // A cancelled flow calls back at once with success = false, which only
  // unparks its slot.
  for (const InFlight& entry : in_flight_) {
    if (entry.flow != 0) fabric_.cancel_flow(entry.flow);
  }
}

void Network::bind_ip(Ipv4Addr ip, NetNodeId node) {
  PICLOUD_CHECK(!ip.is_any() && !ip.is_broadcast())
      << "bind_ip to reserved address " << ip.to_string();
  ip_to_node_[ip] = node;
}

void Network::unbind_ip(Ipv4Addr ip) { ip_to_node_.erase(ip); }

std::optional<NetNodeId> Network::resolve(Ipv4Addr ip) const {
  auto it = ip_to_node_.find(ip);
  if (it == ip_to_node_.end()) return std::nullopt;
  return it->second;
}

size_t Network::ips_on_node(NetNodeId node) const {
  size_t n = 0;
  for (const auto& [ip, nid] : ip_to_node_) {
    if (nid == node) ++n;
  }
  return n;
}

void Network::listen(Ipv4Addr ip, std::uint16_t port, Handler handler) {
  listeners_[{ip.value(), port}] = std::move(handler);
}

void Network::unlisten(Ipv4Addr ip, std::uint16_t port) {
  listeners_.erase({ip.value(), port});
}

bool Network::send(Message msg) {
  auto src_node = resolve(msg.src);
  if (!src_node) return false;
  ++sent_;

  if (msg.dst.is_broadcast()) {
    // Deliver a copy to every listener on the port, except the sender.
    // Collect first: transmit() may mutate listener state via callbacks.
    std::vector<Ipv4Addr> targets;
    for (const auto& [key, handler] : listeners_) {
      if (key.second != msg.dst_port) continue;
      Ipv4Addr ip(key.first);
      if (ip == msg.src) continue;
      targets.push_back(ip);
    }
    if (targets.empty()) {
      ++dropped_;
      return true;
    }
    for (Ipv4Addr target : targets) {
      auto dst_node = resolve(target);
      if (!dst_node) continue;
      Message copy = msg;
      copy.dst = target;
      transmit(*src_node, *dst_node, std::move(copy), std::nullopt);
    }
    return true;
  }

  auto dst_node = resolve(msg.dst);
  if (!dst_node) {
    ++dropped_;
    LOG_DEBUG("net", "no route to host %s", msg.dst.to_string().c_str());
    return true;
  }
  transmit(*src_node, *dst_node, std::move(msg), std::nullopt);
  return true;
}

// Runs once per message. The slot table and its free list grow only to
// their high water, and both closures fit inline.
// picloud-hot
void Network::transmit(NetNodeId src_node, NetNodeId dst_node, Message msg,
                       std::optional<NetNodeId> l2_node) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Parked& parked = in_flight_[slot].parked;
  parked.msg = std::move(msg);
  parked.l2_node = l2_node;
  FlowSpec spec;
  spec.src = src_node;
  spec.dst = dst_node;
  spec.bytes = parked.msg.wire_bytes();
  // The fabric fires this once, after the last byte, with the propagation
  // delay of the path it admitted the flow on.
  spec.on_complete = [this, slot](sim::Duration delay, bool success) {
    in_flight_[slot].flow = 0;
    if (!success) {
      ++dropped_;
      unpark(slot);
      return;
    }
    in_flight_[slot].delivery.after(sim_, delay,
                                    [this, slot]() { arrive(slot); });
  };
  in_flight_[slot].flow = fabric_.start_flow(std::move(spec));
}

Network::Parked Network::unpark(std::uint32_t slot) {
  Parked parked = std::move(in_flight_[slot].parked);
  free_slots_.push_back(slot);
  return parked;
}

void Network::arrive(std::uint32_t slot) {
  Parked parked = unpark(slot);
  // Delivery schedule point (DESIGN.md §13): in a default run the hub is
  // empty and the message is handed to its listener right here, exactly
  // where it always was. Under a model-checking strategy the delivery is
  // parked and the strategy picks its place in the interleaving.
  if (!sim_.schedule_points().active()) {
    deliver(parked.msg, parked.l2_node);
    return;
  }
  const Message& msg = parked.msg;
  sim::SchedulePoint point;
  point.kind = sim::SchedulePointKind::kDelivery;
  if (parked.l2_node) {
    point.object = "node" + std::to_string(*parked.l2_node);
    point.label = "deliver-l2:" + point.object + ":" +
                  std::to_string(msg.dst_port);
  } else {
    point.object = msg.dst.to_string();
    point.label = "deliver:" + msg.src.to_string() + ":" +
                  std::to_string(msg.src_port) + ">" + point.object + ":" +
                  std::to_string(msg.dst_port);
  }
  point.src_ip = msg.src.to_string();
  point.dst_ip = msg.dst.to_string();
  point.src_port = msg.src_port;
  point.dst_port = msg.dst_port;
  // The closure keeps the message it parked and hands it to the listener
  // to own, as a default run does.
  sim_.schedule_points().intercept(
      std::move(point), [this, parked = std::move(parked)]() mutable {
        deliver(parked.msg, parked.l2_node);
      });
}

void Network::listen_node(NetNodeId node, std::uint16_t port, Handler handler) {
  node_listeners_[{node, port}] = std::move(handler);
}

void Network::unlisten_node(NetNodeId node, std::uint16_t port) {
  node_listeners_.erase({node, port});
}

void Network::send_to_node(NetNodeId src_node, std::optional<NetNodeId> dst_node,
                           Message msg) {
  ++sent_;
  if (dst_node) {
    transmit(src_node, *dst_node, std::move(msg), dst_node);
    return;
  }
  // L2 broadcast to every node listener on the port.
  std::vector<NetNodeId> targets;
  for (const auto& [key, handler] : node_listeners_) {
    if (key.second == msg.dst_port && key.first != src_node) {
      targets.push_back(key.first);
    }
  }
  if (targets.empty()) {
    ++dropped_;
    return;
  }
  for (NetNodeId target : targets) transmit(src_node, target, msg, target);
}

void Network::deliver(Message& msg, std::optional<NetNodeId> l2_node) {
  // Copy the handler: it may unlisten itself while running.
  Handler handler;
  if (l2_node) {
    auto it = node_listeners_.find({*l2_node, msg.dst_port});
    if (it != node_listeners_.end()) handler = it->second;
  } else {
    auto it = listeners_.find({msg.dst.value(), msg.dst_port});
    if (it != listeners_.end()) handler = it->second;
  }
  if (!handler) {
    ++dropped_;
    LOG_DEBUG("net", "port unreachable %s:%u", msg.dst.to_string().c_str(),
              msg.dst_port);
    return;
  }
  ++delivered_;
  handler(msg);
}

}  // namespace picloud::net
