#include "proto/dhcp.h"

#include "proto/rest.h"
#include "util/check.h"
#include "util/logging.h"

namespace picloud::proto {

DhcpServer::DhcpServer(net::Network& network, net::NetNodeId server_node,
                       net::Ipv4Addr server_ip, DhcpServerConfig config)
    : network_(network),
      sim_(network.simulation()),
      node_(server_node),
      ip_(server_ip),
      config_(config) {
  PICLOUD_CHECK(config_.subnet.contains(config_.range_start))
      << "DHCP range start outside subnet";
  PICLOUD_CHECK(config_.subnet.contains(config_.range_end))
      << "DHCP range end outside subnet";
  PICLOUD_CHECK(config_.range_start <= config_.range_end) << "DHCP range order";
}

DhcpServer::~DhcpServer() { stop(); }

void DhcpServer::start() {
  if (serving_) return;
  serving_ = true;
  network_.listen_node(node_, kDhcpServerPort,
                       [this](const net::Message& msg) { on_message(msg); });
}

void DhcpServer::stop() {
  if (!serving_) return;
  serving_ = false;
  network_.unlisten_node(node_, kDhcpServerPort);
}

void DhcpServer::add_reservation(const std::string& mac, net::Ipv4Addr ip) {
  PICLOUD_CHECK(config_.subnet.contains(ip))
      << "reservation " << ip.to_string() << " outside subnet";
  reservations_[mac] = ip;
}

bool DhcpServer::ip_in_use(net::Ipv4Addr ip, const std::string& for_mac) const {
  auto it = leases_.find(ip.value());
  if (it == leases_.end()) return false;
  if (it->second.mac == for_mac) return false;  // same client: renewal
  return it->second.expires > sim_.now();
}

std::optional<net::Ipv4Addr> DhcpServer::pick_address(const std::string& mac) {
  // Policy order: static reservation, then current lease, then pool scan.
  auto reserved = reservations_.find(mac);
  if (reserved != reservations_.end()) return reserved->second;
  for (const auto& [ipv, lease] : leases_) {
    if (lease.mac == mac) return net::Ipv4Addr(ipv);
  }
  for (net::Ipv4Addr ip = config_.range_start; ip <= config_.range_end;
       ip = ip.next()) {
    if (ip_in_use(ip, mac)) continue;
    // Never hand out a static reservation dynamically.
    bool is_reserved = false;
    for (const auto& [rmac, rip] : reservations_) {
      if (rip == ip && rmac != mac) {
        is_reserved = true;
        break;
      }
    }
    if (!is_reserved) return ip;
  }
  return std::nullopt;
}

void DhcpServer::send_to_client(net::NetNodeId client_node,
                                DhcpServerMessage reply) {
  net::Message msg;
  msg.src = ip_;
  msg.src_port = kDhcpServerPort;
  msg.dst_port = kDhcpClientPort;
  msg.body = std::move(reply);
  network_.send_to_node(node_, client_node, std::move(msg));
}

void DhcpServer::nak(net::NetNodeId client_node, DhcpNakReason reason) {
  ++naks_;
  DhcpServerMessage nak;
  nak.type = DhcpType::kNak;
  nak.reason = reason;
  send_to_client(client_node, std::move(nak));
}

void DhcpServer::on_message(const net::Message& msg) {
  const auto* request = msg.body.get<DhcpClientMessage>();
  if (request == nullptr || request->mac.empty() ||
      request->node == net::kInvalidNode) {
    return;
  }
  const std::string& mac = request->mac;

  if (request->type == DhcpType::kDiscover) {
    ++discovers_;
    auto ip = pick_address(mac);
    if (!ip) {
      nak(request->node, DhcpNakReason::kPoolExhausted);
      return;
    }
    DhcpServerMessage offer;
    offer.type = DhcpType::kOffer;
    offer.ip = *ip;
    offer.lease_s = config_.lease_duration.to_seconds();
    offer.server_ip = ip_;
    offer.server_node = node_;
    LOG_DEBUG("dhcp", "OFFER %s to %s", ip->to_string().c_str(), mac.c_str());
    send_to_client(request->node, std::move(offer));
    return;
  }

  if (request->type == DhcpType::kRequest) {
    const std::optional<net::Ipv4Addr>& requested = request->ip;
    if (!requested || ip_in_use(*requested, mac) ||
        !config_.subnet.contains(*requested)) {
      nak(request->node, DhcpNakReason::kUnavailable);
      return;
    }
    DhcpLease lease;
    lease.mac = mac;
    lease.hostname = request->hostname;
    lease.ip = *requested;
    lease.expires = sim_.now() + config_.lease_duration;
    leases_[requested->value()] = lease;
    ++acks_;
    DhcpServerMessage ack;
    ack.type = DhcpType::kAck;
    ack.ip = *requested;
    ack.lease_s = config_.lease_duration.to_seconds();
    ack.server_node = node_;
    LOG_DEBUG("dhcp", "ACK %s to %s (%s)", requested->to_string().c_str(),
              mac.c_str(), lease.hostname.c_str());
    send_to_client(request->node, std::move(ack));
    if (on_lease_) on_lease_(lease);
  }
}

std::optional<DhcpLease> DhcpServer::lease_for_mac(const std::string& mac) const {
  for (const auto& [ipv, lease] : leases_) {
    if (lease.mac == mac && lease.expires > sim_.now()) return lease;
  }
  return std::nullopt;
}

size_t DhcpServer::active_leases() const {
  size_t n = 0;
  for (const auto& [ipv, lease] : leases_) {
    if (lease.expires > sim_.now()) ++n;
  }
  return n;
}

util::Result<net::Ipv4Addr> DhcpServer::allocate_static(
    const std::string& mac, const std::string& hostname) {
  auto ip = pick_address(mac);
  if (!ip) {
    return util::Error::make("no_capacity", "DHCP pool exhausted");
  }
  DhcpLease lease;
  lease.mac = mac;
  lease.hostname = hostname;
  lease.ip = *ip;
  // Static allocations do not expire (management-plane owned).
  lease.expires = sim::SimTime::max();
  leases_[ip->value()] = lease;
  if (on_lease_) on_lease_(lease);
  return *ip;
}

void DhcpServer::release(net::Ipv4Addr ip) { leases_.erase(ip.value()); }

DhcpClient::DhcpClient(net::Network& network, net::NetNodeId node,
                       std::string mac, std::string hostname)
    : network_(network),
      sim_(network.simulation()),
      node_(node),
      mac_(std::move(mac)),
      hostname_(std::move(hostname)),
      rng_(network.simulation().rng().fork()) {}

DhcpClient::~DhcpClient() { stop(); }

void DhcpClient::start(BoundCallback on_bound) {
  if (state_ != State::kStopped) return;
  on_bound_ = std::move(on_bound);
  network_.listen_node(node_, kDhcpClientPort,
                       [this](const net::Message& msg) { on_message(msg); });
  state_ = State::kInit;
  retry_attempt_ = 0;
  send_discover();
}

void DhcpClient::stop() {
  if (state_ == State::kStopped) return;
  network_.unlisten_node(node_, kDhcpClientPort);
  retry_timer_.cancel();
  renew_timer_.cancel();
  state_ = State::kStopped;
}

void DhcpClient::send_discover() {
  state_ = State::kSelecting;
  ++discovers_sent_;
  send(DhcpType::kDiscover, std::nullopt);
  arm_retry();
}

void DhcpClient::send_request() {
  state_ = State::kRequesting;
  send(DhcpType::kRequest, server_node_);
  arm_retry();
}

void DhcpClient::send(DhcpType type, std::optional<net::NetNodeId> server) {
  DhcpClientMessage body;
  body.hostname = hostname_;
  body.mac = mac_;
  if (type == DhcpType::kRequest) body.ip = offered_ip_;
  body.node = node_;
  body.type = type;
  net::Message msg;
  msg.src = net::Ipv4Addr::any();
  msg.src_port = kDhcpClientPort;
  msg.dst_port = kDhcpServerPort;
  msg.body = std::move(body);
  network_.send_to_node(node_, server, std::move(msg));
}

void DhcpClient::arm_retry() {
  sim::Duration delay =
      backoff_delay(kRetryBase, kRetryCap, retry_attempt_++, rng_);
  retry_timer_.after(sim_, delay, [this]() {
    if (state_ == State::kSelecting || state_ == State::kRequesting) {
      send_discover();
    }
  });
}

void DhcpClient::on_message(const net::Message& msg) {
  const auto* reply = msg.body.get<DhcpServerMessage>();
  if (reply == nullptr) return;

  if (reply->type == DhcpType::kOffer && state_ == State::kSelecting) {
    if (!reply->ip || !reply->server_node) return;
    offered_ip_ = *reply->ip;
    server_node_ = *reply->server_node;
    send_request();
    return;
  }

  if (reply->type == DhcpType::kAck && state_ == State::kRequesting) {
    if (!reply->ip || !reply->lease_s) return;
    ip_ = *reply->ip;
    state_ = State::kBound;
    retry_attempt_ = 0;  // bound: the backoff ladder starts over
    retry_timer_.cancel();
    sim::Duration lease = sim::Duration::seconds(*reply->lease_s);
    // Renew at half-lease by re-requesting the same address.
    renew_timer_.after(sim_, lease / 2.0, [this]() {
      if (state_ != State::kBound) return;
      offered_ip_ = ip_;
      send_request();
    });
    if (on_bound_) on_bound_(ip_, lease);
    return;
  }

  if (reply->type == DhcpType::kNak) {
    // Back to square one after a backed-off delay: a NAK storm (e.g. pool
    // exhaustion) shouldn't keep the whole rack hammering the server.
    state_ = State::kInit;
    sim::Duration delay =
        backoff_delay(kRetryBase, kRetryCap, retry_attempt_++, rng_);
    retry_timer_.after(sim_, delay, [this]() {
      if (state_ == State::kInit) send_discover();
    });
  }
}

}  // namespace picloud::proto
