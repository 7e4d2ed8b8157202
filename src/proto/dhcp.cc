#include "proto/dhcp.h"

#include "proto/rest.h"
#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"

namespace picloud::proto {

using util::Json;

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

void DhcpServer::send_to_client(net::NetNodeId client_node, Json payload) {
  net::Message msg;
  msg.src = ip_;
  msg.src_port = kDhcpServerPort;
  msg.dst_port = kDhcpClientPort;
  msg.payload = std::move(payload);
  network_.send_to_node(node_, client_node, std::move(msg));
}

void DhcpServer::on_message(const net::Message& msg) {
  const Json& j = msg.payload;
  std::string type = j.get_string("type");
  std::string mac = j.get_string("mac");
  std::string hostname = j.get_string("hostname");
  auto client_node =
      static_cast<net::NetNodeId>(j.get_number("node", net::kInvalidNode));
  if (mac.empty() || client_node == net::kInvalidNode) return;

  if (type == "discover") {
    ++discovers_;
    auto ip = pick_address(mac);
    if (!ip) {
      ++naks_;
      Json nak = Json::object();
      nak.set("type", "nak");
      nak.set("reason", "address pool exhausted");
      send_to_client(client_node, std::move(nak));
      return;
    }
    Json offer = Json::object();
    offer.set("type", "offer");
    offer.set("ip", ip->to_string());
    offer.set("lease_s", config_.lease_duration.to_seconds());
    offer.set("server_ip", ip_.to_string());
    offer.set("server_node", node_);
    LOG_DEBUG("dhcp", "OFFER %s to %s", ip->to_string().c_str(), mac.c_str());
    send_to_client(client_node, std::move(offer));
    return;
  }

  if (type == "request") {
    auto requested = net::Ipv4Addr::parse(j.get_string("ip"));
    if (!requested || ip_in_use(*requested, mac) ||
        !config_.subnet.contains(*requested)) {
      ++naks_;
      Json nak = Json::object();
      nak.set("type", "nak");
      nak.set("reason", "requested address unavailable");
      send_to_client(client_node, std::move(nak));
      return;
    }
    DhcpLease lease;
    lease.mac = mac;
    lease.hostname = hostname;
    lease.ip = *requested;
    lease.expires = sim_.now() + config_.lease_duration;
    leases_[requested->value()] = lease;
    ++acks_;
    Json ack = Json::object();
    ack.set("type", "ack");
    ack.set("ip", requested->to_string());
    ack.set("lease_s", config_.lease_duration.to_seconds());
    ack.set("server_node", node_);
    LOG_DEBUG("dhcp", "ACK %s to %s (%s)", requested->to_string().c_str(),
              mac.c_str(), hostname.c_str());
    send_to_client(client_node, std::move(ack));
    if (on_lease_) on_lease_(lease);
    return;
  }

  if (type == "release") {
    auto released = net::Ipv4Addr::parse(j.get_string("ip"));
    if (released) release(*released);
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
  Json discover = Json::object();
  discover.set("type", "discover");
  discover.set("mac", mac_);
  discover.set("hostname", hostname_);
  discover.set("node", node_);
  net::Message msg;
  msg.src = net::Ipv4Addr::any();
  msg.src_port = kDhcpClientPort;
  msg.dst_port = kDhcpServerPort;
  msg.payload = std::move(discover);
  network_.send_to_node(node_, std::nullopt, std::move(msg));
  arm_retry();
}

void DhcpClient::send_request() {
  state_ = State::kRequesting;
  Json request = Json::object();
  request.set("type", "request");
  request.set("mac", mac_);
  request.set("hostname", hostname_);
  request.set("node", node_);
  request.set("ip", offered_ip_.to_string());
  net::Message msg;
  msg.src = net::Ipv4Addr::any();
  msg.src_port = kDhcpClientPort;
  msg.dst_port = kDhcpServerPort;
  msg.payload = std::move(request);
  network_.send_to_node(node_, server_node_, std::move(msg));
  arm_retry();
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
  const Json& j = msg.payload;
  std::string type = j.get_string("type");

  if (type == "offer" && state_ == State::kSelecting) {
    auto ip = net::Ipv4Addr::parse(j.get_string("ip"));
    if (!ip) return;
    offered_ip_ = *ip;
    server_node_ = static_cast<net::NetNodeId>(
        j.get_number("server_node", net::kInvalidNode));
    send_request();
    return;
  }

  if (type == "ack" && state_ == State::kRequesting) {
    auto ip = net::Ipv4Addr::parse(j.get_string("ip"));
    if (!ip) return;
    ip_ = *ip;
    state_ = State::kBound;
    retry_attempt_ = 0;  // bound: the backoff ladder starts over
    retry_timer_.cancel();
    sim::Duration lease = sim::Duration::seconds(j.get_number("lease_s", 3600));
    // Renew at half-lease by re-requesting the same address.
    renew_timer_.after(sim_, lease / 2.0, [this]() {
      if (state_ != State::kBound) return;
      offered_ip_ = ip_;
      send_request();
    });
    if (on_bound_) on_bound_(ip_, lease);
    return;
  }

  if (type == "nak") {
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
