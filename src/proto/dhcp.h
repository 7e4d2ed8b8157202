// DHCP — address assignment for booting Pis and their containers.
//
// Paper §II-A: "A system administrator can implement customised IP and
// naming policies through DHCP and DNS services running on the pimaster."
// The full DORA handshake is modelled (DISCOVER broadcast, OFFER, REQUEST,
// ACK/NAK) over the fabric, so a rack of 14 Pis powering on genuinely
// floods the management network with discovery traffic.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/addr.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/schema.h"

namespace picloud::proto {

inline constexpr std::uint16_t kDhcpServerPort = 67;
inline constexpr std::uint16_t kDhcpClientPort = 68;

enum class DhcpType : std::uint8_t { kDiscover, kOffer, kRequest, kAck, kNak };
constexpr std::array<std::string_view, 5> json_names(DhcpType) {
  return {"discover", "offer", "request", "ack", "nak"};
}

// Why the server NAKed.
enum class DhcpNakReason : std::uint8_t { kPoolExhausted, kUnavailable };
constexpr std::array<std::string_view, 2> json_names(DhcpNakReason) {
  return {"address pool exhausted", "requested address unavailable"};
}

// Client -> server: {"hostname", "ip" (request only), "mac", "node",
// "type":"discover"|"request"}. The server answers at `node`, the client's
// fabric node, since the client has no address yet.
struct DhcpClientMessage : util::JsonSchema<DhcpClientMessage> {
  std::string hostname;
  std::string mac;
  std::optional<net::Ipv4Addr> ip;  // the address requested
  net::NetNodeId node = net::kInvalidNode;
  DhcpType type = DhcpType::kDiscover;

  static constexpr auto json_fields() {
    return std::tuple{util::field("hostname", &DhcpClientMessage::hostname),
                      util::field("ip", &DhcpClientMessage::ip),
                      util::field("mac", &DhcpClientMessage::mac),
                      util::field("node", &DhcpClientMessage::node),
                      util::field("type", &DhcpClientMessage::type)};
  }
};

// Server -> client:
//   offer: {"ip", "lease_s", "server_ip", "server_node", "type":"offer"}
//   ack:   {"ip", "lease_s", "server_node", "type":"ack"}
//   nak:   {"reason", "type":"nak"}
struct DhcpServerMessage : util::JsonSchema<DhcpServerMessage> {
  std::optional<double> lease_s;
  std::optional<net::Ipv4Addr> ip;
  std::optional<net::Ipv4Addr> server_ip;
  std::optional<net::NetNodeId> server_node;
  std::optional<DhcpNakReason> reason;
  DhcpType type = DhcpType::kOffer;

  static constexpr auto json_fields() {
    return std::tuple{util::field("ip", &DhcpServerMessage::ip),
                      util::field("lease_s", &DhcpServerMessage::lease_s),
                      util::field("reason", &DhcpServerMessage::reason),
                      util::field("server_ip", &DhcpServerMessage::server_ip),
                      util::field("server_node",
                                  &DhcpServerMessage::server_node),
                      util::field("type", &DhcpServerMessage::type)};
  }
};

struct DhcpLease {
  std::string mac;
  std::string hostname;
  net::Ipv4Addr ip;
  sim::SimTime expires;
};

struct DhcpServerConfig {
  net::Subnet subnet;                // pool lives inside this subnet
  net::Ipv4Addr range_start;         // first dynamically assignable address
  net::Ipv4Addr range_end;           // last, inclusive
  sim::Duration lease_duration = sim::Duration::minutes(60);
};

class DhcpServer {
 public:
  DhcpServer(net::Network& network, net::NetNodeId server_node,
             net::Ipv4Addr server_ip, DhcpServerConfig config);
  ~DhcpServer();

  void start();
  void stop();

  // Customised IP policy: always hand this MAC this address.
  void add_reservation(const std::string& mac, net::Ipv4Addr ip);

  // Fires on every ACK — the pimaster hooks DNS registration and its node
  // registry here.
  using LeaseCallback = std::function<void(const DhcpLease&)>;
  void set_lease_callback(LeaseCallback cb) { on_lease_ = std::move(cb); }

  std::optional<DhcpLease> lease_for_mac(const std::string& mac) const;
  size_t active_leases() const;
  std::uint64_t discovers_seen() const { return discovers_; }
  std::uint64_t acks_sent() const { return acks_; }
  std::uint64_t naks_sent() const { return naks_; }

  // Direct allocation path, used for container (bridged virtual-host)
  // addresses where the pimaster itself is the requester.
  util::Result<net::Ipv4Addr> allocate_static(const std::string& mac,
                                              const std::string& hostname);
  void release(net::Ipv4Addr ip);

 private:
  void on_message(const net::Message& msg);
  std::optional<net::Ipv4Addr> pick_address(const std::string& mac);
  void send_to_client(net::NetNodeId client_node, DhcpServerMessage reply);
  void nak(net::NetNodeId client_node, DhcpNakReason reason);
  bool ip_in_use(net::Ipv4Addr ip, const std::string& for_mac) const;

  net::Network& network_;
  sim::Simulation& sim_;
  net::NetNodeId node_;
  net::Ipv4Addr ip_;
  DhcpServerConfig config_;
  bool serving_ = false;
  std::map<std::string, net::Ipv4Addr> reservations_;  // mac -> ip
  std::map<std::uint32_t, DhcpLease> leases_;          // ip -> lease
  LeaseCallback on_lease_;
  std::uint64_t discovers_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t naks_ = 0;
};

// Client state machine: Init -> Selecting -> Requesting -> Bound, with
// renewal at half-lease and fallback to rediscovery on NAK/timeout.
class DhcpClient {
 public:
  enum class State { kInit, kSelecting, kRequesting, kBound, kStopped };

  DhcpClient(net::Network& network, net::NetNodeId node, std::string mac,
             std::string hostname);
  ~DhcpClient();

  using BoundCallback =
      std::function<void(net::Ipv4Addr ip, sim::Duration lease)>;

  // Begins the handshake; `on_bound` fires on every (re)bind.
  void start(BoundCallback on_bound);
  void stop();

  State state() const { return state_; }
  net::Ipv4Addr ip() const { return ip_; }
  std::uint64_t discovers_sent() const { return discovers_sent_; }
  // Consecutive unanswered tries since the last bind (drives the backoff).
  int retry_attempt() const { return retry_attempt_; }

  // Retries back off exponentially from kRetryBase up to kRetryCap, with
  // deterministic jitter drawn from a forked util::Rng so a rack of clients
  // power-cycling together doesn't re-flood the server in lockstep
  // (proto::backoff_delay).
  static constexpr sim::Duration kRetryBase = sim::Duration::seconds(2);
  static constexpr sim::Duration kRetryCap = sim::Duration::seconds(30);

 private:
  void send_discover();
  // DHCPREQUEST for offered_ip_ to server_node_ (an offer's answer and the
  // half-lease renewal alike).
  void send_request();
  // Sends a message of `type` to `server`'s node, or broadcasts it when
  // unset.
  void send(DhcpType type, std::optional<net::NetNodeId> server);
  void on_message(const net::Message& msg);
  void arm_retry();

  net::Network& network_;
  sim::Simulation& sim_;
  net::NetNodeId node_;
  std::string mac_;
  std::string hostname_;
  util::Rng rng_;  // jitter stream, forked from the simulation root
  State state_ = State::kStopped;
  net::Ipv4Addr ip_;
  net::Ipv4Addr offered_ip_;
  net::NetNodeId server_node_ = net::kInvalidNode;
  BoundCallback on_bound_;
  sim::Timer retry_timer_;
  sim::Timer renew_timer_;
  std::uint64_t discovers_sent_ = 0;
  int retry_attempt_ = 0;
};

}  // namespace picloud::proto
