// DNS — the pimaster's naming service.
//
// Hostnames ("pi-r2-07", "web-frontend-1.containers.picloud") resolve to the
// DHCP-assigned addresses. The server answers queries over the fabric on
// port 53; DnsResolver adds client-side caching with TTL so repeated
// resolution does not hammer the management network.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "net/addr.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/result.h"
#include "util/schema.h"

namespace picloud::proto {

inline constexpr std::uint16_t kDnsPort = 53;

// Resolver -> server: {"id", "q"}, the name to resolve.
struct DnsQuery : util::JsonSchema<DnsQuery> {
  std::string q;
  std::uint64_t id = 0;  // echoed by the answer

  static constexpr auto json_fields() {
    return std::tuple{util::field("id", &DnsQuery::id),
                      util::field("q", &DnsQuery::q)};
  }
};

// Server -> resolver: {"a", "id", "ttl_s"} when the name has a record,
// {"id", "nx":true} when it has none.
struct DnsAnswer : util::JsonSchema<DnsAnswer> {
  std::optional<double> ttl_s;
  std::optional<net::Ipv4Addr> a;
  std::optional<bool> nx;
  std::uint64_t id = 0;

  static constexpr auto json_fields() {
    return std::tuple{util::field("a", &DnsAnswer::a),
                      util::field("id", &DnsAnswer::id),
                      util::field("nx", &DnsAnswer::nx),
                      util::field("ttl_s", &DnsAnswer::ttl_s)};
  }
};

class DnsServer {
 public:
  DnsServer(net::Network& network, net::Ipv4Addr server_ip,
            sim::Duration record_ttl = sim::Duration::seconds(60));
  ~DnsServer();

  void start();
  void stop();

  // Zone management (naming policy lives here).
  void add_record(const std::string& name, net::Ipv4Addr ip);
  void remove_record(const std::string& name);
  // Local (non-network) lookup, used by services co-located on pimaster.
  std::optional<net::Ipv4Addr> lookup(const std::string& name) const;
  // Reverse lookup.
  std::optional<std::string> reverse(net::Ipv4Addr ip) const;

  size_t record_count() const { return records_.size(); }
  std::uint64_t queries_served() const { return queries_; }
  sim::Duration ttl() const { return ttl_; }
  std::vector<std::string> names() const;

 private:
  void on_message(const net::Message& msg);

  net::Network& network_;
  net::Ipv4Addr ip_;
  sim::Duration ttl_;
  bool serving_ = false;
  std::map<std::string, net::Ipv4Addr> records_;
  std::uint64_t queries_ = 0;
};

// Caching stub resolver for one client identity.
class DnsResolver {
 public:
  DnsResolver(net::Network& network, net::Ipv4Addr self,
              net::Ipv4Addr server, std::uint16_t client_port = 5353);
  ~DnsResolver();

  using ResolveCallback = std::function<void(util::Result<net::Ipv4Addr>)>;

  // Resolves `name`; served from cache when fresh, otherwise queries the
  // server (with a timeout -> "timeout" error; NXDOMAIN -> "not_found").
  void resolve(const std::string& name, ResolveCallback cb,
               sim::Duration timeout = sim::Duration::seconds(3));

  size_t cache_size() const { return cache_.size(); }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t queries_sent() const { return queries_sent_; }

 private:
  struct CacheEntry {
    net::Ipv4Addr ip;
    sim::SimTime expires;
  };
  struct Pending {
    std::string name;
    ResolveCallback cb;
    sim::Timer timer;
  };

  void on_message(const net::Message& msg);
  void finish(std::uint64_t id, util::Result<net::Ipv4Addr> result);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  net::Ipv4Addr server_;
  std::uint16_t port_;
  std::map<std::string, CacheEntry> cache_;
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t queries_sent_ = 0;
};

}  // namespace picloud::proto
