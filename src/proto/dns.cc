#include "proto/dns.h"

#include <vector>

#include "util/json.h"

namespace picloud::proto {

using util::Json;

DnsServer::DnsServer(net::Network& network, net::Ipv4Addr server_ip,
                     sim::Duration record_ttl)
    : network_(network), ip_(server_ip), ttl_(record_ttl) {}

DnsServer::~DnsServer() { stop(); }

void DnsServer::start() {
  if (serving_) return;
  serving_ = true;
  network_.listen(ip_, kDnsPort,
                  [this](const net::Message& msg) { on_message(msg); });
}

void DnsServer::stop() {
  if (!serving_) return;
  serving_ = false;
  network_.unlisten(ip_, kDnsPort);
}

void DnsServer::add_record(const std::string& name, net::Ipv4Addr ip) {
  records_[name] = ip;
}

void DnsServer::remove_record(const std::string& name) {
  records_.erase(name);
}

std::optional<net::Ipv4Addr> DnsServer::lookup(const std::string& name) const {
  auto it = records_.find(name);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> DnsServer::reverse(net::Ipv4Addr ip) const {
  for (const auto& [name, addr] : records_) {
    if (addr == ip) return name;
  }
  return std::nullopt;
}

std::vector<std::string> DnsServer::names() const {
  std::vector<std::string> out;
  out.reserve(records_.size());
  for (const auto& [name, addr] : records_) out.push_back(name);
  return out;
}

void DnsServer::on_message(const net::Message& msg) {
  const Json& j = msg.payload;
  std::string name = j.get_string("q");
  ++queries_;
  Json answer = Json::object();
  answer.set("id", j.get_number("id"));
  auto found = lookup(name);
  if (found) {
    answer.set("a", found->to_string());
    answer.set("ttl_s", ttl_.to_seconds());
  } else {
    answer.set("nx", true);
  }
  net::Message reply;
  reply.src = ip_;
  reply.dst = msg.src;
  reply.src_port = kDnsPort;
  reply.dst_port = msg.src_port;
  reply.payload = std::move(answer);
  network_.send(std::move(reply));
}

DnsResolver::DnsResolver(net::Network& network, net::Ipv4Addr self,
                         net::Ipv4Addr server, std::uint16_t client_port)
    : network_(network),
      sim_(network.simulation()),
      self_(self),
      server_(server),
      port_(client_port) {
  network_.listen(self_, port_,
                  [this](const net::Message& msg) { on_message(msg); });
}

DnsResolver::~DnsResolver() {
  network_.unlisten(self_, port_);
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    finish(id, util::Error::make("cancelled", "resolver destroyed"));
  }
}

void DnsResolver::resolve(const std::string& name, ResolveCallback cb,
                          sim::Duration timeout) {
  auto cached = cache_.find(name);
  if (cached != cache_.end() && cached->second.expires > sim_.now()) {
    ++cache_hits_;
    net::Ipv4Addr ip = cached->second.ip;
    sim_.after(sim::Duration::zero(), [cb = std::move(cb), ip]() {
      cb(ip);  // async like a real resolver, even on cache hit
    });
    return;
  }

  std::uint64_t id = next_id_++;
  ++queries_sent_;
  Pending& pending = pending_[id];
  pending.name = name;
  pending.cb = std::move(cb);
  pending.timer.after(sim_, timeout, [this, id]() {
    finish(id, util::Error::make("timeout", "DNS query timed out"));
  });

  Json query = Json::object();
  query.set("q", name);
  query.set("id", static_cast<unsigned long long>(id));
  net::Message msg;
  msg.src = self_;
  msg.dst = server_;
  msg.src_port = port_;
  msg.dst_port = kDnsPort;
  msg.payload = std::move(query);
  network_.send(std::move(msg));
}

void DnsResolver::on_message(const net::Message& msg) {
  const Json& j = msg.payload;
  std::uint64_t id = static_cast<std::uint64_t>(j.get_number("id"));
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  if (j.get_bool("nx")) {
    finish(id, util::Error::make("not_found",
                                 "NXDOMAIN: " + it->second.name));
    return;
  }
  auto ip = net::Ipv4Addr::parse(j.get_string("a"));
  if (!ip) {
    finish(id, util::Error::make("bad_response", "malformed DNS answer"));
    return;
  }
  CacheEntry entry;
  entry.ip = *ip;
  entry.expires =
      sim_.now() + sim::Duration::seconds(j.get_number("ttl_s", 60));
  cache_[it->second.name] = entry;
  finish(id, *ip);
}

void DnsResolver::finish(std::uint64_t id,
                         util::Result<net::Ipv4Addr> result) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  ResolveCallback cb = std::move(it->second.cb);
  pending_.erase(it);  // cancels the timeout
  if (cb) cb(std::move(result));
}

}  // namespace picloud::proto
