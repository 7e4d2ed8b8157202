#include "cloud/gossip.h"

#include <algorithm>

namespace picloud::cloud {

GossipAgent::GossipAgent(net::Network& network, GossipConfig config,
                         util::Rng rng)
    : network_(network),
      sim_(network.simulation()),
      config_(config),
      rng_(rng) {}

GossipAgent::~GossipAgent() { stop(); }

void GossipAgent::start(const std::string& hostname, net::Ipv4Addr self) {
  if (running_) return;
  running_ = true;
  self_hostname_ = hostname;
  self_ip_ = self;
  GossipEntry& me = entries_[hostname];
  me.hostname = hostname;
  me.ip = self;
  // Monotonic across restarts (the SWIM "incarnation" idea): peers hold our
  // pre-restart version, and an equal-or-lower one would be ignored forever.
  me.version = std::max<std::uint64_t>(me.version + 1, 1);
  me.freshened_at = sim_.now();
  network_.listen(self_ip_, kGossipPort,
                  [this](const net::Message& msg) { on_message(msg); });
  round_task_.every(sim_, config_.period, [this]() { round(); });
}

void GossipAgent::stop() {
  if (!running_) return;
  running_ = false;
  round_task_.cancel();
  network_.unlisten(self_ip_, kGossipPort);
}

void GossipAgent::add_seed(const std::string& hostname, net::Ipv4Addr ip) {
  if (entries_.count(hostname) > 0) return;
  GossipEntry entry;
  entry.hostname = hostname;
  entry.ip = ip;
  entry.version = 0;  // nothing heard yet
  entry.freshened_at = sim_.now();
  entries_[hostname] = entry;
}

void GossipAgent::update_self(double cpu, std::uint64_t mem_used,
                              int containers) {
  if (!running_) return;
  GossipEntry& me = entries_[self_hostname_];
  me.cpu = cpu;
  me.mem_used = mem_used;
  me.containers = containers;
  ++me.version;
  me.freshened_at = sim_.now();
}

GossipDigest GossipAgent::digest() const {
  GossipDigest out;
  out.entries.reserve(entries_.size());
  for (const auto& [hostname, e] : entries_) out.entries.push_back(e);
  out.from = self_hostname_;
  return out;
}

void GossipAgent::round() {
  // Liveness is version-staleness: our own version must advance every round
  // even when load figures are unchanged.
  GossipEntry& me = entries_[self_hostname_];
  if (load_provider_) {
    SelfLoad load = load_provider_();
    me.cpu = load.cpu;
    me.mem_used = load.mem_used;
    me.containers = load.containers;
  }
  ++me.version;
  me.freshened_at = sim_.now();
  ++rounds_;

  // Pick `fanout` distinct live peers uniformly.
  std::vector<const GossipEntry*> candidates;
  for (const auto& [hostname, e] : entries_) {
    if (hostname == self_hostname_) continue;
    candidates.push_back(&e);
  }
  if (candidates.empty()) return;
  rng_.shuffle(candidates);
  size_t targets = std::min<size_t>(
      candidates.size(), static_cast<size_t>(std::max(config_.fanout, 1)));
  const GossipDigest payload = digest();
  for (size_t i = 0; i < targets; ++i) {
    net::Message msg;
    msg.src = self_ip_;
    msg.dst = candidates[i]->ip;
    msg.src_port = kGossipPort;
    msg.dst_port = kGossipPort;
    msg.body = payload;
    network_.send(std::move(msg));
    ++messages_sent_;
  }
}

void GossipAgent::on_message(const net::Message& msg) {
  const auto* digest = msg.body.get<GossipDigest>();
  if (digest == nullptr) return;
  for (const GossipEntry& heard : digest->entries) {
    if (heard.hostname.empty() || heard.hostname == self_hostname_) continue;
    GossipEntry& entry = entries_[heard.hostname];
    if (entry.hostname.empty()) {  // newly learned member
      entry.hostname = heard.hostname;
      entry.freshened_at = sim_.now();
    }
    if (heard.version > entry.version) {
      entry = heard;
      entry.freshened_at = sim_.now();
      ++merges_;
    }
  }
}

std::vector<GossipEntry> GossipAgent::view() const {
  std::vector<GossipEntry> out;
  out.reserve(entries_.size());
  for (const auto& [hostname, e] : entries_) out.push_back(e);
  return out;
}

std::optional<GossipEntry> GossipAgent::entry(
    const std::string& hostname) const {
  auto it = entries_.find(hostname);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool GossipAgent::alive(const std::string& hostname) const {
  auto it = entries_.find(hostname);
  if (it == entries_.end()) return false;
  return sim_.now() - it->second.freshened_at <= config_.suspect_after;
}

size_t GossipAgent::live_members() const {
  size_t n = 0;
  for (const auto& [hostname, e] : entries_) {
    if (alive(hostname)) ++n;
  }
  return n;
}

}  // namespace picloud::cloud
