// Gossip-based (peer-to-peer) cluster membership and monitoring.
//
// Paper §III: "the flexibility of owning our own testbed allows us to
// consider radical departures to the norm, such as a peer-to-peer Cloud
// management system." This module is that departure: instead of every Pi
// heartbeating the pimaster, each node runs a GossipAgent that periodically
// pushes its view of the whole cluster to a few random peers. State
// converges epidemically; any node can answer "what does the cluster look
// like?", and failures are detected by version staleness rather than by a
// central monitor.
//
// Protocol (JSON datagrams on port 7946, SWIM-flavoured push gossip):
//   every `period`, an agent bumps its own version and sends its full
//   digest to `fanout` random live peers:
//     {"type":"gossip","from":h,"entries":[{"h":..,"ip":..,"v":..,
//       "cpu":..,"mem":..,"ct":..}, ...]}
//   receivers merge entry-wise by version (greater wins) and adopt unknown
//   members. An entry whose version has not advanced within
//   `suspect_after` is suspected dead.
//
// The bench_ablate_gossip harness compares this against the centralized
// monitor on detection latency and management-plane traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/addr.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/rng.h"

namespace picloud::cloud {

inline constexpr std::uint16_t kGossipPort = 7946;

struct GossipEntry {
  std::string hostname;
  net::Ipv4Addr ip;
  std::uint64_t version = 0;
  double cpu = 0;
  std::uint64_t mem_used = 0;
  int containers = 0;
  // Local clock when the version last advanced (not gossiped).
  sim::SimTime freshened_at;
};

struct GossipConfig {
  sim::Duration period = sim::Duration::seconds(1);
  int fanout = 2;
  sim::Duration suspect_after = sim::Duration::seconds(10);
};

class GossipAgent {
 public:
  GossipAgent(net::Network& network, GossipConfig config, util::Rng rng);
  ~GossipAgent();

  GossipAgent(const GossipAgent&) = delete;
  GossipAgent& operator=(const GossipAgent&) = delete;

  // Joins the mesh: registers the listener and begins gossip rounds.
  void start(const std::string& hostname, net::Ipv4Addr self);
  void stop();
  bool running() const { return running_; }

  // Initial membership (a seed list; typically just one other node —
  // everything else is learned epidemically).
  void add_seed(const std::string& hostname, net::Ipv4Addr ip);

  // Refreshes this node's own gossiped load figures (bumps the version).
  void update_self(double cpu, std::uint64_t mem_used, int containers);

  // Optional pull-based refresh: sampled at the start of every round (the
  // facade wires this to NodeOs::stats so gossip carries live load).
  struct SelfLoad {
    double cpu = 0;
    std::uint64_t mem_used = 0;
    int containers = 0;
  };
  void set_load_provider(std::function<SelfLoad()> provider) {
    load_provider_ = std::move(provider);
  }

  // --- The peer-to-peer cluster view -----------------------------------------
  std::vector<GossipEntry> view() const;
  std::optional<GossipEntry> entry(const std::string& hostname) const;
  // Alive = version advanced within the suspicion window.
  bool alive(const std::string& hostname) const;
  size_t known_members() const { return entries_.size(); }
  size_t live_members() const;

  // --- Cost accounting ----------------------------------------------------------
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t merges_applied() const { return merges_; }

 private:
  void on_message(const net::Message& msg);
  void round();
  util::Json digest() const;

  net::Network& network_;
  sim::Simulation& sim_;
  GossipConfig config_;
  util::Rng rng_;
  std::string self_hostname_;
  net::Ipv4Addr self_ip_;
  bool running_ = false;
  std::map<std::string, GossipEntry> entries_;
  std::function<SelfLoad()> load_provider_;
  sim::Timer round_task_;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace picloud::cloud
