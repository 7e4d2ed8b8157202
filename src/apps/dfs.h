// PiFS — a replicated distributed file store over the Pis' SD cards.
//
// Paper §III: "by operating an actual infrastructure, we can empirically
// evaluate improvements to file management and migration techniques." PiFS
// is that infrastructure piece, HDFS-shaped and PiCloud-sized: files split
// into fixed blocks; each block stored on `replication` datanodes with
// rack-aware placement (replicas land in different racks when possible, so
// a ToR or rack-power failure cannot take all copies); a namenode tracks
// the block map, detects dead datanodes, and re-replicates from survivors.
//
// Every stored byte pays twice: once on the fabric (the transfer contends
// with all other traffic) and once on the destination SD card's FIFO write
// queue — the two bottlenecks that shape file management on real Pis.
//
// Wire protocol (JSON datagrams on port 7400; block payloads as padding):
//   namenode -> datanode: {"op":"store","block":b,"bytes":n,"id":i}
//                         {"op":"fetch","block":b,"id":i}
//                         {"op":"drop","block":b,"id":i}
//                         {"op":"push","block":b,"to":ip,"id":i}   (re-replication)
//   datanode -> namenode: {"ok":bool,"id":i[,"bytes":n]}
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/network.h"
#include "os/container.h"
#include "sim/simulation.h"
#include "util/json.h"
#include "util/result.h"

namespace picloud::apps {

inline constexpr std::uint16_t kDfsPort = 7400;

// The datanode: runs inside a container, stores block bytes on the host's
// SD card (space reserved, writes serviced through the card's FIFO queue).
class DfsNodeApp : public os::ContainerApp {
 public:
  std::string kind() const override { return "dfs-node"; }
  void start(os::Container& container) override;
  void stop() override;
  util::Json status() const override;
  double dirty_bytes_per_sec() const override { return 256.0 * 1024; }

  size_t block_count() const { return blocks_.size(); }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  void on_message(const net::Message& msg);
  void reply(net::Ipv4Addr to, std::uint16_t port, util::Json body,
             double padding = 0);

  os::Container* container_ = nullptr;
  std::map<std::string, std::uint64_t> blocks_;  // block id -> bytes
  std::uint64_t stored_bytes_ = 0;
};

// The namenode: file metadata, block placement, health, re-replication.
// Runs at the management side (pimaster or admin workstation), like the
// paper's head-node services.
class DfsNamenode {
 public:
  struct Config {
    std::uint64_t block_bytes = 4ull << 20;
    int replication = 2;
    // Datanodes silent on a fetch/store for this long are declared dead by
    // the caller (health is probe-driven; see handle_datanode_death).
    sim::Duration request_timeout = sim::Duration::seconds(30);
  };

  // Per-DFS-instance bookkeeping, returned by value to callers; cluster
  // telemetry flows through the app's node gauges.
  // picloud-lint: allow(metrics-registry)
  struct Stats {
    std::uint64_t blocks_written = 0;
    std::uint64_t blocks_read = 0;
    std::uint64_t replicas_lost = 0;
    std::uint64_t re_replications = 0;
    std::uint64_t failed_ops = 0;
  };

  DfsNamenode(net::Network& network, net::Ipv4Addr self, Config config,
              std::uint16_t client_port = 47400);
  ~DfsNamenode();

  DfsNamenode(const DfsNamenode&) = delete;
  DfsNamenode& operator=(const DfsNamenode&) = delete;

  // Registers a datanode (its container IP) and the rack it lives in.
  void add_datanode(net::Ipv4Addr ip, int rack);

  // --- File operations --------------------------------------------------------
  using StatusCallback = std::function<void(util::Status)>;
  using ReadCallback = std::function<void(util::Result<std::uint64_t>)>;
  // Writes `bytes` as ceil(bytes/block) blocks, each to `replication`
  // rack-diverse datanodes. The callback fires once all replicas ack.
  void write(const std::string& file, std::uint64_t bytes, StatusCallback cb);
  // Reads every block (one replica each); yields total bytes delivered.
  void read(const std::string& file, ReadCallback cb);
  void remove(const std::string& file, StatusCallback cb);

  // --- Health -------------------------------------------------------------------
  // Declares a datanode dead: its replicas are lost; under-replicated
  // blocks are re-replicated from surviving copies onto other datanodes.
  void handle_datanode_death(net::Ipv4Addr ip);

  // Blocks currently below the replication target.
  size_t under_replicated() const;
  size_t file_count() const { return files_.size(); }
  std::uint64_t file_bytes(const std::string& file) const;
  std::vector<net::Ipv4Addr> block_replicas(const std::string& file,
                                            size_t index) const;
  const Stats& stats() const { return stats_; }

 private:
  struct Block {
    std::string id;
    std::uint64_t bytes = 0;
    std::vector<net::Ipv4Addr> replicas;
  };
  struct File {
    std::vector<Block> blocks;
    std::uint64_t bytes = 0;
  };
  struct Datanode {
    net::Ipv4Addr ip;
    int rack = 0;
    bool alive = true;
    std::uint64_t assigned_bytes = 0;  // namenode-side usage estimate
  };

  using AckCallback = std::function<void(bool ok, double bytes)>;
  struct PendingOp {
    AckCallback cb;
    sim::Timer timer;
  };
  void send_op(net::Ipv4Addr datanode, util::Json body, double padding,
               AckCallback cb);
  void on_message(const net::Message& msg);
  // Rack-aware replica choice: spread racks first, then least-assigned.
  std::vector<net::Ipv4Addr> pick_replicas(std::uint64_t bytes,
                                           const std::set<std::uint32_t>& avoid);
  Datanode* node_by_ip(net::Ipv4Addr ip);

  net::Network& network_;
  sim::Simulation& sim_;
  net::Ipv4Addr self_;
  Config config_;
  std::uint16_t port_;
  std::vector<Datanode> datanodes_;
  std::map<std::string, File> files_;
  std::map<std::uint64_t, PendingOp> pending_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_block_ = 1;
  Stats stats_;
};

}  // namespace picloud::apps
