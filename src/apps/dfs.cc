#include "apps/dfs.h"

#include <algorithm>

#include "os/node_os.h"
#include "util/logging.h"
#include "util/strings.h"

namespace picloud::apps {

using util::Json;

// ---------------------------------------------------------------------------
// Datanode

void DfsNodeApp::start(os::Container& container) {
  container_ = &container;
  container.listen(kDfsPort,
                   [this](const net::Message& msg) { on_message(msg); });
}

void DfsNodeApp::stop() {
  if (container_ == nullptr) return;
  container_->unlisten(kDfsPort);
  // Blocks stay on the SD card across container restarts (it is the card's
  // space, not the container's RAM); release only on destruction with the
  // node. For the model's accounting we keep the reservations.
  container_ = nullptr;
}

void DfsNodeApp::reply(net::Ipv4Addr to, std::uint16_t port, DfsAck ack,
                       double padding) {
  if (container_ == nullptr) return;
  container_->send(to, port, std::move(ack), kDfsPort, padding);
}

void DfsNodeApp::on_message(const net::Message& msg) {
  if (container_ == nullptr) return;
  const auto* order = msg.body.get<DfsOrder>();
  if (order == nullptr) return;
  net::Ipv4Addr reply_to = msg.src;
  std::uint16_t reply_port = msg.src_port;
  DfsAck ack;
  ack.id = order->id;

  switch (order->op) {
    case DfsOp::kStore: {
      if (!order->bytes) return;
      const std::uint64_t bytes = *order->bytes;
      storage::SdCard& card = container_->node().sdcard();
      if (blocks_.count(order->block) == 0 && !card.reserve(bytes)) {
        ack.error = DfsError::kCardFull;
        reply(reply_to, reply_port, ack);
        return;
      }
      // The block is on the wire already (padding); persisting it queues on
      // the card behind everything else being written.
      card.write(bytes, [this, block = order->block, bytes, reply_to,
                         reply_port, ack]() mutable {
        if (container_ == nullptr) return;
        if (blocks_.count(block) == 0) {
          blocks_[block] = bytes;
          stored_bytes_ += bytes;
        }
        ack.ok = true;
        reply(reply_to, reply_port, ack);
      });
      return;
    }

    case DfsOp::kFetch: {
      auto it = blocks_.find(order->block);
      if (it == blocks_.end()) {
        ack.error = DfsError::kNoSuchBlock;
        reply(reply_to, reply_port, ack);
        return;
      }
      std::uint64_t bytes = it->second;
      container_->node().sdcard().read(
          bytes, [this, bytes, reply_to, reply_port, ack]() mutable {
            if (container_ == nullptr) return;
            ack.ok = true;
            ack.bytes = bytes;
            reply(reply_to, reply_port, ack, static_cast<double>(bytes));
          });
      return;
    }

    case DfsOp::kPush: {
      // Re-replication: read the block and store it on a peer datanode.
      auto it = blocks_.find(order->block);
      if (it == blocks_.end() || !order->to) {
        ack.error = DfsError::kNoBlockOrPeer;
        reply(reply_to, reply_port, ack);
        return;
      }
      DfsOrder store;
      store.block = order->block;
      store.bytes = it->second;
      store.id = 0;  // peer's ack is dropped; namenode re-probes
      store.op = DfsOp::kStore;
      container_->node().sdcard().read(
          it->second, [this, store = std::move(store), peer = *order->to]() {
            if (container_ == nullptr) return;
            container_->send(peer, kDfsPort, store, kDfsPort,
                             static_cast<double>(*store.bytes));
          });
      ack.ok = true;
      reply(reply_to, reply_port, ack);
      return;
    }

    case DfsOp::kDrop: {
      auto it = blocks_.find(order->block);
      if (it != blocks_.end()) {
        container_->node().sdcard().release(it->second);
        stored_bytes_ -= it->second;
        blocks_.erase(it);
      }
      ack.ok = true;
      reply(reply_to, reply_port, ack);
      return;
    }
  }
}

util::Json DfsNodeApp::status() const {
  Json j = Json::object();
  j.set("blocks", static_cast<unsigned long long>(blocks_.size()));
  j.set("bytes", static_cast<unsigned long long>(stored_bytes_));
  return j;
}

// ---------------------------------------------------------------------------
// Namenode

DfsNamenode::DfsNamenode(net::Network& network, net::Ipv4Addr self,
                         Config config, std::uint16_t client_port)
    : network_(network),
      sim_(network.simulation()),
      self_(self),
      config_(config),
      port_(client_port) {
  network_.listen(self_, port_,
                  [this](const net::Message& msg) { on_message(msg); });
}

DfsNamenode::~DfsNamenode() { network_.unlisten(self_, port_); }

void DfsNamenode::add_datanode(net::Ipv4Addr ip, int rack) {
  Datanode node;
  node.ip = ip;
  node.rack = rack;
  datanodes_.push_back(node);
}

DfsNamenode::Datanode* DfsNamenode::node_by_ip(net::Ipv4Addr ip) {
  for (auto& node : datanodes_) {
    if (node.ip == ip) return &node;
  }
  return nullptr;
}

std::vector<net::Ipv4Addr> DfsNamenode::pick_replicas(
    std::uint64_t bytes, const std::set<std::uint32_t>& avoid) {
  // Candidates sorted by (rack unseen first, least assigned bytes) —
  // HDFS-flavoured rack awareness sized for four Lego racks.
  std::vector<net::Ipv4Addr> chosen;
  std::set<int> racks_used;
  for (int round = 0; round < config_.replication; ++round) {
    Datanode* best = nullptr;
    bool best_new_rack = false;
    for (auto& node : datanodes_) {
      if (!node.alive || avoid.count(node.ip.value()) > 0) continue;
      bool taken = false;
      for (net::Ipv4Addr ip : chosen) {
        if (ip == node.ip) taken = true;
      }
      if (taken) continue;
      bool new_rack = racks_used.count(node.rack) == 0;
      if (best == nullptr || (new_rack && !best_new_rack) ||
          (new_rack == best_new_rack &&
           node.assigned_bytes < best->assigned_bytes)) {
        best = &node;
        best_new_rack = new_rack;
      }
    }
    if (best == nullptr) break;
    best->assigned_bytes += bytes;
    racks_used.insert(best->rack);
    chosen.push_back(best->ip);
  }
  return chosen;
}

void DfsNamenode::send_op(net::Ipv4Addr datanode, DfsOrder order,
                          double padding, AckCallback cb) {
  std::uint64_t id = next_id_++;
  order.id = id;
  PendingOp& op = pending_[id];
  op.cb = std::move(cb);
  op.timer.after(sim_, config_.request_timeout, [this, id]() {
    auto it = pending_.find(id);
    AckCallback cb = std::move(it->second.cb);
    pending_.erase(it);
    cb(false, 0);
  });
  net::Message msg;
  msg.src = self_;
  msg.dst = datanode;
  msg.src_port = port_;
  msg.dst_port = kDfsPort;
  msg.body = std::move(order);
  msg.padding_bytes = padding;
  network_.send(std::move(msg));
}

void DfsNamenode::on_message(const net::Message& msg) {
  const auto* ack = msg.body.get<DfsAck>();
  if (ack == nullptr) return;
  auto it = pending_.find(ack->id);
  if (it == pending_.end()) return;
  AckCallback cb = std::move(it->second.cb);
  pending_.erase(it);  // cancels the timeout
  cb(ack->ok, static_cast<double>(ack->bytes.value_or(0)));
}

void DfsNamenode::write(const std::string& file, std::uint64_t bytes,
                        StatusCallback cb) {
  if (files_.count(file) > 0) {
    cb(util::Error::make("exists", "file exists: " + file));
    return;
  }
  size_t block_count = static_cast<size_t>(
      (bytes + config_.block_bytes - 1) / config_.block_bytes);
  if (block_count == 0) block_count = 1;

  auto file_record = std::make_shared<File>();
  file_record->bytes = bytes;
  auto outstanding = std::make_shared<int>(0);
  auto failed = std::make_shared<bool>(false);

  for (size_t i = 0; i < block_count; ++i) {
    Block block;
    block.id = util::format("blk_%06llu",
                            static_cast<unsigned long long>(next_block_++));
    block.bytes = std::min<std::uint64_t>(config_.block_bytes,
                                          bytes - i * config_.block_bytes);
    block.replicas = pick_replicas(block.bytes, {});
    if (block.replicas.empty()) {
      ++stats_.failed_ops;
      cb(util::Error::make("no_capacity", "no live datanodes"));
      return;
    }
    for (net::Ipv4Addr replica : block.replicas) {
      ++*outstanding;
      DfsOrder store;
      store.block = block.id;
      store.bytes = block.bytes;
      store.op = DfsOp::kStore;
      send_op(replica, std::move(store), static_cast<double>(block.bytes),
              [this, outstanding, failed, cb](bool ok, double) {
                if (!ok) *failed = true;
                if (--*outstanding == 0) {
                  if (*failed) {
                    ++stats_.failed_ops;
                    cb(util::Error::make("io", "a replica store failed"));
                  } else {
                    cb(util::Status::success());
                  }
                }
              });
    }
    ++stats_.blocks_written;
    file_record->blocks.push_back(std::move(block));
  }
  files_[file] = *file_record;
}

void DfsNamenode::read(const std::string& file, ReadCallback cb) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    cb(util::Error::make("not_found", "no such file: " + file));
    return;
  }
  const std::vector<Block>& blocks = it->second.blocks;
  // Every block needs a replica before any fetch goes out: a fetch already
  // sent would count down and answer a second time.
  if (std::any_of(blocks.begin(), blocks.end(),
                  [](const Block& block) { return block.replicas.empty(); })) {
    cb(util::Error::make("data_loss", "block has no replicas"));
    return;
  }
  auto outstanding = std::make_shared<int>(0);
  auto total = std::make_shared<double>(0);
  auto failed = std::make_shared<bool>(false);
  for (const Block& block : blocks) {
    ++*outstanding;
    // Least-assigned live replica serves the read.
    net::Ipv4Addr source = block.replicas[0];
    for (net::Ipv4Addr ip : block.replicas) {
      Datanode* node = node_by_ip(ip);
      if (node != nullptr && node->alive) {
        source = ip;
        break;
      }
    }
    DfsOrder fetch;
    fetch.block = block.id;
    fetch.op = DfsOp::kFetch;
    ++stats_.blocks_read;
    send_op(source, std::move(fetch), 0,
            [this, outstanding, total, failed, cb](bool ok, double bytes) {
              if (!ok) *failed = true;
              *total += bytes;
              if (--*outstanding == 0) {
                if (*failed) {
                  ++stats_.failed_ops;
                  cb(util::Error::make("io", "a block fetch failed"));
                } else {
                  cb(static_cast<std::uint64_t>(*total));
                }
              }
            });
  }
}

void DfsNamenode::remove(const std::string& file, StatusCallback cb) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    cb(util::Error::make("not_found", "no such file: " + file));
    return;
  }
  for (const Block& block : it->second.blocks) {
    for (net::Ipv4Addr replica : block.replicas) {
      DfsOrder drop;
      drop.block = block.id;
      drop.op = DfsOp::kDrop;
      send_op(replica, std::move(drop), 0, [](bool, double) {});
    }
  }
  files_.erase(it);
  cb(util::Status::success());
}

void DfsNamenode::handle_datanode_death(net::Ipv4Addr ip) {
  Datanode* dead = node_by_ip(ip);
  if (dead == nullptr || !dead->alive) return;
  dead->alive = false;
  LOG_WARN("dfs", "datanode %s declared dead; re-replicating",
           ip.to_string().c_str());
  for (auto& [name, file] : files_) {
    for (Block& block : file.blocks) {
      auto replica_it =
          std::find(block.replicas.begin(), block.replicas.end(), ip);
      if (replica_it == block.replicas.end()) continue;
      block.replicas.erase(replica_it);
      ++stats_.replicas_lost;
      if (block.replicas.empty()) continue;  // data loss; read will report

      // Choose a new home (avoid existing replicas) and ask a survivor to
      // push the block there.
      std::set<std::uint32_t> avoid;
      for (net::Ipv4Addr existing : block.replicas) {
        avoid.insert(existing.value());
      }
      avoid.insert(ip.value());
      std::vector<net::Ipv4Addr> fresh = pick_replicas(block.bytes, avoid);
      if (fresh.empty()) continue;  // nowhere to put it; stays degraded
      net::Ipv4Addr survivor = block.replicas[0];
      net::Ipv4Addr target = fresh[0];
      DfsOrder push;
      push.block = block.id;
      push.op = DfsOp::kPush;
      push.to = target;
      send_op(survivor, std::move(push), 0, [](bool, double) {});
      block.replicas.push_back(target);
      ++stats_.re_replications;
    }
  }
}

size_t DfsNamenode::under_replicated() const {
  size_t n = 0;
  for (const auto& [name, file] : files_) {
    for (const Block& block : file.blocks) {
      if (static_cast<int>(block.replicas.size()) < config_.replication) ++n;
    }
  }
  return n;
}

std::uint64_t DfsNamenode::file_bytes(const std::string& file) const {
  auto it = files_.find(file);
  return it != files_.end() ? it->second.bytes : 0;
}

std::vector<net::Ipv4Addr> DfsNamenode::block_replicas(const std::string& file,
                                                       size_t index) const {
  auto it = files_.find(file);
  if (it == files_.end() || index >= it->second.blocks.size()) return {};
  return it->second.blocks[index].replicas;
}

}  // namespace picloud::apps
