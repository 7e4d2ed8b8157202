// PiFS (distributed file store) tests: write/read round trips, rack-aware
// replica placement, SD-card space/IO coupling, datanode death and
// re-replication.
#include <gtest/gtest.h>

#include "apps/dfs.h"
#include "cloud/cloud.h"
#include "util/strings.h"

namespace picloud::apps {
namespace {

class DfsCloud : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(37);
    cloud::PiCloudConfig config;
    config.racks = 2;
    config.hosts_per_rack = 3;
    cloud_ = std::make_unique<cloud::PiCloud>(*sim_, config);
    cloud_->power_on();
    ASSERT_TRUE(cloud_->await_ready());
    cloud_->run_for(sim::Duration::seconds(5));

    DfsNamenode::Config dfs_config;
    dfs_config.block_bytes = 4ull << 20;
    dfs_config.replication = 2;
    namenode_ = std::make_unique<DfsNamenode>(cloud_->network(),
                                              cloud_->admin_ip(), dfs_config);
    // One datanode container per Pi.
    for (size_t i = 0; i < cloud_->node_count(); ++i) {
      auto record = cloud_->spawn_and_wait(
          {.name = util::format("dn-%zu", i),
           .app_kind = "dfs-node",
           .hostname = cloud_->node(i).hostname()});
      ASSERT_TRUE(record.ok()) << record.error().message;
      namenode_->add_datanode(record.value().ip,
                              cloud_->daemon(i).rack());
      datanode_ips_.push_back(record.value().ip);
    }
  }

  util::Status write_file(const std::string& name, std::uint64_t bytes) {
    util::Status out = util::Error::make("timeout", "write timed out");
    bool done = false;
    namenode_->write(name, bytes, [&](util::Status status) {
      done = true;
      out = status;
    });
    cloud_->run_until(sim::Duration::minutes(5), [&]() { return done; });
    return out;
  }

  util::Result<std::uint64_t> read_file(const std::string& name) {
    util::Result<std::uint64_t> out =
        util::Error::make("timeout", "read timed out");
    bool done = false;
    namenode_->read(name, [&](util::Result<std::uint64_t> result) {
      done = true;
      out = std::move(result);
    });
    cloud_->run_until(sim::Duration::minutes(5), [&]() { return done; });
    return out;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<cloud::PiCloud> cloud_;
  std::unique_ptr<DfsNamenode> namenode_;
  std::vector<net::Ipv4Addr> datanode_ips_;
};

TEST_F(DfsCloud, WriteReadRoundTrip) {
  std::uint64_t size = 10ull << 20;  // 3 blocks of 4 MiB
  util::Status written = write_file("logs.tar", size);
  ASSERT_TRUE(written.ok()) << written.error().message;
  EXPECT_EQ(namenode_->file_count(), 1u);
  EXPECT_EQ(namenode_->under_replicated(), 0u);

  auto bytes = read_file("logs.tar");
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  EXPECT_EQ(bytes.value(), size);
}

TEST_F(DfsCloud, ReplicasLandInDifferentRacks) {
  ASSERT_TRUE(write_file("f", 4ull << 20).ok());
  auto replicas = namenode_->block_replicas("f", 0);
  ASSERT_EQ(replicas.size(), 2u);
  // Map each replica IP back to its hosting rack.
  std::set<int> racks;
  for (net::Ipv4Addr ip : replicas) {
    for (size_t i = 0; i < datanode_ips_.size(); ++i) {
      if (datanode_ips_[i] == ip) {
        racks.insert(cloud_->daemon(i).rack());
      }
    }
  }
  EXPECT_EQ(racks.size(), 2u) << "replicas should straddle racks";
}

TEST_F(DfsCloud, StoredBytesHitTheSdCards) {
  double sd_before = 0;
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    sd_before += static_cast<double>(cloud_->node(i).sdcard().used_bytes());
  }
  ASSERT_TRUE(write_file("blob", 8ull << 20).ok());
  double sd_after = 0;
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    sd_after += static_cast<double>(cloud_->node(i).sdcard().used_bytes());
  }
  // 8 MiB x 2 replicas of card space.
  EXPECT_NEAR(sd_after - sd_before, 16.0 * (1 << 20), 1.0);
  // The namenode's ledger and the datanode apps' own accounting agree.
  EXPECT_EQ(namenode_->file_bytes("blob"), 8ull << 20);
  std::uint64_t app_bytes = 0;
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    auto* dn = dynamic_cast<DfsNodeApp*>(
        cloud_->node(i).find_container(util::format("dn-%zu", i))->app());
    ASSERT_NE(dn, nullptr);
    app_bytes += dn->stored_bytes();
  }
  EXPECT_EQ(app_bytes, 16ull << 20);
}

TEST_F(DfsCloud, RemoveFreesTheCards) {
  ASSERT_TRUE(write_file("temp", 4ull << 20).ok());
  double used_with = 0;
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    used_with += static_cast<double>(cloud_->node(i).sdcard().used_bytes());
  }
  bool removed = false;
  namenode_->remove("temp", [&](util::Status status) {
    removed = status.ok();
  });
  cloud_->run_for(sim::Duration::seconds(10));
  EXPECT_TRUE(removed);
  double used_without = 0;
  for (size_t i = 0; i < cloud_->node_count(); ++i) {
    used_without += static_cast<double>(cloud_->node(i).sdcard().used_bytes());
  }
  EXPECT_NEAR(used_with - used_without, 8.0 * (1 << 20), 1.0);
  EXPECT_FALSE(read_file("temp").ok());
}

TEST_F(DfsCloud, DatanodeDeathTriggersReReplicationAndDataSurvives) {
  ASSERT_TRUE(write_file("precious", 12ull << 20).ok());  // 3 blocks x 2
  // Kill a datanode that actually holds a replica of block 0.
  auto replicas = namenode_->block_replicas("precious", 0);
  ASSERT_FALSE(replicas.empty());
  net::Ipv4Addr victim_ip = replicas[0];
  size_t victim_index = 0;
  for (size_t i = 0; i < datanode_ips_.size(); ++i) {
    if (datanode_ips_[i] == victim_ip) victim_index = i;
  }
  cloud_->daemon(victim_index).crash();
  namenode_->handle_datanode_death(victim_ip);
  EXPECT_GT(namenode_->stats().replicas_lost, 0u);
  EXPECT_GT(namenode_->stats().re_replications, 0u);
  // Let the survivor push copies to the new homes.
  cloud_->run_for(sim::Duration::minutes(2));
  // Every block has two recorded replicas again and the file reads back.
  EXPECT_EQ(namenode_->under_replicated(), 0u);
  auto bytes = read_file("precious");
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  EXPECT_EQ(bytes.value(), 12ull << 20);
}

// Pinned to the nanosecond: each operation's control messages (store,
// fetch and push orders, their acks, the survivor's store to the new home)
// are charged their exact encoded length on the fabric, so a body that
// sizes one byte differently moves these times.
TEST_F(DfsCloud, WriteReadAndReReplicationFinishAtPinnedTimes) {
  std::int64_t written_at = -1;
  namenode_->write("pinned", 6ull << 20, [&](util::Status status) {
    EXPECT_TRUE(status.ok());
    written_at = sim_->now().ns();
  });
  cloud_->run_until(sim::Duration::minutes(5),
                    [&]() { return written_at >= 0; });
  std::int64_t read_at = -1;
  namenode_->read("pinned", [&](util::Result<std::uint64_t> bytes) {
    EXPECT_TRUE(bytes.ok());
    read_at = sim_->now().ns();
  });
  cloud_->run_until(sim::Duration::minutes(5), [&]() { return read_at >= 0; });

  // Lose block 0's first replica; the survivor pushes the block to a new
  // home, which has it once its SD card write completes.
  const net::Ipv4Addr victim = namenode_->block_replicas("pinned", 0)[0];
  namenode_->handle_datanode_death(victim);
  const net::Ipv4Addr target = namenode_->block_replicas("pinned", 0).back();
  DfsNodeApp* home = nullptr;
  for (size_t i = 0; i < datanode_ips_.size(); ++i) {
    if (datanode_ips_[i] != target) continue;
    home = dynamic_cast<DfsNodeApp*>(
        cloud_->node(i).find_container(util::format("dn-%zu", i))->app());
  }
  ASSERT_NE(home, nullptr);
  const size_t blocks_before = home->block_count();
  const sim::SimTime limit = sim_->now() + sim::Duration::minutes(2);
  while (home->block_count() == blocks_before && sim_->now() < limit) {
    sim_->step();
  }
  ASSERT_GT(home->block_count(), blocks_before);
  EXPECT_EQ(written_at, 14926515520);
  EXPECT_EQ(read_at, 15608606720);
  EXPECT_EQ(sim_->now().ns(), 16665109360);
}

// A read whose later block has lost every replica answers once, with
// data_loss, and sends no fetch for the blocks before it.
TEST_F(DfsCloud, ReadOfAFileWithALostBlockCallsBackOnce) {
  DfsNamenode::Config config;
  config.block_bytes = 4ull << 20;
  config.replication = 1;
  DfsNamenode namenode(cloud_->network(), cloud_->admin_ip(), config, 47401);
  for (size_t i = 0; i < datanode_ips_.size(); ++i) {
    namenode.add_datanode(datanode_ips_[i], cloud_->daemon(i).rack());
  }
  bool written = false;
  namenode.write("two-blocks", 8ull << 20, [&](util::Status status) {
    EXPECT_TRUE(status.ok());
    written = true;
  });
  cloud_->run_until(sim::Duration::minutes(5), [&]() { return written; });
  ASSERT_TRUE(written);
  const auto block0 = namenode.block_replicas("two-blocks", 0);
  const auto block1 = namenode.block_replicas("two-blocks", 1);
  ASSERT_EQ(block0.size(), 1u);
  ASSERT_EQ(block1.size(), 1u);
  ASSERT_NE(block0[0], block1[0]);
  namenode.handle_datanode_death(block1[0]);

  std::vector<std::string> outcomes;
  namenode.read("two-blocks", [&](util::Result<std::uint64_t> bytes) {
    outcomes.push_back(bytes.ok() ? "ok" : bytes.error().code);
  });
  cloud_->run_for(sim::Duration::minutes(1));
  EXPECT_EQ(outcomes, std::vector<std::string>{"data_loss"});
  EXPECT_EQ(namenode.stats().blocks_read, 0u);
}

TEST_F(DfsCloud, DuplicateFileNameRejected) {
  ASSERT_TRUE(write_file("once", 1 << 20).ok());
  util::Status again = write_file("once", 1 << 20);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, "exists");
}

}  // namespace
}  // namespace picloud::apps
