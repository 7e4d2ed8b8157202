// SD card and image store tests (the "image upgrading, patching, and
// spawning" substrate).
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulation.h"
#include "storage/image.h"
#include "storage/sdcard.h"

namespace picloud::storage {
namespace {

TEST(SdCard, IoTimingMatchesBandwidth) {
  sim::Simulation sim;
  SdCard card(sim, 16ull << 30, /*read=*/20e6, /*write=*/10e6);
  sim::SimTime read_done, write_done;
  card.read(20e6, [&]() { read_done = sim.now(); });     // 1 s
  card.write(10e6, [&]() { write_done = sim.now(); });   // queued +1 s
  sim.run();
  EXPECT_NEAR(read_done.to_seconds(), 1.0, 1e-9);
  EXPECT_NEAR(write_done.to_seconds(), 2.0, 1e-9);  // FIFO service
  EXPECT_EQ(card.total_bytes_read(), 20e6);
  EXPECT_EQ(card.total_bytes_written(), 10e6);
}

TEST(SdCard, QueueDrainsInOrder) {
  sim::Simulation sim;
  SdCard card(sim, 16ull << 30, 20e6, 10e6);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    card.write(1e6, [&order, i]() { order.push_back(i); });
  }
  EXPECT_EQ(card.queue_depth(), 5u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(card.queue_depth(), 0u);
}

// The card owns its in-service IO's completion: destroying it with a
// transfer pending cancels the event instead of leaving it to fire into the
// freed card.
TEST(SdCard, DestroyedWithIoPendingCancelsItsCompletion) {
  sim::Simulation sim;
  auto card = std::make_unique<SdCard>(sim, 1ull << 30, 20e6, 10e6);
  bool done = false;
  card->write(1 << 20, [&done]() { done = true; });
  card->read(1 << 20, [&done]() { done = true; });
  sim.run_for(sim::Duration::millis(10));
  ASSERT_FALSE(done);
  card.reset();
  sim.run();
  EXPECT_FALSE(done);
}

TEST(SdCard, SpaceAccounting) {
  sim::Simulation sim;
  SdCard card(sim, 100, 1, 1);
  EXPECT_TRUE(card.reserve(60));
  EXPECT_FALSE(card.reserve(50));
  EXPECT_EQ(card.free_bytes(), 40u);
  card.release(30);
  EXPECT_TRUE(card.reserve(50));
}

TEST(ImageStore, BasePatchChain) {
  ImageStore store;
  auto base = store.add_base("raspbian-lxc", 1800ull << 20, "wheezy");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value(), "raspbian-lxc:1");

  auto patch = store.patch("raspbian-lxc", 40ull << 20, "CVE fix");
  ASSERT_TRUE(patch.ok());
  EXPECT_EQ(patch.value(), "raspbian-lxc:2");

  auto chain = store.chain("raspbian-lxc:2");
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain.value().size(), 2u);
  EXPECT_EQ(chain.value()[0].id(), "raspbian-lxc:1");  // base first
  EXPECT_EQ(chain.value()[1].id(), "raspbian-lxc:2");

  auto bytes = store.installed_bytes("raspbian-lxc:2");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), (1800ull + 40ull) << 20);
}

TEST(ImageStore, TransferBytesSkipCachedLayers) {
  ImageStore store;
  ASSERT_TRUE(store.add_base("img", 1000).ok());
  ASSERT_TRUE(store.patch("img", 50).ok());
  ASSERT_TRUE(store.patch("img", 7).ok());
  // Node already has the base and first patch.
  auto delta = store.transfer_bytes("img:3", {"img:1", "img:2"});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value(), 7u);
  auto cold = store.transfer_bytes("img:3", {});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value(), 1057u);
}

TEST(ImageStore, UpgradeBreaksTheChain) {
  ImageStore store;
  ASSERT_TRUE(store.add_base("img", 1000).ok());
  ASSERT_TRUE(store.patch("img", 50).ok());
  auto upgraded = store.upgrade("img", 1200, "jessie");
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(upgraded.value(), "img:3");
  auto chain = store.chain("img:3");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value().size(), 1u);  // self-contained
  auto latest = store.latest("img");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value(), "img:3");
}

TEST(ImageStore, Errors) {
  ImageStore store;
  ASSERT_TRUE(store.add_base("img", 10).ok());
  EXPECT_FALSE(store.add_base("img", 10).ok());       // duplicate name
  EXPECT_FALSE(store.patch("ghost", 1).ok());          // unknown image
  EXPECT_FALSE(store.get("img:9").ok());               // unknown version
  EXPECT_FALSE(store.latest("ghost").ok());
  EXPECT_FALSE(store.chain("ghost:1").ok());
}

}  // namespace
}  // namespace picloud::storage
