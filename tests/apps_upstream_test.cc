// The client-side protection HttpLoadGen and LbApp share (apps/upstream.h,
// DESIGN.md §11): the round-robin Rotation whose cursor follows its target
// across endpoint changes, and the RetryBudget token bucket.
#include <gtest/gtest.h>

#include <vector>

#include "apps/upstream.h"

namespace picloud::apps {
namespace {

const net::Ipv4Addr kA(10, 0, 1, 1);
const net::Ipv4Addr kB(10, 0, 1, 2);
const net::Ipv4Addr kC(10, 0, 1, 3);
const net::Ipv4Addr kD(10, 0, 1, 4);

net::Ipv4Addr next_any(Rotation& rotation) {
  net::Ipv4Addr out;
  EXPECT_TRUE(rotation.next([](net::Ipv4Addr) { return true; }, &out));
  return out;
}

TEST(Rotation, SetKeepsTheCursorOnItsTarget) {
  Rotation rotation;
  rotation.set({kA, kB, kC});
  EXPECT_EQ(next_any(rotation), kA);  // the cursor moves on to kB
  // kB moves from index 1 to index 1 of a reordered pool with a newcomer.
  rotation.set({kC, kB, kD});
  EXPECT_EQ(next_any(rotation), kB);
  EXPECT_EQ(next_any(rotation), kD);
  // The cursor is on kC at index 0; it follows kC to the end.
  rotation.set({kA, kB, kC});
  EXPECT_EQ(next_any(rotation), kC);
  EXPECT_EQ(next_any(rotation), kA);
}

TEST(Rotation, DepartedTargetResetsTheCursorToTheFirst) {
  Rotation rotation;
  rotation.set({kA, kB, kC});
  EXPECT_EQ(next_any(rotation), kA);  // the cursor is on kB
  rotation.set({kC, kA});             // kB left
  EXPECT_EQ(next_any(rotation), kC);
  EXPECT_EQ(next_any(rotation), kA);
  rotation.set({});
  net::Ipv4Addr out;
  EXPECT_FALSE(rotation.next([](net::Ipv4Addr) { return true; }, &out));
  rotation.set({kD, kB});
  EXPECT_EQ(next_any(rotation), kD);
}

TEST(Rotation, NextVisitsEachTargetOnceAndSkipsIneligibleOnes) {
  Rotation rotation;
  rotation.set({kA, kB, kC});
  std::vector<net::Ipv4Addr> visited;
  auto not_b = [&visited](net::Ipv4Addr ip) {
    visited.push_back(ip);
    return ip != kB;
  };
  net::Ipv4Addr out;
  ASSERT_TRUE(rotation.next(not_b, &out));
  EXPECT_EQ(out, kA);
  ASSERT_TRUE(rotation.next(not_b, &out));
  EXPECT_EQ(out, kC);
  EXPECT_EQ(visited, (std::vector<net::Ipv4Addr>{kA, kB, kC}));

  // Nothing eligible: one full turn, each target asked once, and the
  // cursor ends where it started.
  visited.clear();
  auto none = [&visited](net::Ipv4Addr ip) {
    visited.push_back(ip);
    return false;
  };
  EXPECT_FALSE(rotation.next(none, &out));
  EXPECT_EQ(visited, (std::vector<net::Ipv4Addr>{kA, kB, kC}));
  EXPECT_EQ(next_any(rotation), kA);
}

TEST(RetryBudget, StartsFullAtTheBurst) {
  RetryBudget budget(2.0);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(budget.judge(1), RetryBudget::Verdict::kAllowed);
    budget.spend();
  }
  EXPECT_EQ(budget.judge(1), RetryBudget::Verdict::kDenied);
  EXPECT_EQ(budget.retries(), 2u);
  EXPECT_EQ(budget.denials(), 1u);
}

TEST(RetryBudget, EarningCapsAtTheBurst) {
  RetryBudget budget(2.0);
  // A full bucket earns nothing more: 100 originals still buy two retries.
  for (int i = 0; i < 100; ++i) budget.original();
  int retries = 0;
  while (budget.judge(1) == RetryBudget::Verdict::kAllowed) {
    budget.spend();
    ++retries;
  }
  EXPECT_EQ(retries, 2);
  // Each original earns kRatio: eleven of them buy one more retry.
  for (int i = 0; i < 11; ++i) budget.original();
  EXPECT_EQ(budget.judge(1), RetryBudget::Verdict::kAllowed);
  budget.spend();
  EXPECT_EQ(budget.judge(1), RetryBudget::Verdict::kDenied);
  EXPECT_EQ(budget.originals(), 111u);
  EXPECT_TRUE(budget.bounded(budget.originals() + budget.retries()));
}

TEST(RetryBudget, EmptyBucketCountsADenial) {
  RetryBudget budget(0.0);
  EXPECT_EQ(budget.judge(1), RetryBudget::Verdict::kDenied);
  EXPECT_EQ(budget.judge(1), RetryBudget::Verdict::kDenied);
  EXPECT_EQ(budget.denials(), 2u);
  EXPECT_EQ(budget.retries(), 0u);
}

TEST(RetryBudget, SecondFailedAttemptNeverRetries) {
  RetryBudget budget;
  EXPECT_EQ(budget.judge(RetryBudget::kMaxAttempts),
            RetryBudget::Verdict::kCapped);
  EXPECT_EQ(budget.denials(), 0u);  // capped is not denied
  RetryBudget empty(0.0);
  EXPECT_EQ(empty.judge(RetryBudget::kMaxAttempts),
            RetryBudget::Verdict::kCapped);
  EXPECT_EQ(empty.denials(), 0u);
}

TEST(RetryBudget, BoundedChecksAttemptsAndTheBound) {
  RetryBudget budget(1.0);
  budget.original();
  ASSERT_EQ(budget.judge(1), RetryBudget::Verdict::kAllowed);
  budget.spend();
  // One original and one retry: exactly two attempts were sent.
  EXPECT_TRUE(budget.bounded(2));
  EXPECT_FALSE(budget.bounded(1));
  EXPECT_FALSE(budget.bounded(3));
  // Retries spent past the bucket break the bound even when the attempts
  // agree: 3 retries > 0.1 * 1 + 1.
  budget.spend();
  budget.spend();
  EXPECT_FALSE(budget.bounded(4));
}

}  // namespace
}  // namespace picloud::apps
