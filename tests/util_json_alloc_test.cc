// The size of a util::Json and the allocations a copy costs, pinned. The
// global operator new below counts every allocation in this binary, so
// these tests live in a binary of their own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "util/json.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace picloud::util {
namespace {

TEST(JsonAllocations, ValueIsAtMostFortyBytes) {
  EXPECT_LE(sizeof(Json), 40u);
}

TEST(JsonAllocations, CopyingASmallObjectAllocatesOnce) {
  // A message-sized object: four short keys (no heap string) and scalars.
  const Json original(
      JsonObject{{"i", 7}, {"m", "GET"}, {"ok", true}, {"s", 200}});
  const std::size_t before = g_allocations;
  const Json copy(original);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(copy, original);
}

}  // namespace
}  // namespace picloud::util
