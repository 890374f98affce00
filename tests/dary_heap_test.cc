// DaryMinHeap correctness: randomized push / pop / clear sequences must pop
// exactly what std::priority_queue (min order) pops, including duplicate
// keys and sizes on both sides of every 4-ary level boundary (1, 5, 21, 85,
// 341 keys fill levels 0..4) and a full decode batch of 282.

#include "src/serve/dary_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/util/rng.h"

namespace litegpu {
namespace {

using Reference = std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>;

void ExpectSameFront(const DaryMinHeap& heap, const Reference& ref) {
  ASSERT_EQ(heap.empty(), ref.empty());
  ASSERT_EQ(heap.size(), ref.size());
  if (!ref.empty()) {
    ASSERT_EQ(heap.front(), ref.top());
  }
}

// Fills both heaps to `size` keys drawn from [0, key_range), then drains
// them, checking every pop. A small key_range forces duplicates.
void FillAndDrain(uint64_t seed, size_t size, uint64_t key_range) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " size " << size << " range "
                                    << key_range);
  SplitMix64 rng(seed);
  DaryMinHeap heap;
  Reference ref;
  for (size_t i = 0; i < size; ++i) {
    uint64_t key = rng.Next() % key_range;
    heap.push(key);
    ref.push(key);
    ExpectSameFront(heap, ref);
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.pop(), ref.top());
    ref.pop();
    ExpectSameFront(heap, ref);
  }
}

TEST(DaryMinHeap, FillAndDrainAcrossLevelBoundaries) {
  for (size_t size : {1, 2, 4, 5, 6, 20, 21, 22, 84, 85, 86, 282, 340, 341, 342}) {
    for (uint64_t key_range : {uint64_t{3}, uint64_t{64}, ~uint64_t{0}}) {
      FillAndDrain(size * 131 + key_range % 1000, size, key_range);
    }
  }
}

// A decode batch's life: the heap hovers near a target size while pops
// and pushes interleave, with an occasional clear (a failed instance).
TEST(DaryMinHeap, RandomInterleavingMatchesPriorityQueue) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    SplitMix64 rng(seed);
    const size_t target = seed % 3 == 0 ? 282 : rng.Next() % 360 + 1;
    const uint64_t key_range = seed % 2 == 0 ? 50 : uint64_t{1} << 40;
    DaryMinHeap heap;
    heap.reserve(target);
    Reference ref;
    for (int op = 0; op < 20000; ++op) {
      uint64_t r = rng.Next();
      if (r % 1000 == 0) {
        heap.clear();
        ref = Reference();
      } else if (ref.empty() || (ref.size() < target ? r % 4 != 0 : r % 4 == 0)) {
        uint64_t key = rng.Next() % key_range;
        heap.push(key);
        ref.push(key);
      } else {
        ASSERT_EQ(heap.pop(), ref.top()) << "op " << op;
        ref.pop();
      }
      ExpectSameFront(heap, ref);
    }
  }
}

TEST(DaryMinHeap, ClearKeepsTheHeapUsable) {
  DaryMinHeap heap;
  for (uint64_t k : {5, 3, 9, 1}) {
    heap.push(k);
  }
  heap.clear();
  EXPECT_TRUE(heap.empty());
  heap.push(7);
  heap.push(2);
  EXPECT_EQ(heap.front(), 2u);
  EXPECT_EQ(heap.pop(), 2u);
  EXPECT_EQ(heap.pop(), 7u);
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace litegpu
