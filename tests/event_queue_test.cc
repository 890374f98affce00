// CalendarEventQueue correctness: the calendar/bucket queue must pop in
// exactly the fully-specified (time, kind, instance) order of the
// reference binary heap, for any bucket width and window size — including
// colliding timestamps, full-key duplicates, pushes into already-skimmed
// buckets, overflow re-bucketing, window rotation, and the width refits
// that rotation triggers as the event rate ramps. The simulator's
// only scheduling contract is "never push earlier than the last pop", so
// the randomized driver respects exactly that and nothing else.

#include "src/serve/event_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace litegpu {
namespace {

// Deterministic generator (same construction the workload module uses) so
// the "randomized" property test replays identically on every platform.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ServeEvent MakeEvent(double time_s, int kind, int instance) {
  ServeEvent e;
  e.time_s = time_s;
  e.kind = static_cast<ServeEventKind>(kind);
  e.instance = instance;
  // The epoch is not part of the ordering, so two full-key duplicates with
  // different epochs may legally pop in either order. Deriving the epoch
  // from the key keeps the expected pop sequence fully determined.
  e.epoch = kind * 31 + instance;
  return e;
}

void ExpectSameEvent(const ServeEvent& a, const ServeEvent& b, size_t pop_index) {
  EXPECT_EQ(a.time_s, b.time_s) << "pop " << pop_index;
  EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << "pop " << pop_index;
  EXPECT_EQ(a.instance, b.instance) << "pop " << pop_index;
  EXPECT_EQ(a.epoch, b.epoch) << "pop " << pop_index;
}

// Drives a CalendarEventQueue and the reference HeapEventQueue through an
// identical interleaved push/pop schedule and asserts every peek and pop
// agrees. Pushes are monotone with respect to the last pop (the
// simulator's contract) but may land anywhere at or after it — including
// in the current bucket, past the window, or exactly on its edge.
void RunInterleavedTrial(uint64_t seed, double bucket_width, size_t buckets,
                         double max_delay_s, int ops) {
  CalendarEventQueue calendar(bucket_width, buckets);
  HeapEventQueue heap;
  uint64_t rng = seed;
  double last_pop_s = 0.0;
  size_t pops = 0;
  for (int op = 0; op < ops; ++op) {
    bool push = heap.empty() || (SplitMix64(rng) % 100) < 60;
    if (push) {
      // Quantize delays onto a coarse lattice so distinct pushes collide in
      // time (and sometimes on the full key) with high probability.
      double delay = static_cast<double>(SplitMix64(rng) % 17) * (max_delay_s / 16.0);
      ServeEvent e = MakeEvent(last_pop_s + delay,
                               static_cast<int>(SplitMix64(rng) % 11),
                               static_cast<int>(SplitMix64(rng) % 4));
      calendar.Push(e);
      heap.Push(e);
    } else {
      ASSERT_EQ(calendar.size(), heap.size());
      EXPECT_EQ(calendar.PeekTime(), heap.PeekTime());
      ServeEvent a = calendar.Pop();
      ServeEvent b = heap.Pop();
      ExpectSameEvent(a, b, pops++);
      last_pop_s = b.time_s;
    }
  }
  // Drain both completely: the tail orderings must agree too.
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    EXPECT_EQ(calendar.PeekTime(), heap.PeekTime());
    ExpectSameEvent(calendar.Pop(), heap.Pop(), pops++);
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(CalendarEventQueue, MatchesHeapOnCollidingBatches) {
  // Many events per bucket: delays up to 4 widths, so most pushes collide
  // inside the window and ties on (time, kind, instance) are common.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunInterleavedTrial(seed, /*bucket_width=*/1e-3, /*buckets=*/64,
                        /*max_delay_s=*/4e-3, /*ops=*/4000);
  }
}

TEST(CalendarEventQueue, MatchesHeapWhenMostPushesOverflowTheWindow) {
  // Delays span many windows: pushes overflow constantly and every drain
  // rotates the window over the overflow heap.
  for (uint64_t seed = 100; seed <= 104; ++seed) {
    RunInterleavedTrial(seed, /*bucket_width=*/1e-3, /*buckets=*/4,
                        /*max_delay_s=*/1.0, /*ops=*/3000);
  }
}

TEST(CalendarEventQueue, MatchesHeapWithOneGiantBucket) {
  // Degenerate calendar: a width wider than every delay turns the queue
  // into a single unsorted bucket — pure comparator-scan territory.
  RunInterleavedTrial(7, /*bucket_width=*/100.0, /*buckets=*/2,
                      /*max_delay_s=*/1.0, /*ops=*/3000);
}

TEST(CalendarEventQueue, FullKeyDuplicatesAllComeBack) {
  // N copies of the same (time, kind, instance) must pop N times, in a
  // contiguous run, from both queues.
  CalendarEventQueue calendar(1e-3, 16);
  HeapEventQueue heap;
  for (int copy = 0; copy < 5; ++copy) {
    for (int k : {3, 2, 10}) {
      ServeEvent e = MakeEvent(0.5, k, 1);
      calendar.Push(e);
      heap.Push(e);
    }
  }
  ServeEvent before = MakeEvent(0.25, 0, 0);
  ServeEvent after = MakeEvent(0.75, 0, 0);
  calendar.Push(before);
  heap.Push(before);
  calendar.Push(after);
  heap.Push(after);
  size_t pops = 0;
  while (!heap.empty()) {
    ExpectSameEvent(calendar.Pop(), heap.Pop(), pops++);
  }
  EXPECT_EQ(pops, 17u);
}

TEST(CalendarEventQueue, ArrivalIntoSkimmedBucketIsNotLost) {
  // PeekTime skims the cursor forward over empty buckets without popping.
  // The simulator then processes an *arrival* earlier than the peeked
  // event and schedules work into a bucket the cursor already passed —
  // the push must walk the cursor back so nothing is skipped.
  CalendarEventQueue q(1.0, 8);
  q.Push(MakeEvent(5.5, 2, 0));
  EXPECT_EQ(q.PeekTime(), 5.5);  // cursor now sits at bucket 5
  q.Push(MakeEvent(3.2, 2, 2));  // arrival-scheduled work behind the cursor
  q.Push(MakeEvent(5.5, 3, 1));
  EXPECT_EQ(q.Pop().instance, 2);
  EXPECT_EQ(q.Pop().instance, 0);  // kind 2 beats kind 3 at equal time
  EXPECT_EQ(q.Pop().instance, 1);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarEventQueue, WindowRotationReanchorsToTheOverflowMinimum) {
  // Everything beyond the window overflows; draining the window must
  // rotate it so far-future events re-bucket and pop in order.
  CalendarEventQueue q(1e-3, 4);  // window spans 4 ms
  q.Push(MakeEvent(0.001, 2, 0));
  q.Push(MakeEvent(10.0, 2, 1));     // far past the window
  q.Push(MakeEvent(10.0005, 3, 2));  // lands in the rotated window with #1
  q.Push(MakeEvent(25.0, 2, 3));     // still overflow after one rotation
  EXPECT_EQ(q.Pop().instance, 0);
  EXPECT_EQ(q.Pop().instance, 1);
  q.Push(MakeEvent(10.001, 2, 4));  // push into the rotated window
  EXPECT_EQ(q.Pop().instance, 2);
  EXPECT_EQ(q.Pop().instance, 4);
  EXPECT_EQ(q.Pop().instance, 3);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarEventQueue, ResetReusesTheQueueForANewRun) {
  CalendarEventQueue q(1e-3, 32);
  for (int trial = 0; trial < 3; ++trial) {
    HeapEventQueue heap;
    uint64_t rng = 42 + static_cast<uint64_t>(trial);
    for (int i = 0; i < 500; ++i) {
      ServeEvent e = MakeEvent(static_cast<double>(SplitMix64(rng) % 1000) * 1e-4,
                               static_cast<int>(SplitMix64(rng) % 11),
                               static_cast<int>(SplitMix64(rng) % 4));
      q.Push(e);
      heap.Push(e);
    }
    size_t pops = 0;
    while (!heap.empty()) {
      ExpectSameEvent(q.Pop(), heap.Pop(), pops++);
    }
    EXPECT_TRUE(q.empty());
    // Re-arm with a different width; correctness must not depend on it.
    q.Reset(trial == 0 ? 0.05 : 2e-4);
  }
}

TEST(CalendarEventQueue, PeekThenPopReturnsThePeekedEvent) {
  CalendarEventQueue q(1e-3, 16);
  q.Push(MakeEvent(0.002, 5, 1));
  q.Push(MakeEvent(0.002, 2, 0));
  EXPECT_EQ(q.PeekTime(), 0.002);
  // A push that beats the cached minimum must displace it...
  q.Push(MakeEvent(0.0005, 9, 3));
  ServeEvent e = q.Pop();
  EXPECT_EQ(e.instance, 3);
  // ...and one that loses must not.
  EXPECT_EQ(q.PeekTime(), 0.002);
  q.Push(MakeEvent(0.009, 2, 2));
  EXPECT_EQ(static_cast<int>(q.Pop().kind), 2);
  EXPECT_EQ(static_cast<int>(q.Pop().kind), 5);
  EXPECT_EQ(q.Pop().instance, 2);
}

// Traffic whose rate ramps sparse -> 50x dense -> sparse across many
// window rotations, so the width refits both down and back up. Every pop
// must still match the heap, and the width must track the live rate.
TEST(CalendarEventQueue, DensityRampMatchesHeapAndTracksTheRate) {
  constexpr double kSparseGapS = 1e-2;
  constexpr double kDenseGapS = kSparseGapS / 50.0;
  constexpr size_t kBuckets = 256;
  constexpr size_t kPendingDepth = 40;  // events in flight, like a busy pool
  // Seeded with the sparse gap: the first window starts at the right rate.
  CalendarEventQueue calendar(kSparseGapS, kBuckets);
  HeapEventQueue heap;
  constexpr int kFarInstance = 64;  // near events use instances 0..63
  uint64_t rng = 2024;
  double next_t = 0.0;
  size_t pops = 0;
  size_t far_pending = 0;
  double prev_width = calendar.width();
  auto pop_and_compare = [&] {
    ASSERT_EQ(calendar.size(), heap.size());
    EXPECT_EQ(calendar.PeekTime(), heap.PeekTime());
    ServeEvent expected = heap.Pop();
    ExpectSameEvent(calendar.Pop(), expected, pops++);
    if (expected.instance == kFarInstance) {
      --far_pending;
    }
    // Each refit stays inside the clamp: at most 64x either way.
    double w = calendar.width();
    ASSERT_TRUE(std::isfinite(w));
    ASSERT_GT(w, 0.0);
    EXPECT_LE(w, prev_width * 64.0) << "pop " << pops;
    EXPECT_GE(w, prev_width / 64.0) << "pop " << pops;
    prev_width = w;
  };
  // Exponential gaps at the phase's mean; a few far-future events (a
  // failure scheduled at the horizon, say) ride the overflow heap without
  // counting toward the in-flight depth, so pops never run ahead of pushes.
  auto run_phase = [&](double mean_gap_s, int events) {
    for (int k = 0; k < events; ++k) {
      double u = (static_cast<double>(SplitMix64(rng) >> 11) + 0.5) / 9007199254740992.0;
      next_t += -mean_gap_s * std::log(u);
      ServeEvent e = MakeEvent(next_t, static_cast<int>(SplitMix64(rng) % 11),
                               static_cast<int>(SplitMix64(rng) % 64));
      calendar.Push(e);
      heap.Push(e);
      if (SplitMix64(rng) % 100 == 0) {
        ServeEvent far =
            MakeEvent(next_t + 500.0 * kSparseGapS * kBuckets, 0, kFarInstance);
        calendar.Push(far);
        heap.Push(far);
        ++far_pending;
      }
      while (heap.size() > kPendingDepth + far_pending) {
        pop_and_compare();
      }
    }
  };
  // Each phase spans dozens of windows at its own fitted width.
  run_phase(kSparseGapS, 20000);
  EXPECT_NEAR(std::log2(calendar.width() / kSparseGapS), 0.0, 1.0);
  run_phase(kDenseGapS, 100000);
  // After the dense stretch the width sits within 2x of 1 / pop rate.
  EXPECT_NEAR(std::log2(calendar.width() / kDenseGapS), 0.0, 1.0);
  run_phase(kSparseGapS, 20000);
  // A lull refits the width back up, even though one window at the dense
  // width holds too few pops to refit on its own.
  EXPECT_NEAR(std::log2(calendar.width() / kSparseGapS), 0.0, 1.0);
  while (!heap.empty()) {
    pop_and_compare();
  }
  EXPECT_TRUE(calendar.empty());
}

}  // namespace
}  // namespace litegpu
