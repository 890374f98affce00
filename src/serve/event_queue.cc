#include "src/serve/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

namespace litegpu {

namespace {

// A refit needs this many pops behind it; fewer would make the rate
// estimate noisy. Windows that see fewer pops accumulate into the next.
constexpr size_t kMinRefitPops = 64;
// One refit moves the width by at most this factor either way, so a
// transient burst or lull cannot swing it by orders of magnitude at once.
constexpr double kMaxRefitFactor = 64.0;

}  // namespace

CalendarEventQueue::CalendarEventQueue(double bucket_width, size_t buckets)
    : width_(bucket_width > 0.0 ? bucket_width : 1e-3),
      buckets_(buckets == 0 ? 1 : buckets) {}

void CalendarEventQueue::Reset(double bucket_width) {
  assert(size_ == 0 && "Reset on a non-empty CalendarEventQueue");
  width_ = bucket_width > 0.0 ? bucket_width : 1e-3;
  window_start_ = 0.0;
  cursor_ = 0;
  min_valid_ = false;
  refit_pops_ = 0;
  refit_span_s_ = 0.0;
  // Bucket capacity survives (the scratch arena reuses the queue across
  // sweep points); the run left every bucket empty.
}

void CalendarEventQueue::PushOverflow(const ServeEvent& e) {
  // Beyond the window: overflow min-heap. Overflow times are >= the
  // window end, so they can never beat a bucketed minimum — the cached
  // minimum (if any) stays valid.
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), std::greater<ServeEvent>());
}

size_t CalendarEventQueue::MinInBucket(size_t b) const {
  const std::vector<ServeEvent>& bucket = buckets_[b];
  size_t best = 0;
  for (size_t i = 1; i < bucket.size(); ++i) {
    if (bucket[i] < bucket[best]) {
      best = i;
    }
  }
  return best;
}

void CalendarEventQueue::AdvanceCursor() {
  if (in_window_ == 0) {
    // The window drained; rotate it to the overflow minimum and re-bucket
    // every overflow event the new window covers. Amortized O(1) per event:
    // each event overflows at most once per rotation it lands in, and
    // rotations only move the window forward.
    assert(!overflow_.empty());
    RefitWidth();
    window_start_ = overflow_.front().time_s;
    cursor_ = 0;
    size_t kept = 0;
    for (size_t i = 0; i < overflow_.size(); ++i) {
      size_t idx = BucketIndex(overflow_[i].time_s);
      if (idx < buckets_.size()) {
        buckets_[idx].push_back(overflow_[i]);
        ++in_window_;
      } else {
        overflow_[kept++] = overflow_[i];
      }
    }
    overflow_.resize(kept);
    std::make_heap(overflow_.begin(), overflow_.end(), std::greater<ServeEvent>());
  }
  while (buckets_[cursor_].empty()) {
    ++cursor_;
  }
}

void CalendarEventQueue::RefitWidth() {
  // Pop order never depends on the width, so this is a pure performance
  // choice: aim for about one pop per bucket, i.e. width = span / pops.
  refit_span_s_ += width_ * static_cast<double>(buckets_.size());
  if (refit_pops_ < kMinRefitPops) {
    return;
  }
  double fit = refit_span_s_ / static_cast<double>(refit_pops_);
  fit = std::max(std::min(fit, width_ * kMaxRefitFactor), width_ / kMaxRefitFactor);
  // Keep extreme widths normal and finite.
  fit = std::min(std::max(fit, std::numeric_limits<double>::min()),
                 std::numeric_limits<double>::max());
  assert(std::isfinite(fit) && fit > 0.0 && "refitted bucket width must be finite and positive");
  width_ = fit;
  refit_pops_ = 0;
  refit_span_s_ = 0.0;
}

void HeapEventQueue::Push(const ServeEvent& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<ServeEvent>());
}

ServeEvent HeapEventQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<ServeEvent>());
  ServeEvent e = heap_.back();
  heap_.pop_back();
  return e;
}

}  // namespace litegpu
