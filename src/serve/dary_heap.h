// Min-heap of uint64_t keys with four children per node, for the decode
// pool's per-instance completion heaps.
//
// A decode instance holds a continuous batch of up to a few hundred
// sequences, and nearly every step pops one. A binary heap over 282 keys
// sifts about 8 levels per pop, each a data-dependent branch on which child
// is smaller; four children per node halve the depth, and a node's four
// children are adjacent in memory (LaMarca & Ladner, "The influence of
// caches on the performance of heaps", JEA 1996). Both sifts move a hole
// instead of swapping, writing each displaced key once, and the pop picks
// the least child with selects rather than branches.
//
// Equal keys pop in an unspecified order, as with std::pop_heap. The serve
// core's keys are unique (they pack the request index), so its pop sequence
// is the same as any other min-heap's.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace litegpu {

class DaryMinHeap {
 public:
  static constexpr size_t kArity = 4;

  bool empty() const { return keys_.empty(); }
  size_t size() const { return keys_.size(); }
  // The least key; undefined on an empty heap.
  uint64_t front() const { return keys_[0]; }
  void clear() { keys_.clear(); }
  void reserve(size_t n) { keys_.reserve(n); }

  void push(uint64_t key) {
    size_t hole = keys_.size();
    keys_.push_back(key);
    uint64_t* k = keys_.data();
    while (hole > 0) {
      size_t parent = (hole - 1) / kArity;
      if (k[parent] <= key) {
        break;
      }
      k[hole] = k[parent];
      hole = parent;
    }
    k[hole] = key;
  }

  // Removes and returns the least key; undefined on an empty heap.
  uint64_t pop() {
    uint64_t* k = keys_.data();
    const uint64_t top = k[0];
    const uint64_t last = keys_.back();
    keys_.pop_back();
    const size_t n = keys_.size();
    size_t hole = 0;
    for (;;) {
      const size_t first = hole * kArity + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      uint64_t best_key = k[first];
      if (first + kArity <= n) {
        // Full node: a fixed trip count the compiler unrolls into selects.
        for (size_t c = first + 1; c < first + kArity; ++c) {
          const bool less = k[c] < best_key;
          best = less ? c : best;
          best_key = less ? k[c] : best_key;
        }
      } else {
        // The one partial node, at the bottom level.
        for (size_t c = first + 1; c < n; ++c) {
          const bool less = k[c] < best_key;
          best = less ? c : best;
          best_key = less ? k[c] : best_key;
        }
      }
      if (last <= best_key) {
        break;
      }
      k[hole] = best_key;
      hole = best;
    }
    if (n > 0) {
      k[hole] = last;
    }
    return top;
  }

 private:
  std::vector<uint64_t> keys_;
};

}  // namespace litegpu
