// Exact fast-forward of a repeated floating-point add.
//
// RepeatAdd(a, c, k) returns exactly the double that k sequential `a += c`
// adds produce (IEEE binary64, round to nearest even), in O(binades crossed)
// instead of O(k). Inside one binade every value is a multiple of that
// binade's ulp u, and an add whose result stays in the binade rounds to
// that grid: it moves the bit pattern by floor(c / u) or one more. Which of
// the two is fixed by c alone, except for a tie (c an odd multiple of u/2),
// where round-to-even picks by parity — and after one in-binade add the
// value is even, so every later tie rounds the same way. So after one
// settling add every add inside the binade moves the bits by one constant
// count: the function jumps by that count with integer arithmetic, stops
// one add short of the binade's top, and lets real adds carry the sum into
// the next binade.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

namespace litegpu {

// Runs shorter than this take the plain loop: a few adds cost less than
// setting up a jump.
inline constexpr uint64_t kRepeatAddMinJump = 8;

namespace fp_repeat_internal {

// The jump, kept out of line so the short-run loop in RepeatAdd inlines
// into hot callers.
[[gnu::noinline]] inline double RepeatAddJump(double a, double c, uint64_t k) {
  // The jump needs a finite, non-negative sum growing by a positive
  // addend; anything else takes the plain loop.
  if (!(c > 0.0) || !(a >= 0.0) || !std::isfinite(a) || !std::isfinite(c)) {
    for (; k > 0; --k) {
      a += c;
    }
    return a;
  }
  auto bits = [](double x) {
    uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  constexpr uint64_t kExponent = 0x7ffULL << 52;
  while (k > 0) {
    // The settling add, then one more to measure the step.
    double settled = a + c;
    --k;
    if (settled == a) {
      return a;  // this add changed nothing, so no later one will
    }
    const uint64_t from = bits(a);
    a = settled;
    if (k == 0 || ((from ^ bits(settled)) & kExponent) != 0) {
      continue;  // crossed into a new binade: settle again there
    }
    double next = settled + c;
    --k;
    if (next == settled) {
      return settled;
    }
    a = next;
    const uint64_t b = bits(next);
    if (k == 0 || ((bits(settled) ^ b) & kExponent) != 0) {
      continue;
    }
    // An add from bit pattern x lands on x + step while x + step + 1 stays
    // below the binade's top: its exact sum is at most x + step + 1/2 ulps,
    // which then cannot round up into the next binade.
    const uint64_t step = b - bits(settled);
    const uint64_t top = (b & kExponent) + (1ULL << 52);
    uint64_t jump = b + 2 <= top ? (top - 2 - b) / step : 0;
    if (jump > k) {
      jump = k;
    }
    const uint64_t landed = b + jump * step;
    std::memcpy(&a, &landed, sizeof a);
    k -= jump;
  }
  return a;
}

}  // namespace fp_repeat_internal

inline double RepeatAdd(double a, double c, uint64_t k) {
  if (k >= kRepeatAddMinJump) {
    return fp_repeat_internal::RepeatAddJump(a, c, k);
  }
  for (; k > 0; --k) {
    a += c;
  }
  return a;
}

}  // namespace litegpu
