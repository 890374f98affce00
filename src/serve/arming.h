// Backlog arming's boundary math for the serve core's coalesced decode runs
// (simulator.cc, "backlog arming"), outside the event loop so tests can hold
// it against the exhaustive search.
//
// A coalesced run stands for a chain of decode steps whose ends are the
// sequential sums the per-step events made: started + duration, then
// + duration per step. When decode work queues up, arming needs, of the
// runs that could admit it, the one whose next step end at or after `now`
// comes first (ties to the lower instance index). One run's next end is an
// exact search over its steps (CountStepsBefore); a bound on it is one
// multiply-add. ChooseArmed bounds every candidate, then searches only the
// ones whose bound can still win.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/fp_repeat.h"

namespace litegpu {

// How many of the `left` steps after the one started at `started` end
// before t (or at t, if `inclusive`), with each end the sequential sum the
// per-step events made — started + duration, then + duration per step —
// and the last such end (`started` if none). Sequential ends never
// decrease, so those steps are a prefix of the run. A short prefix is
// walked add by add; a long one is estimated from the real-valued step
// count, then settled exactly by galloping and bisecting over RepeatAdd.
struct StepsBefore {
  uint64_t count;
  double end;
};

inline StepsBefore CountStepsBefore(double started, double duration, uint64_t left, double t,
                                    bool inclusive) {
  auto before = [&](double end) { return end < t || (inclusive && end == t); };
  const double estimate =
      left < kRepeatAddMinJump || !(duration > 0.0) ? 0.0 : (t - started) / duration;
  if (!(estimate >= kRepeatAddMinJump)) {
    uint64_t k = 0;
    for (double end = started + duration; k < left && before(end); end = started + duration) {
      started = end;
      ++k;
    }
    return {k, started};
  }
  // Steps 1..lo end before t, the lo-th at lo_end; step hi does not (hi =
  // left + 1 stands for past the run).
  uint64_t lo = 0;
  double lo_end = started;
  uint64_t hi = left + 1;
  // Aim one step under the estimate, so the first probe nearly always
  // lands inside the prefix and the gallop only walks forward.
  const uint64_t guess = estimate - 1.0 >= static_cast<double>(left)
                             ? left
                             : static_cast<uint64_t>(estimate - 1.0);
  const double guess_end = RepeatAdd(started, duration, guess);
  if (before(guess_end)) {
    lo = guess;
    lo_end = guess_end;
  } else {
    hi = guess;
  }
  if (hi == left + 1) {
    for (uint64_t step = 1; lo + step < hi; step *= 2) {
      double end = RepeatAdd(lo_end, duration, step);
      if (!before(end)) {
        hi = lo + step;
        break;
      }
      lo += step;
      lo_end = end;
    }
  } else {
    for (uint64_t step = 1; step < hi - lo; step *= 2) {
      double end = RepeatAdd(started, duration, hi - step);
      if (before(end)) {
        lo = hi - step;
        lo_end = end;
        break;
      }
      hi -= step;
    }
  }
  while (hi - lo > 1) {
    uint64_t mid = lo + (hi - lo) / 2;
    double end = RepeatAdd(lo_end, duration, mid - lo);
    if (before(end)) {
      lo = mid;
      lo_end = end;
    } else {
      hi = mid;
    }
  }
  return {lo, lo_end};
}

// A run cursor is a step start `started` with `left` skipped steps after it
// and then the run's final step, all `duration` long. Its next boundary at
// `now` is the end of its first step that does not end before `now`, or of
// the final step if all skipped ones do: where cutting the run puts its
// event. AdvanceToNextBoundary finds it exactly, moves the cursor to the
// start of that step and returns the boundary.
inline double AdvanceToNextBoundary(double& started, uint64_t& left, double duration,
                                    double now) {
  const StepsBefore done = CountStepsBefore(started, duration, left, now, /*inclusive=*/false);
  started = done.end;
  left -= done.count;
  return done.end + duration;
}

// An interval that holds a cursor's next boundary.
struct BoundaryWindow {
  double lo;
  double hi;
};

// The window without a search. With s = started, d = duration, m = left,
// the sequential step ends E_j (j = 1..m+1) differ from the real s + j*d by
// at most tol = (m + 4) * 2^-52 * (|s| + |now| + 2d): the recursive
// summation bound (Higham, "Accuracy and Stability of Numerical
// Algorithms", 2nd ed., sec. 4.2) over at most m + 1 adds of magnitude
// below |s| + |now| + 2d near `now`, doubled to also cover rounding in this
// function's own arithmetic. So the boundary is E_k, k = ceil((now - s) / d)
// clamped to [1, m + 1], within tol of s + k*d — unless `now` lies within
// 2 tol of a step end, where E_k may land on either side of `now`: then the
// window widens by one step each way. If tol >= d / 4 (a step too short for
// its magnitude, or a cursor so long the bound says little) the window is
// the whole line, which sends the cursor to the exact search; non-finite
// inputs give that or NaN ends, which no comparison filters out either.
//
// Branch-free, so the bound pass over a wide pool overlaps candidates: k is
// round-to-nearest((now - s) / d + 1/2) by the 2^52 trick (a ceil call is a
// libm call on baseline x86-64). It equals the ceiling except where the
// quotient is within rounding of an integer, and there either neighbour is
// fine: `now` is then near a step end, so the window widens over both.
inline BoundaryWindow NextBoundaryWindow(double started, double duration, uint64_t left,
                                         double now) {
  const double last = static_cast<double>(left) + 1.0;  // the final step's index
  const double tol =
      (last + 3.0) * 0x1p-52 * (std::fabs(started) + std::fabs(now) + 2.0 * duration);
  const double x = (now - started) / duration + 0.5;
  const double k = (std::min(std::max(x, 1.0), last) + 0x1p52) - 0x1p52;
  const double end = started + k * duration;
  const double gap = std::min(now - (end - duration), end - now);
  double reach = tol + (gap <= 2.0 * tol ? duration : 0.0);
  if (!(tol < 0.25 * duration)) {
    reach = std::numeric_limits<double>::infinity();
  }
  return {end - reach, end + reach};
}

// Of the candidate runs (instance indices in ascending order, cursors in
// columns indexed by instance), the one with the least next boundary at
// `now`, ties to the lower index; -1 if there are none. A lone candidate is
// chosen with no boundary math. Otherwise a bound pass takes every
// candidate's window, and only the contenders — windows starting at or
// before the least window end, which the winner's boundary cannot exceed —
// get the exact search, in ascending order with a strict `<`, so an exact
// tie keeps the lower index. Only contenders' cursors advance. `window_lo`
// is scratch.
inline int ChooseArmed(const std::vector<int>& candidates, const double* duration,
                       double* started, uint64_t* left, double now,
                       std::vector<double>& window_lo) {
  if (candidates.size() <= 1) {
    return candidates.empty() ? -1 : candidates[0];
  }
  window_lo.resize(candidates.size());
  double least_hi = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < candidates.size(); ++c) {
    const int i = candidates[c];
    const BoundaryWindow w = NextBoundaryWindow(started[i], duration[i], left[i], now);
    window_lo[c] = w.lo;
    least_hi = std::min(least_hi, w.hi);  // keeps least_hi if w.hi is NaN
  }
  int armed = -1;
  double armed_boundary = 0.0;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (window_lo[c] > least_hi) {  // a NaN end contends
      continue;
    }
    const int i = candidates[c];
    const double boundary = AdvanceToNextBoundary(started[i], left[i], duration[i], now);
    if (armed < 0 || boundary < armed_boundary) {
      armed = i;
      armed_boundary = boundary;
    }
  }
  return armed;
}

}  // namespace litegpu
