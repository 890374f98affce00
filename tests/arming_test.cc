// Backlog arming's bound pass (src/serve/arming.h) against the exhaustive
// search it replaces: on seeded random pools of coalesced-run cursors,
// every cursor's window must hold its exact next boundary, and ChooseArmed
// must pick the same instance as an exact search over every candidate —
// least boundary, ties to the lower index — while moving only cursors it
// searched, and only to where the exact search puts them.

#include "src/serve/arming.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/fp_repeat.h"
#include "src/util/rng.h"

namespace litegpu {
namespace {

// Candidate cursors as the simulator keeps them: columns by instance.
struct Pool {
  std::vector<double> started, duration;
  std::vector<uint64_t> left;
  void Add(double s, double d, uint64_t m) {
    started.push_back(s);
    duration.push_back(d);
    left.push_back(m);
  }
  size_t size() const { return started.size(); }
};

double ExactBoundary(const Pool& pool, size_t i, double now) {
  double started = pool.started[i];
  uint64_t left = pool.left[i];
  return AdvanceToNextBoundary(started, left, pool.duration[i], now);
}

// What arming did before the bound pass: an exact search on every
// candidate, ascending, keeping the first least boundary.
int ExhaustiveArgmin(const Pool& pool, const std::vector<int>& candidates, double now) {
  int best = -1;
  double best_boundary = 0.0;
  for (int i : candidates) {
    double boundary = ExactBoundary(pool, static_cast<size_t>(i), now);
    if (best < 0 || boundary < best_boundary) {
      best = i;
      best_boundary = boundary;
    }
  }
  return best;
}

// x moved by `ulps` representable doubles (negative: down).
double Ulps(double x, int ulps) {
  const double toward = ulps < 0 ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
  for (int k = 0; k < std::abs(ulps); ++k) {
    x = std::nextafter(x, toward);
  }
  return x;
}

// A step time in binade 2^e, e in [lo_exp, hi_exp].
double StepTime(Rng& rng, int lo_exp, int hi_exp) {
  int e = lo_exp + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(hi_exp - lo_exp + 1)));
  return std::ldexp(1.0 + rng.NextDouble(), e);
}

// Skipped steps after a cursor: mostly short, some long (>= 10^6).
uint64_t StepsLeft(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return rng.NextBelow(4);
    case 1:
      return rng.NextBelow(40);
    case 2:
      return rng.NextBelow(5000);
    default:
      return 1000000 + rng.NextBelow(200000000);
  }
}

// A cursor whose run spans `now`, as in the simulator: it started some
// whole steps and a fraction before `now` (never before time 0), so its
// final step ends at or after `now` unless time 0 cut the start short. One
// time in eight the cursor starts at or after `now` instead.
void AddSpanning(Pool& pool, Rng& rng, double now, double d, uint64_t m) {
  const double most = std::min(static_cast<double>(m), std::floor(now / d));
  double s = now - (std::floor(rng.NextDouble() * (most + 1.0)) + rng.NextDouble()) * d;
  if (rng.NextBelow(8) == 0) {
    s = rng.NextBelow(2) == 0 ? now : now + rng.NextDouble() * d;
  }
  pool.Add(std::max(0.0, s), d, m);
}

struct Coverage {
  int cases = 0;
  int exact_ties = 0;         // >= 2 candidates share the least boundary
  int near_ties = 0;          // the two least boundaries are 1..8 ulps apart
  int now_on_step_end = 0;    // some candidate has a step ending exactly at now
  int long_cursors = 0;       // some candidate has >= 10^6 steps left
  int whole_line = 0;         // some window fell back to (-inf, inf)
  int widened = 0;            // some window spans more than 2 tol
  int searched_one = 0;       // at most one cursor moved: one contender, as a rule
};

// Generates case `seed`, checks it, and tallies what it covered.
void CheckCase(uint64_t seed, Coverage& coverage) {
  Rng rng(seed);
  Pool pool;
  const size_t n = 2 + rng.NextBelow(rng.NextBelow(4) == 0 ? 47 : 15);
  // Magnitude of simulated time: 2^-4 .. 2^24 seconds.
  double now = std::ldexp(1.0 + rng.NextDouble(), -4 + static_cast<int>(rng.NextBelow(29)));
  const uint64_t kind = rng.NextBelow(6);
  switch (kind) {
    case 0: {  // independent cursors, step times across binades
      for (size_t c = 0; c < n; ++c) {
        AddSpanning(pool, rng, now, StepTime(rng, -14, 2), StepsLeft(rng));
      }
      break;
    }
    case 1: {  // `now` exactly on, or a few ulps off, one cursor's step end
      double d = StepTime(rng, -12, 0);
      uint64_t m = StepsLeft(rng) + 1;
      double s = std::max(0.0, now - std::floor(rng.NextDouble() * 64.0) * d);
      uint64_t j = 1 + rng.NextBelow(std::min<uint64_t>(m + 1, 128));
      now = Ulps(RepeatAdd(s, d, j), static_cast<int>(rng.NextBelow(7)) - 3);
      pool.Add(s, d, m);
      for (size_t c = 1; c < n; ++c) {
        AddSpanning(pool, rng, now, rng.NextBelow(2) == 0 ? d : StepTime(rng, -12, 0),
                    StepsLeft(rng));
      }
      break;
    }
    case 2: {  // one step grid: binary fractions, so equal boundaries tie exactly
      double d = std::ldexp(1.0, -6 - static_cast<int>(rng.NextBelow(4)));
      now = std::floor(now / d) * d + (rng.NextBelow(2) == 0 ? 0.0 : d / 2);
      for (size_t c = 0; c < n; ++c) {
        double s = now - static_cast<double>(rng.NextBelow(50)) * d;
        pool.Add(s, rng.NextBelow(4) == 0 ? 2 * d : d, rng.NextBelow(100));
      }
      break;
    }
    case 3: {  // the same cursor shifted by a few ulps: boundaries ulps apart
      double d = StepTime(rng, -10, -4);
      uint64_t m = StepsLeft(rng);
      AddSpanning(pool, rng, now, d, m);
      for (size_t c = 1; c < n; ++c) {
        pool.Add(Ulps(pool.started[0], static_cast<int>(rng.NextBelow(9)) - 4), d, m);
      }
      break;
    }
    case 4: {  // long cursors: 10^6 .. 2*10^8 skipped steps
      for (size_t c = 0; c < n; ++c) {
        AddSpanning(pool, rng, now, StepTime(rng, -16, -2), 1000000 + rng.NextBelow(200000000));
      }
      break;
    }
    default: {  // some steps too short for their magnitude: tol >= d / 4
      for (size_t c = 0; c < n; ++c) {
        if (rng.NextBelow(3) == 0) {
          pool.Add(now * rng.NextDouble(),
                   std::ldexp(now, -48 - static_cast<int>(rng.NextBelow(12))), rng.NextBelow(1000));
        } else if (rng.NextBelow(2) == 0) {
          AddSpanning(pool, rng, now, StepTime(rng, -10, -2), uint64_t{1} << 60);
        } else {
          AddSpanning(pool, rng, now, StepTime(rng, -10, -2), StepsLeft(rng));
        }
      }
      break;
    }
  }

  // Candidates: a random subset in ascending order, at least two.
  std::vector<int> candidates;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (candidates.size() < 2 || rng.NextBelow(5) != 0) {
      candidates.push_back(static_cast<int>(i));
    }
  }

  std::vector<double> boundary(pool.size());
  bool on_step_end = false, long_cursor = false, whole_line = false, widened = false;
  for (int i : candidates) {
    const size_t k = static_cast<size_t>(i);
    boundary[k] = ExactBoundary(pool, k, now);
    const BoundaryWindow w =
        NextBoundaryWindow(pool.started[k], pool.duration[k], pool.left[k], now);
    // The contract ChooseArmed relies on: no window excludes its boundary
    // (NaN ends exclude nothing).
    ASSERT_FALSE(w.lo > boundary[k] || w.hi < boundary[k])
        << "seed " << seed << " cursor " << i << ": started " << pool.started[k]
        << " duration " << pool.duration[k] << " left " << pool.left[k] << " now " << now
        << " boundary " << boundary[k] << " window [" << w.lo << ", " << w.hi << "]";
    on_step_end |= boundary[k] == now;
    long_cursor |= pool.left[k] >= 1000000;
    whole_line |= std::isinf(w.lo) && std::isinf(w.hi);
    const double tol = (static_cast<double>(pool.left[k]) + 4.0) * 0x1p-52 *
                       (std::fabs(pool.started[k]) + std::fabs(now) + 2.0 * pool.duration[k]);
    widened |= !std::isinf(w.hi) && w.hi - w.lo > 4.0 * tol;
  }

  Pool searched = pool;
  std::vector<double> scratch;
  const int armed = ChooseArmed(candidates, searched.duration.data(), searched.started.data(),
                                searched.left.data(), now, scratch);
  const int expected = ExhaustiveArgmin(pool, candidates, now);
  ASSERT_EQ(armed, expected) << "seed " << seed << " now " << now;

  // Each cursor either stayed put or moved exactly where the exact search
  // puts it; the armed one was searched.
  int moved = 0;
  for (int i : candidates) {
    const size_t k = static_cast<size_t>(i);
    double started = pool.started[k];
    uint64_t left = pool.left[k];
    AdvanceToNextBoundary(started, left, pool.duration[k], now);
    const bool stayed = searched.started[k] == pool.started[k] && searched.left[k] == pool.left[k];
    const bool advanced = searched.started[k] == started && searched.left[k] == left;
    ASSERT_TRUE(stayed || advanced) << "seed " << seed << " cursor " << i;
    moved += !stayed;
  }
  const size_t a = static_cast<size_t>(armed);
  ASSERT_EQ(searched.started[a] + searched.duration[a], boundary[a]) << "seed " << seed;

  double least = boundary[a], second = std::numeric_limits<double>::infinity();
  int at_least = 0;
  for (int i : candidates) {
    const double b = boundary[static_cast<size_t>(i)];
    at_least += b == least;
    if (b > least) {
      second = std::min(second, b);
    }
  }
  ++coverage.cases;
  coverage.exact_ties += at_least >= 2;
  coverage.near_ties +=
      at_least == 1 && second != std::numeric_limits<double>::infinity() && second <= Ulps(least, 8);
  coverage.now_on_step_end += on_step_end;
  coverage.long_cursors += long_cursor;
  coverage.whole_line += whole_line;
  coverage.widened += widened;
  coverage.searched_one += moved <= 1;
}

TEST(Arming, BoundPassChoosesLikeTheExhaustiveSearch) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 100000; ++seed) {
    CheckCase(seed, coverage);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(coverage.cases, 100000);
  // Every edge the bound pass has to get right occurs many times over.
  EXPECT_GT(coverage.exact_ties, 5000);
  EXPECT_GT(coverage.near_ties, 4000);
  EXPECT_GT(coverage.now_on_step_end, 10000);
  EXPECT_GT(coverage.long_cursors, 30000);
  EXPECT_GT(coverage.whole_line, 20000);
  EXPECT_GT(coverage.widened, 30000);
  // And it does its job: in a quarter of the cases or more (fallbacks and
  // ties aside) it searches a single cursor.
  EXPECT_GT(coverage.searched_one, 25000);
}

TEST(Arming, WindowWidensWhenNowIsOnAStepEnd) {
  // Steps of 0.1 s from 0: the sequential ends 0.1, 0.2, 0.30000000000000004,
  // ... are not the products k * 0.1, so at `now` equal to an end the
  // quotient (now - s) / d can round either way. The boundary at an end is
  // that end (it does not end before `now`); every window must hold it.
  for (uint64_t j = 1; j <= 400; ++j) {
    const double end = RepeatAdd(0.0, 0.1, j);
    for (int ulps = -2; ulps <= 2; ++ulps) {
      const double now = Ulps(end, ulps);
      double started = 0.0;
      uint64_t left = 1000;
      const double boundary = AdvanceToNextBoundary(started, left, 0.1, now);
      const BoundaryWindow w = NextBoundaryWindow(0.0, 0.1, 1000, now);
      EXPECT_LE(w.lo, boundary) << j << " " << ulps;
      EXPECT_GE(w.hi, boundary) << j << " " << ulps;
    }
  }
}

TEST(Arming, LoneAndEmptyCandidateSetsNeedNoBoundary) {
  // NaN cursors would poison any boundary math: a lone candidate is chosen
  // without touching them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> started = {nan, nan}, duration = {nan, nan}, scratch;
  std::vector<uint64_t> left = {7, 7};
  EXPECT_EQ(ChooseArmed({1}, duration.data(), started.data(), left.data(), 1.0, scratch), 1);
  EXPECT_EQ(ChooseArmed({}, duration.data(), started.data(), left.data(), 1.0, scratch), -1);
  EXPECT_EQ(left[1], 7u);
}

TEST(Arming, NonFiniteCursorsContend) {
  // A window with a NaN or infinite end filters nothing out, so such a
  // cursor always gets the exact search, like every cursor used to.
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf}) {
    const BoundaryWindow w = NextBoundaryWindow(bad, 0.01, 10, 5.0);
    EXPECT_FALSE(w.lo > 5.0) << bad;
    const BoundaryWindow v = NextBoundaryWindow(4.99, bad, 10, 5.0);
    EXPECT_FALSE(v.lo > 5.0) << bad;
  }
}

}  // namespace
}  // namespace litegpu
