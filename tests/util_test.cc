#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "src/util/format.h"
#include "src/util/fp_repeat.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace litegpu {
namespace {

// --- format ---

TEST(Format, FormatDoubleBasic) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

TEST(Format, FormatDoubleTrimsNegativeZero) {
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0.00");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(HumanBytes(3.352e12), "3.35 TB");
  EXPECT_EQ(HumanBytes(80e9), "80.00 GB");
  EXPECT_EQ(HumanBytes(512), "512.00 B");
}

TEST(Format, HumanBandwidth) { EXPECT_EQ(HumanBandwidth(450e9), "450.00 GB/s"); }

TEST(Format, HumanFlops) { EXPECT_EQ(HumanFlops(2e15), "2.00 PFLOPS"); }

TEST(Format, HumanTimePicksUnits) {
  EXPECT_EQ(HumanTime(1.5), "1.50 s");
  EXPECT_EQ(HumanTime(0.05), "50.00 ms");
  EXPECT_EQ(HumanTime(31e-6), "31.00 us");
  EXPECT_EQ(HumanTime(2e-9), "2.00 ns");
}

TEST(Format, HumanPower) { EXPECT_EQ(HumanPower(35000), "35.00 kW"); }

TEST(Format, HumanPercent) { EXPECT_EQ(HumanPercent(0.1234), "12.34%"); }

TEST(Units, Consistency) {
  EXPECT_DOUBLE_EQ(kTFLOPS, 1000.0 * kGFLOPS);
  EXPECT_DOUBLE_EQ(kGB, 1e9);
  EXPECT_DOUBLE_EQ(kGiB, 1073741824.0);
  EXPECT_DOUBLE_EQ(kHour, 60.0 * kMinute);
  EXPECT_DOUBLE_EQ(kGbps * 8.0, kGB);
}

// --- table ---

TEST(Table, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"beta", "22"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, ToCsvRoundTrip) {
  Table t({"k", "v"});
  t.AddRow({"x,y", "1"});
  std::string csv = t.ToCsv();
  EXPECT_EQ(csv, "k,v\n\"x,y\",1\n");
}

// --- stats ---

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-6);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Median(), 50.5);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
}

// Quantiles, min and max select ranks instead of sorting; each must equal
// the same formula over a fully sorted copy bit for bit, whatever order the
// queries come in and however Add calls interleave with them.
TEST(SampleSet, SelectedQuantilesMatchASortedCopyExactly) {
  Rng rng(20);
  for (int round = 0; round < 200; ++round) {
    SampleSet set;
    std::vector<double> all;
    const int adds = 1 + static_cast<int>(rng.NextBelow(round < 150 ? 40 : 3000));
    const uint64_t distinct = rng.NextBelow(2) == 0 ? 5 : 1000000;  // duplicates or not
    for (int a = 0; a < adds; ++a) {
      const double x = static_cast<double>(rng.NextBelow(distinct)) * 0.001;
      set.Add(x);
      all.push_back(x);
      if (rng.NextBelow(a < 40 ? 4 : 256) != 0) {
        continue;
      }
      std::vector<double> sorted = all;
      std::sort(sorted.begin(), sorted.end());
      for (int query = 0; query < 6; ++query) {
        const double q = rng.NextBelow(4) == 0 ? 0.0 : rng.NextDouble();
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
        const double got = set.Quantile(q);
        EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0) << round << " " << q;
        EXPECT_EQ(set.min(), sorted.front()) << round;
        EXPECT_EQ(set.max(), sorted.back()) << round;
      }
      std::vector<double> kept = set.samples();
      std::sort(kept.begin(), kept.end());
      EXPECT_EQ(kept, sorted) << round;  // selection only reorders
    }
  }
}

TEST(SampleSet, QuantileClampsOutOfRange) {
  SampleSet s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(2.0), 5.0);
}

TEST(LatencyHistogram, ExactScalarStatsAndStreamingQuantiles) {
  LatencyHistogram h(/*hi=*/1.0, /*bins=*/1000);
  SampleSet exact;
  for (int i = 1; i <= 500; ++i) {
    double x = 0.001 * i;  // 1 ms .. 500 ms
    h.Add(x);
    exact.Add(x);
  }
  EXPECT_EQ(h.count(), 500u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.500);
  EXPECT_NEAR(h.mean(), exact.mean(), 1e-12);
  // Percentiles land within one bin width of the exact sample quantiles.
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_NEAR(h.Quantile(q), exact.Quantile(q), h.bin_width()) << q;
  }
}

TEST(LatencyHistogram, BimodalQuantileStraddlingAGapStaysWithinOneBin) {
  // 99 samples at 5 ms plus one at 500 ms: the exact p99 interpolates into
  // the empty gap between the modes (9.95 ms). The histogram must follow
  // the same rank-interpolation convention, not snap to the lower mode.
  LatencyHistogram h;  // default 16384 bins over [0, 1s)
  SampleSet exact;
  for (int i = 0; i < 99; ++i) {
    h.Add(0.005);
    exact.Add(0.005);
  }
  h.Add(0.500);
  exact.Add(0.500);
  EXPECT_NEAR(h.P99(), exact.P99(), h.bin_width());
  EXPECT_NEAR(h.Median(), exact.Median(), h.bin_width());
  EXPECT_NEAR(h.Quantile(1.0), 0.500, 1e-12);
}

TEST(LatencyHistogram, OverflowSamplesReportExactMax) {
  LatencyHistogram h(/*hi=*/0.010, /*bins=*/10);
  h.Add(0.001);
  h.Add(2.5);  // way past the binned range
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 2.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.5);
  // Quantiles never escape the observed [min, max].
  EXPECT_GE(h.Quantile(0.0), 0.001);
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, CountAtOrBelowInterpolatesAndIsExactAtBoundaries) {
  LatencyHistogram h(/*hi=*/1.0, /*bins=*/10);  // bin width 0.1
  for (int i = 0; i < 4; ++i) {
    h.Add(0.05);  // bin 0
  }
  h.Add(0.25);  // bin 2
  h.Add(1.7);   // overflow
  // Bin boundaries count whole bins (to within rounding of the bin index).
  EXPECT_NEAR(h.CountAtOrBelow(0.1), 4.0, 1e-9);
  EXPECT_NEAR(h.CountAtOrBelow(0.2), 4.0, 1e-9);
  EXPECT_NEAR(h.CountAtOrBelow(0.3), 5.0, 1e-9);
  // Mid-bin thresholds interpolate within the containing bin.
  EXPECT_NEAR(h.CountAtOrBelow(0.05), 2.0, 1e-9);
  EXPECT_NEAR(h.CountAtOrBelow(0.25), 4.5, 1e-9);
  // Everything at or past the range end includes the overflow bucket.
  EXPECT_DOUBLE_EQ(h.CountAtOrBelow(5.0), 6.0);
  EXPECT_DOUBLE_EQ(h.CountAtOrBelow(0.0), 0.0);
}

TEST(LatencyHistogram, MergeMatchesStreamingEverySampleThroughOne) {
  // The shard merge contract: bin-wise merge of per-shard histograms is
  // indistinguishable from one histogram that saw every sample.
  LatencyHistogram a(/*hi=*/1.0, /*bins=*/256);
  LatencyHistogram b(/*hi=*/1.0, /*bins=*/256);
  LatencyHistogram all(/*hi=*/1.0, /*bins=*/256);
  for (int i = 0; i < 500; ++i) {
    double x = 0.002 * static_cast<double>(i % 300);  // some overflow >= 1.0
    LatencyHistogram& shard = (i % 2 == 0) ? a : b;
    shard.Add(x);
    all.Add(x);
  }
  a.Add(0.5, 25);  // weighted adds merge too
  all.Add(0.5, 25);
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(a.CountAtOrBelow(0.35), all.CountAtOrBelow(0.35));
  // Merging an empty histogram is the identity.
  LatencyHistogram empty(/*hi=*/1.0, /*bins=*/256);
  double before = a.Quantile(0.5);
  a.Merge(empty);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), before);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.9);
  h.Add(-5.0);   // clamps to first
  h.Add(100.0);  // clamps to last
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(9), 10.0);
}

// --- fp_repeat ---

double PlainRepeatAdd(double a, double c, uint64_t k) {
  for (; k > 0; --k) {
    a += c;
  }
  return a;
}

// Ulp of the binade holding x > 0.
double UlpOf(double x) { return std::ldexp(1.0, std::ilogb(x) - 52); }

// A random double in [2^lo, 2^(lo + binades)), mantissa drawn first.
double RandomInBinades(Rng& rng, int lo, int binades) {
  double mantissa = 1.0 + rng.NextDouble();
  return std::ldexp(mantissa, lo + static_cast<int>(rng.NextBelow(binades)));
}

void ExpectRepeatAddExact(double a, double c, uint64_t k) {
  double want = PlainRepeatAdd(a, c, k);
  double got = RepeatAdd(a, c, k);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0)
      << std::hexfloat << "a=" << a << " c=" << c << " k=" << k << " want=" << want
      << " got=" << got;
}

TEST(RepeatAdd, MatchesThePlainLoopBitForBit) {
  Rng rng(1515);
  auto count = [&](uint64_t max_k) { return rng.NextBelow(max_k + 1); };
  for (int n = 0; n < 300; ++n) {
    double c = RandomInBinades(rng, -30, 60);
    // From zero and from below c: the first adds each cross a binade.
    ExpectRepeatAddExact(0.0, c, count(5000));
    double below = c * rng.NextDouble();
    ExpectRepeatAddExact(below, c, count(5000));
    // From far above c: long in-binade jumps.
    double above = c * RandomInBinades(rng, 0, 40);
    ExpectRepeatAddExact(above, c, count(20000));
  }
}

TEST(RepeatAdd, TiesAndAddsBelowHalfAnUlp) {
  Rng rng(1516);
  for (int n = 0; n < 400; ++n) {
    double a = RandomInBinades(rng, -10, 40);
    double u = UlpOf(a);
    // Exactly half an ulp, and odd multiples of half an ulp of this binade
    // or a neighbouring one: round-to-even decides each add, from an odd
    // and from an even starting value.
    uint64_t odd = 2 * rng.NextBelow(500) + 1;
    int shift = static_cast<int>(rng.NextBelow(4)) - 1;
    for (double c : {u / 2, std::ldexp(u / 2 * static_cast<double>(odd), shift)}) {
      uint64_t k = rng.NextBelow(100000);
      ExpectRepeatAddExact(a, c, k);
      ExpectRepeatAddExact(std::nextafter(a, 2 * a), c, k);
    }
    // Below half an ulp: no add changes anything.
    double tiny = u / 2 * rng.NextDouble();
    uint64_t k = rng.NextBelow(100000);
    ExpectRepeatAddExact(a, tiny, k);
    EXPECT_EQ(RepeatAdd(a, tiny, 1000000), a);
  }
}

TEST(RepeatAdd, LongRunsAcrossSeveralBinades) {
  Rng rng(1517);
  for (int n = 0; n < 12; ++n) {
    // Step-time-like addends over a million adds from a small start: the
    // sum crosses ~20 binades, and decode-run-like sums from large starts.
    double c = 1e-3 * (1.0 + rng.NextDouble());
    ExpectRepeatAddExact(c * rng.NextDouble(), c, 1000000);
    ExpectRepeatAddExact(1e4 * rng.NextDouble(), c, 1000000);
  }
  // Short runs take the plain loop; the edge cases keep its bits.
  for (uint64_t k = 0; k < 2 * kRepeatAddMinJump; ++k) {
    ExpectRepeatAddExact(0.75, 0.1, k);
  }
  ExpectRepeatAddExact(-3.0, 0.25, 100);
  ExpectRepeatAddExact(std::numeric_limits<double>::max() / 2, 1e300, 100);
  ExpectRepeatAddExact(std::numeric_limits<double>::denorm_min(),
                       std::numeric_limits<double>::denorm_min() * 3, 100000);
}

// --- rng ---

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanCloseToCenter) {
  Rng rng(3);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(rng.Uniform(10.0, 20.0));
  }
  EXPECT_NEAR(s.mean(), 15.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) {
    s.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(s.mean(), 0.25, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) {
    s.Add(rng.Normal(5.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(17);
  RunningStat small;
  RunningStat large;
  for (int i = 0; i < 50000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.0)));
    large.Add(static_cast<double>(rng.Poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.05);
  EXPECT_NEAR(large.mean(), 100.0, 0.5);
}

TEST(Rng, NextBelowUnbiasedCoverage) {
  Rng rng(19);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

}  // namespace
}  // namespace litegpu
