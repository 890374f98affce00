#include "src/serve/workload.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace litegpu {

void RequestSoA::Reserve(size_t n) {
  arrival_s.reserve(n);
  prompt_tokens.reserve(n);
  output_tokens.reserve(n);
  class_id.reserve(n);
}

void RequestSoA::Clear() {
  arrival_s.clear();
  prompt_tokens.clear();
  output_tokens.clear();
  class_id.clear();
}

void RequestSoA::PushBack(double arrival, int prompt, int output, int cls) {
  arrival_s.push_back(arrival);
  prompt_tokens.push_back(prompt);
  output_tokens.push_back(output);
  class_id.push_back(cls);
}

RequestSoA RequestSoA::FromRequests(const std::vector<Request>& requests) {
  RequestSoA soa;
  soa.Reserve(requests.size());
  for (const Request& r : requests) {
    soa.PushBack(r.arrival_s, r.prompt_tokens, r.output_tokens, r.class_id);
  }
  return soa;
}

double ArrivalRateMultiplier(const ArrivalProcess& process, double duration_s, double t) {
  if (process.kind != ArrivalKind::kDiurnal || process.multipliers.empty()) {
    return 1.0;
  }
  double period = process.period_s > 0.0 ? process.period_s : duration_s;
  if (period <= 0.0) {
    return process.multipliers.front();
  }
  double phase = std::fmod(t, period);
  if (phase < 0.0) {
    phase = 0.0;
  }
  size_t n = process.multipliers.size();
  double pos = phase / period * static_cast<double>(n);
  size_t i = static_cast<size_t>(pos);
  if (i >= n) {
    i = n - 1;
  }
  double frac = pos - static_cast<double>(i);
  double a = process.multipliers[i];
  double b = process.multipliers[(i + 1) % n];  // the curve wraps
  return a + frac * (b - a);
}

double PeakRateMultiplier(const ArrivalProcess& process) {
  switch (process.kind) {
    case ArrivalKind::kDiurnal: {
      // Piecewise-linear, so the max sits on a control point.
      double peak = 0.0;
      for (double m : process.multipliers) {
        peak = std::max(peak, m);
      }
      return peak;
    }
    case ArrivalKind::kOnOff:
      return std::max(process.on_multiplier, process.off_multiplier);
    case ArrivalKind::kPoisson:
    case ArrivalKind::kTrace:
      return 1.0;
  }
  return 1.0;
}

double MeanTraceRatePerS(const ArrivalProcess& process, double horizon_s) {
  if (process.kind != ArrivalKind::kTrace || horizon_s <= 0.0) {
    return 0.0;
  }
  size_t count = 0;
  for (double t : process.times_s) {
    if (t < horizon_s) {
      ++count;
    }
  }
  return static_cast<double>(count) / horizon_s;
}

namespace {

// `log_median` is std::log(median); callers take it once per class stream.
int SampleLength(Rng& rng, int median, double log_median, double sigma) {
  if (sigma <= 0.0) {
    return median;
  }
  double value = rng.LogNormal(log_median, sigma);
  return std::max(1, static_cast<int>(std::lround(value)));
}

// One class's arrival substream. The stationary Poisson path keeps the
// exact legacy sampling order (inter-arrival, prompt, output per request),
// so a single-class mix reproduces the legacy generator bit-for-bit and a
// scenario without an `arrival` block is unchanged. The non-stationary
// kinds draw from the same per-class RNG:
//   diurnal — Lewis thinning against the peak-rate envelope, which keeps
//     each class's stream independent of every other class.
//   onoff   — walks on/off phases sequentially; overshooting a phase
//     boundary discards the inter-arrival draw and redraws at the new
//     phase's rate (memorylessness makes that exact).
//   trace   — replays the recorded times; `trace_share` is this class's
//     rate share, applied by thinning (share 1.0 skips the draw so a
//     one-class mix replays the trace exactly).
// Expected arrival count for one class, used to pre-size the output vector
// so million-request streams append without reallocating. Overshooting a
// little is fine (the extra capacity is freed with the vector); a few sigma
// of Poisson headroom covers nearly every draw.
size_t ExpectedArrivals(const ClassWorkload& cls, double duration_s,
                        const ArrivalProcess& arrival) {
  if (arrival.kind == ArrivalKind::kTrace) {
    return arrival.times_s.size();
  }
  double rate = std::max(0.0, cls.arrival_rate_per_s);
  double mean_mult = 1.0;
  if (arrival.kind == ArrivalKind::kDiurnal && !arrival.multipliers.empty()) {
    // Piecewise-linear and wrapping, so the mean over a full period is the
    // mean of the control points; horizons covering partial periods still
    // land near it.
    double sum = 0.0;
    for (double m : arrival.multipliers) {
      sum += m;
    }
    mean_mult = sum / static_cast<double>(arrival.multipliers.size());
  } else if (arrival.kind == ArrivalKind::kOnOff) {
    double span = arrival.on_mean_s + arrival.off_mean_s;
    mean_mult = span > 0.0 ? (arrival.on_mean_s * arrival.on_multiplier +
                              arrival.off_mean_s * arrival.off_multiplier) /
                                 span
                           : 1.0;
  }
  double expected = rate * std::max(0.0, duration_s) * std::max(0.0, mean_mult);
  return static_cast<size_t>(expected + 4.0 * std::sqrt(expected) + 16.0);
}

std::vector<Request> GenerateClassStream(const ClassWorkload& cls, int class_id,
                                         double duration_s, uint64_t seed,
                                         const ArrivalProcess& arrival,
                                         double trace_share) {
  std::vector<Request> requests;
  requests.reserve(ExpectedArrivals(cls, duration_s, arrival));
  Rng rng(seed);
  const double log_prompt = std::log(static_cast<double>(cls.median_prompt_tokens));
  const double log_output = std::log(static_cast<double>(cls.median_output_tokens));
  auto emit = [&](double t) {
    Request r;
    r.class_id = class_id;
    r.arrival_s = t;
    r.prompt_tokens =
        SampleLength(rng, cls.median_prompt_tokens, log_prompt, cls.prompt_sigma);
    r.output_tokens =
        SampleLength(rng, cls.median_output_tokens, log_output, cls.output_sigma);
    requests.push_back(r);
  };
  if (arrival.kind == ArrivalKind::kTrace) {
    if (trace_share <= 0.0) {
      return requests;
    }
    for (double t : arrival.times_s) {
      if (t >= duration_s) {
        break;  // validated ascending
      }
      if (trace_share < 1.0 && !(rng.NextDouble() < trace_share)) {
        continue;
      }
      emit(t);
    }
    return requests;
  }
  if (cls.arrival_rate_per_s <= 0.0) {
    return requests;
  }
  double t = 0.0;
  switch (arrival.kind) {
    case ArrivalKind::kPoisson: {
      for (;;) {
        t += rng.Exponential(cls.arrival_rate_per_s);
        if (t >= duration_s) {
          break;
        }
        emit(t);
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      double peak = PeakRateMultiplier(arrival);
      if (peak <= 0.0) {
        break;  // validation rejects all-zero curves; belt and braces
      }
      for (;;) {
        t += rng.Exponential(cls.arrival_rate_per_s * peak);
        if (t >= duration_s) {
          break;
        }
        // Accept with probability mult(t)/peak. One uniform per candidate
        // keeps the draw count independent of the curve shape.
        double u = rng.NextDouble();
        if (u * peak < ArrivalRateMultiplier(arrival, duration_s, t)) {
          emit(t);
        }
      }
      break;
    }
    case ArrivalKind::kOnOff: {
      bool on = true;
      double phase_end = rng.Exponential(1.0 / arrival.on_mean_s);
      for (;;) {
        double mult = on ? arrival.on_multiplier : arrival.off_multiplier;
        double dt = mult > 0.0 ? rng.Exponential(cls.arrival_rate_per_s * mult) : -1.0;
        if (dt >= 0.0 && t + dt < phase_end) {
          t += dt;
          if (t >= duration_s) {
            break;
          }
          emit(t);
          continue;
        }
        t = phase_end;
        if (t >= duration_s) {
          break;
        }
        on = !on;
        phase_end = t + rng.Exponential(1.0 / (on ? arrival.on_mean_s : arrival.off_mean_s));
      }
      break;
    }
    case ArrivalKind::kTrace:
      break;  // handled above
  }
  return requests;
}

}  // namespace

std::vector<Request> GenerateWorkload(const WorkloadSpec& spec) {
  ClassWorkload cls;
  cls.arrival_rate_per_s = spec.arrival_rate_per_s;
  cls.median_prompt_tokens = spec.median_prompt_tokens;
  cls.prompt_sigma = spec.prompt_sigma;
  cls.median_output_tokens = spec.median_output_tokens;
  cls.output_sigma = spec.output_sigma;
  std::vector<Request> requests = GenerateClassStream(
      cls, /*class_id=*/0, spec.duration_s, spec.seed, spec.arrival, /*trace_share=*/1.0);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = static_cast<int>(i);
  }
  return requests;
}

uint64_t ClassSubstreamSeed(uint64_t seed, size_t index) {
  if (index == 0) {
    return seed;
  }
  SplitMix64 stream(seed);
  uint64_t derived = 0;
  for (size_t i = 0; i < index; ++i) {
    derived = stream.Next();
  }
  return derived;
}

std::vector<Request> GenerateMultiClassWorkload(const MultiClassWorkloadSpec& spec) {
  // Generate every substream independently, concatenate in class order, and
  // stable-sort by arrival time once. Each substream is arrival-sorted and
  // concatenated in class order, so stable_sort resolves ties to class
  // order, then per-class order — the same fully-specified order the old
  // repeated stable std::merge produced, but O(N log N) total instead of
  // O(N · classes) copies.
  double total_rate = 0.0;
  for (const ClassWorkload& cls : spec.classes) {
    total_rate += std::max(0.0, cls.arrival_rate_per_s);
  }
  std::vector<Request> merged;
  for (size_t c = 0; c < spec.classes.size(); ++c) {
    double share = total_rate > 0.0
                       ? std::max(0.0, spec.classes[c].arrival_rate_per_s) / total_rate
                       : 0.0;
    if (spec.classes.size() == 1) {
      share = 1.0;  // one-class mixes replay a trace exactly, like classless
    }
    std::vector<Request> stream =
        GenerateClassStream(spec.classes[c], static_cast<int>(c), spec.duration_s,
                            ClassSubstreamSeed(spec.seed, c), spec.arrival, share);
    if (merged.empty()) {
      merged = std::move(stream);
    } else {
      merged.insert(merged.end(), stream.begin(), stream.end());
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Request& a, const Request& b) { return a.arrival_s < b.arrival_s; });
  for (size_t i = 0; i < merged.size(); ++i) {
    merged[i].id = static_cast<int>(i);
  }
  return merged;
}

uint64_t ShardSubstreamSeed(uint64_t seed, size_t shard) {
  if (shard == 0) {
    return seed;
  }
  // A tagged XOR before the SplitMix64 walk keeps the shard stream away
  // from ClassSubstreamSeed's (consecutive values of SplitMix64(seed)) and
  // FaultSubstreamSeed's (a differently-tagged walk), so shard workloads
  // never collide with class or fault draws.
  SplitMix64 stream(seed ^ 0x5A4D5A4DC0DE5EEDULL);
  uint64_t derived = 0;
  for (size_t i = 0; i < shard; ++i) {
    derived = stream.Next();
  }
  return derived;
}

double TotalPromptTokens(const std::vector<Request>& requests) {
  double total = 0.0;
  for (const auto& r : requests) {
    total += r.prompt_tokens;
  }
  return total;
}

double TotalOutputTokens(const std::vector<Request>& requests) {
  double total = 0.0;
  for (const auto& r : requests) {
    total += r.output_tokens;
  }
  return total;
}

}  // namespace litegpu
