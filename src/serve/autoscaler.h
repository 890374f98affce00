// The serving engine's autoscaler policy, split out of the event loop: the
// admitted-demand window behind the predictive forecast, the sequence
// numbers that order simultaneous ticks and scale-ups, the previous tick's
// time, and each pool's decision at a tick as a pure function of what the
// engine measured there (Decide), so a table test pins the policy without a
// run. The engine (simulator.cc) measures each pool and applies the
// decisions: it schedules the scale-ups and drains the instances.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <deque>
#include <vector>

#include "src/serve/simulator.h"

namespace litegpu {

// What the engine measured for one pool at a tick.
struct ScaleInputs {
  int live = 0;                // serving: not draining, down or retired
  int pending_ups = 0;         // scale-ups scheduled and not yet up
  double busy_delta = 0.0;     // busy seconds since the previous tick
  double window = 0.0;         // seconds since the previous tick
  double queued_tokens = 0.0;  // tokens waiting for the pool
  double forecast_rate = 0.0;  // predictive only: forecast demand, tokens/s
};

// One pool's decision at a tick: one scale-up per entry of `up_reasons`, in
// order, or one drain, for `drain_reason`, when it is set.
struct ScaleDecision {
  std::vector<const char*> up_reasons;
  const char* drain_reason = nullptr;
};

// One run's autoscaler state. The engine reads prev_tick_time and the
// sequence numbers, and sets prev_tick_time at the end of each tick.
struct Autoscaler {
  // Admitted demand for the predictive forecast.
  struct Demand {
    double t;
    double prompt_tokens;
    double output_tokens;
    int cls;
  };

  const ServeAutoscalerConfig& cfg;
  int up_seq = 0;    // ordering sequence for simultaneous up events
  int tick_seq = 0;  // and for ticks
  double prev_tick_time = 0.0;
  std::deque<Demand> demand{};  // pruned to the forecast window
  size_t peak_demand_entries = 0;

  // Reactive: thresholds on backlog (checked first) and utilization. Or
  // predictive: the forecast's instance count, with the backlog trigger
  // kept as a safety net under forecast misses. Never scales up past the
  // pool's max, and drains at most one instance per tick, never below the
  // min and never while ups are pending or tokens are queued.
  static ScaleDecision Decide(const ServeAutoscalerConfig& cfg, ScalePool p,
                              const ScaleInputs& in) {
    const bool prefill = p == ScalePool::kPrefill;
    const double per_instance = prefill ? cfg.prefill_tokens_per_s : cfg.decode_tokens_per_s;
    const int min_instances = prefill ? cfg.min_prefill_instances : cfg.min_decode_instances;
    const int max_instances = prefill ? cfg.max_prefill_instances : cfg.max_decode_instances;
    const int n = in.live;
    double utilization = (in.window > 0.0 && n > 0) ? in.busy_delta / (n * in.window) : 0.0;
    double backlog_s =
        per_instance > 0.0 ? in.queued_tokens / (std::max(1, n) * per_instance) : 0.0;
    const bool backlogged = backlog_s > cfg.scale_up_backlog_s;
    int target = n + in.pending_ups;
    ScaleDecision d;
    if (cfg.predictive) {
      int desired = n;
      if (per_instance > 0.0) {
        desired = static_cast<int>(std::ceil(cfg.headroom * in.forecast_rate / per_instance));
      }
      desired = std::min(std::max(desired, min_instances), max_instances);
      d.up_reasons.assign(static_cast<size_t>(std::max(0, desired - target)), "forecast");
      target += static_cast<int>(d.up_reasons.size());
      if (backlogged && target < max_instances) {
        d.up_reasons.push_back("backlog");
      } else if (in.pending_ups == 0 && target > desired && in.queued_tokens <= 0.0 &&
                 target > min_instances) {
        d.drain_reason = "forecast";
      }
      return d;
    }
    if (backlogged || utilization > cfg.scale_up_utilization) {
      if (target < max_instances) {
        d.up_reasons.push_back(backlogged ? "backlog" : "utilization");
      }
    } else if (in.pending_ups == 0 && target > min_instances &&
               utilization < cfg.scale_down_utilization && in.queued_tokens <= 0.0) {
      d.drain_reason = "utilization";
    }
    return d;
  }

  // Records an admitted request's token demand for the predictive forecast.
  // The window is pruned as arrivals stream in, not just at ticks, so a
  // long horizon holds O(rate * window) entries rather than every admitted
  // request; the tick-time prune would have discarded the same entries, so
  // forecasts are unchanged.
  void Admit(double now, double prompt_tokens, double output_tokens, int cls) {
    if (cfg.enabled && cfg.predictive) {
      Prune(now);
      demand.push_back({now, prompt_tokens, output_tokens, cls});
      peak_demand_entries = std::max(peak_demand_entries, demand.size());
    }
  }
  void Prune(double now) {
    while (!demand.empty() && demand.front().t < now - cfg.forecast_window_s) {
      demand.pop_front();
    }
  }

  // The forecast demand at a tick at `now`, indexed by pool: prompt
  // tokens/s for prefill and output tokens/s for decode, zero unless
  // predictive. Per-class demand over two half-windows is extrapolated
  // linearly half a window ahead and clamped at zero per class, so one
  // collapsing class does not mask another's growth.
  std::array<double, 2> Forecast(double now, int num_classes) {
    std::array<double, 2> rate = {0.0, 0.0};
    if (!cfg.predictive) {
      return rate;
    }
    double half = cfg.forecast_window_s / 2.0;
    Prune(now);
    // Per class, the (prompt, output) tokens admitted in each half-window.
    size_t fcls = static_cast<size_t>(std::max(1, num_classes));
    std::vector<std::array<double, 2>> recent(fcls, {0.0, 0.0}), old(fcls, {0.0, 0.0});
    for (const Demand& d : demand) {
      size_t c = (d.cls >= 0 && d.cls < static_cast<int>(fcls)) ? static_cast<size_t>(d.cls) : 0;
      std::array<double, 2>& half_window = d.t >= now - half ? recent[c] : old[c];
      half_window[0] += d.prompt_tokens;
      half_window[1] += d.output_tokens;
    }
    for (size_t c = 0; c < fcls; ++c) {
      for (size_t p = 0; p < 2; ++p) {
        rate[p] += std::max(0.0, 2.0 * recent[c][p] - old[c][p]) / half;
      }
    }
    return rate;
  }
};

}  // namespace litegpu
