// Helpers shared by the serve test files: a step-time table sampled from
// two per-batch latency functions, and field-by-field identity between two
// serving runs of the same point — typically the production core against
// RunServeSimulationReference. gtest EXPECTs, so every mismatch is reported.

#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "src/perf/step_table.h"
#include "src/serve/simulator.h"

namespace litegpu {

// The dense step-time table holding prefill_fn(b) for batches
// 1..max_prefill and decode_fn(b) for batches 1..max_decode.
template <typename PrefillFn, typename DecodeFn>
StepTimeTable TableOf(PrefillFn prefill_fn, DecodeFn decode_fn, int max_prefill,
                      int max_decode) {
  std::vector<double> prefill_s, decode_s;
  for (int b = 1; b <= max_prefill; ++b) {
    prefill_s.push_back(prefill_fn(b));
  }
  for (int b = 1; b <= max_decode; ++b) {
    decode_s.push_back(decode_fn(b));
  }
  return StepTimeTable(std::move(prefill_s), std::move(decode_s));
}

inline void ExpectSameServeMetrics(const ServeMetrics& a, const ServeMetrics& b) {
  EXPECT_EQ(a.admitted_requests, b.admitted_requests);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.in_flight_at_horizon, b.in_flight_at_horizon);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.decode_tokens_per_s, b.decode_tokens_per_s);
  EXPECT_EQ(a.prefill_utilization, b.prefill_utilization);
  EXPECT_EQ(a.decode_utilization, b.decode_utilization);
  EXPECT_EQ(a.mean_decode_batch, b.mean_decode_batch);
  EXPECT_EQ(a.prefill_busy_s, b.prefill_busy_s);
  EXPECT_EQ(a.decode_busy_s, b.decode_busy_s);
  EXPECT_EQ(a.decode_batch_time_product, b.decode_batch_time_product);
  ASSERT_EQ(a.ttft_s.count(), b.ttft_s.count());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.ttft_s.Quantile(q), b.ttft_s.Quantile(q)) << q;
  }
  // TBT: count, extremes and percentiles are exact; the sum (and mean) may
  // round differently because skipped decode steps are added with weights.
  EXPECT_EQ(a.tbt_s.count(), b.tbt_s.count());
  EXPECT_EQ(a.tbt_s.min(), b.tbt_s.min());
  EXPECT_EQ(a.tbt_s.max(), b.tbt_s.max());
  EXPECT_EQ(a.tbt_s.Median(), b.tbt_s.Median());
  EXPECT_EQ(a.tbt_s.P95(), b.tbt_s.P95());
  EXPECT_EQ(a.tbt_s.P99(), b.tbt_s.P99());

  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    const ServeClassMetrics& x = a.per_class[c];
    const ServeClassMetrics& y = b.per_class[c];
    EXPECT_EQ(x.admitted_requests, y.admitted_requests) << c;
    EXPECT_EQ(x.completed_requests, y.completed_requests) << c;
    EXPECT_EQ(x.in_flight_at_horizon, y.in_flight_at_horizon) << c;
    EXPECT_EQ(x.output_tokens, y.output_tokens) << c;
    ASSERT_EQ(x.ttft_s.count(), y.ttft_s.count()) << c;
    EXPECT_EQ(x.ttft_s.Median(), y.ttft_s.Median()) << c;
    EXPECT_EQ(x.ttft_s.P95(), y.ttft_s.P95()) << c;
    EXPECT_EQ(x.ttft_s.P99(), y.ttft_s.P99()) << c;
    EXPECT_EQ(x.tbt_s.count(), y.tbt_s.count()) << c;
    EXPECT_EQ(x.tbt_s.Median(), y.tbt_s.Median()) << c;
    EXPECT_EQ(x.tbt_s.P99(), y.tbt_s.P99()) << c;
  }

  EXPECT_EQ(a.prefill_instance_seconds, b.prefill_instance_seconds);
  EXPECT_EQ(a.decode_instance_seconds, b.decode_instance_seconds);
  EXPECT_EQ(a.peak_prefill_instances, b.peak_prefill_instances);
  EXPECT_EQ(a.peak_decode_instances, b.peak_decode_instances);
  EXPECT_EQ(a.final_prefill_instances, b.final_prefill_instances);
  EXPECT_EQ(a.final_decode_instances, b.final_decode_instances);
  EXPECT_EQ(a.peak_demand_entries, b.peak_demand_entries);
  ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
  for (size_t i = 0; i < a.scale_events.size(); ++i) {
    const ScaleEvent& x = a.scale_events[i];
    const ScaleEvent& y = b.scale_events[i];
    EXPECT_EQ(x.time_s, y.time_s) << i;
    EXPECT_EQ(x.pool, y.pool) << i;
    EXPECT_EQ(x.delta, y.delta) << i;
    EXPECT_EQ(x.instances_after, y.instances_after) << i;
    EXPECT_EQ(x.reason, y.reason) << i;
  }

  EXPECT_EQ(a.retried_requests, b.retried_requests);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.lost_tokens, b.lost_tokens);
  EXPECT_EQ(a.prefill_fault_downtime_s, b.prefill_fault_downtime_s);
  EXPECT_EQ(a.decode_fault_downtime_s, b.decode_fault_downtime_s);
  EXPECT_EQ(a.degrade_windows, b.degrade_windows);
  EXPECT_EQ(a.prefill_degraded_instance_s, b.prefill_degraded_instance_s);
  EXPECT_EQ(a.decode_degraded_instance_s, b.decode_degraded_instance_s);
  EXPECT_EQ(a.degraded_output_tokens, b.degraded_output_tokens);
  EXPECT_EQ(a.largest_outage_time_s, b.largest_outage_time_s);
  EXPECT_EQ(a.largest_outage_lost_tokens, b.largest_outage_lost_tokens);
  EXPECT_EQ(a.time_to_drain_s, b.time_to_drain_s);
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  for (size_t i = 0; i < a.fault_events.size(); ++i) {
    const FaultEvent& x = a.fault_events[i];
    const FaultEvent& y = b.fault_events[i];
    EXPECT_EQ(x.time_s, y.time_s) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.pool, y.pool) << i;
    EXPECT_EQ(x.instance, y.instance) << i;
    EXPECT_EQ(x.domain, y.domain) << i;
    EXPECT_EQ(x.killed_requests, y.killed_requests) << i;
    EXPECT_EQ(x.lost_tokens, y.lost_tokens) << i;
    EXPECT_EQ(x.spares_free, y.spares_free) << i;
  }
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  ASSERT_EQ(a.shed_events.size(), b.shed_events.size());
  for (size_t i = 0; i < a.shed_events.size(); ++i) {
    EXPECT_EQ(a.shed_events[i].time_s, b.shed_events[i].time_s) << i;
    EXPECT_EQ(a.shed_events[i].request, b.shed_events[i].request) << i;
    EXPECT_EQ(a.shed_events[i].reason, b.shed_events[i].reason) << i;
  }
}

}  // namespace litegpu
