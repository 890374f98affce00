// Serve-scale benchmark: how fast the serving simulator core is, and that it
// stays bit-identical to the reference core (RunServeSimulationReference,
// the pre-rewrite engine kept as the oracle).
//
// Measurements on the Llama3-70B / H100 validation deployment, all driven
// by one StepTimeTable:
//   1. Full simulation at the high-load validation point (95% of analytic
//      decode capacity): new core and reference core, best of five
//      interleaved runs each.
//   2. A 20-point load sweep through the serve-sweep study (wall clock).
//   3. A non-stationary autoscaled point (on/off bursts + reactive
//      policy), covering the event kinds the autoscaler adds to the loop.
//   4. A fault-injected point (accelerated churn, hot spares, retries).
//      The zero-AFR gate: section 1's runs have faults compiled in but
//      disabled, and the new core's ns per decode step must not exceed the
//      reference core's, measured in the same process, so the disabled
//      fault branch staying off the hot path is enforced, not assumed.
//   5. Reference-core identity on sections 1, 3 and 4: the rewritten
//      core — calendar event queue, SoA hot state, completion-heap decode
//      scheduling, coalesced decode runs — must match the reference
//      exactly (metrics, scale-event and fault-event logs).
//   6. A million-request point (32 decode instances at 95% load): workload
//      generation wall time, then reference core vs new core with exact
//      metric identity. The speedup must be > 1 (hard gate). Also times
//      the same point sharded 8 ways through the merge path; the shard
//      workloads are generated before the clock starts, so that time is
//      the simulations plus the merge.
//   7. The checked-in 19-point load grid (10%..100%, 30 s horizon), each
//      point run on both cores: summed reference wall vs summed new wall,
//      exact per-point identity, speedup > 1 gated.
//   8. A three-axis robustness point (failure domains, degraded states and
//      shedding on top of section 4's churn): fault and shed logs identical
//      to the reference core's.
//   9. A fleet-compare catalog where candidates share resolved parts: the
//      study must build exactly one ServePlatform (search + StepTimeTable)
//      per distinct (model, GPU) pair — `platform_builds` equals the
//      distinct part count, gated — and a candidate that only widens the
//      pool must see exactly proportional analytic capacity.
//  10. A low-load, faulted, long-output point: the decode queue is mostly
//      empty, so decode steps run coalesced and failures and degrade
//      windows keep interrupting the runs. The new core must match the
//      reference core exactly (metrics, fault log).
//  11. A low-load, autoscaled, faulted point on a wide decode pool (16-48
//      instances, the width serve_chaos's Lite pools reach): a decode
//      backlog finds many coalesced runs, and only the one that reaches a
//      step boundary first is cut. The new core must match the reference
//      core exactly (metrics, fault log, scale log).
//
// `--json` emits one JSON object (CI tees it into BENCH_serve_scale.json)
// and the exit code gates regressions: nonzero when any speedup gate is
// not > 1, any identity check fails, or the zero-AFR gate fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/serve/simulator.h"
#include "src/serve/simulator_reference.h"
#include "src/serve/workload.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace {

using namespace litegpu;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Exact equality on every summary metric two fault-free runs of the same
// workload must share — the reference-vs-new gates ride on this.
bool MetricsIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  return a.completed_requests == b.completed_requests &&
         a.admitted_requests == b.admitted_requests &&
         a.in_flight_at_horizon == b.in_flight_at_horizon &&
         a.output_tokens == b.output_tokens &&
         a.decode_tokens_per_s == b.decode_tokens_per_s &&
         a.makespan_s == b.makespan_s &&
         a.prefill_utilization == b.prefill_utilization &&
         a.decode_utilization == b.decode_utilization &&
         a.mean_decode_batch == b.mean_decode_batch &&
         a.ttft_s.count() == b.ttft_s.count() &&
         a.ttft_s.Median() == b.ttft_s.Median() &&
         a.ttft_s.P95() == b.ttft_s.P95() &&
         a.ttft_s.P99() == b.ttft_s.P99() &&
         a.tbt_s.count() == b.tbt_s.count() &&
         a.tbt_s.Median() == b.tbt_s.Median() &&
         a.tbt_s.P99() == b.tbt_s.P99();
}

// Element-wise equality of two runs' scale-event logs.
bool ScaleLogsIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  if (a.scale_events.size() != b.scale_events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.scale_events.size(); ++i) {
    const ScaleEvent& x = a.scale_events[i];
    const ScaleEvent& y = b.scale_events[i];
    if (x.time_s != y.time_s || x.pool != y.pool || x.delta != y.delta ||
        x.instances_after != y.instances_after || x.reason != y.reason) {
      return false;
    }
  }
  return true;
}

// Element-wise equality of two runs' fault and shed logs (domain ids
// included), plus the fault-side totals the logs account for.
bool FaultLogsIdentical(const ServeMetrics& a, const ServeMetrics& b) {
  if (a.fault_events.size() != b.fault_events.size() ||
      a.shed_events.size() != b.shed_events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.fault_events.size(); ++i) {
    const FaultEvent& x = a.fault_events[i];
    const FaultEvent& y = b.fault_events[i];
    if (x.time_s != y.time_s || x.kind != y.kind || x.pool != y.pool ||
        x.instance != y.instance || x.domain != y.domain ||
        x.killed_requests != y.killed_requests || x.lost_tokens != y.lost_tokens ||
        x.spares_free != y.spares_free) {
      return false;
    }
  }
  for (size_t i = 0; i < a.shed_events.size(); ++i) {
    if (a.shed_events[i].time_s != b.shed_events[i].time_s ||
        a.shed_events[i].request != b.shed_events[i].request ||
        a.shed_events[i].reason != b.shed_events[i].reason) {
      return false;
    }
  }
  return a.retried_requests == b.retried_requests &&
         a.dropped_requests == b.dropped_requests && a.lost_tokens == b.lost_tokens &&
         a.prefill_fault_downtime_s == b.prefill_fault_downtime_s &&
         a.decode_fault_downtime_s == b.decode_fault_downtime_s &&
         a.shed_requests == b.shed_requests && a.degrade_windows == b.degrade_windows &&
         a.prefill_degraded_instance_s == b.prefill_degraded_instance_s &&
         a.decode_degraded_instance_s == b.decode_degraded_instance_s &&
         a.degraded_output_tokens == b.degraded_output_tokens &&
         a.time_to_drain_s == b.time_to_drain_s;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: bench_serve_scale [--json]\n");
      return 64;
    }
  }

  TransformerSpec model = Llama3_70B();
  GpuSpec gpu = H100();
  SearchOptions options;
  PrefillSearchResult prefill = SearchPrefill(model, gpu, options);
  DecodeSearchResult decode = SearchDecode(model, gpu, options);
  if (!prefill.found || !decode.found) {
    std::fprintf(stderr, "bench_serve_scale: no feasible configuration\n");
    return 1;
  }
  TpPlan prefill_plan = MakeTpPlan(model, prefill.best.tp_degree).value();
  TpPlan decode_plan = MakeTpPlan(model, decode.best.tp_degree).value();
  PerfModel prefill_model(model, gpu, prefill_plan, options.workload, options.engine);
  PerfModel decode_model(model, gpu, decode_plan, options.workload, options.engine);
  StepTimeTable table = StepTimeTable::Build(prefill_model, decode_model,
                                             prefill.best.batch, decode.best.batch);

  // --- 1. full simulation at the high-load validation point ----------------
  WorkloadSpec spec;
  spec.arrival_rate_per_s =
      0.95 * decode.best.result.tokens_per_s / spec.median_output_tokens;
  spec.duration_s = 60.0;
  std::vector<Request> requests = GenerateWorkload(spec);
  ServeClusterConfig cluster;
  double prefill_demand = spec.arrival_rate_per_s * spec.median_prompt_tokens;
  cluster.prefill_instances = std::max(
      1, static_cast<int>(std::ceil(1.25 * prefill_demand / prefill.best.result.tokens_per_s)));
  cluster.decode_instances = 1;

  // The point takes milliseconds, so one run is noise-bound: take the best
  // of kTimedRuns per core, interleaved so drift hits both alike.
  const int kTimedRuns = 5;
  ServeMetrics fast_path;
  ServeMetrics ref_plain;
  double fast_sim_s = std::numeric_limits<double>::infinity();
  double ref_sim_s = std::numeric_limits<double>::infinity();
  std::chrono::steady_clock::time_point t0;
  for (int run = 0; run < kTimedRuns; ++run) {
    t0 = std::chrono::steady_clock::now();
    ref_plain = RunServeSimulationReference(requests, cluster, table);
    ref_sim_s = std::min(ref_sim_s, SecondsSince(t0));
    t0 = std::chrono::steady_clock::now();
    fast_path = RunServeSimulation(requests, cluster, table);
    fast_sim_s = std::min(fast_sim_s, SecondsSince(t0));
  }
  double sim_speedup = fast_sim_s > 0.0 ? ref_sim_s / fast_sim_s : 0.0;

  // --- 2. the 20-point sweep study -----------------------------------------
  ServeSweepKnobs knobs;
  knobs.load_lo = 0.05;
  knobs.load_hi = 1.00;
  knobs.load_step = 0.05;
  knobs.horizon_s = 60.0;
  Scenario sweep_scenario = *ScenarioBuilder(StudyKind::kServeSweep).ServeSweep(knobs).Build();
  t0 = std::chrono::steady_clock::now();
  RunReport sweep_report = Runner().Run(sweep_scenario);
  double sweep_s = SecondsSince(t0);
  int sweep_points =
      sweep_report.ok
          ? static_cast<int>(std::get<ServeSweepReport>(sweep_report.payload).points.size())
          : 0;

  // --- 3. autoscaled non-stationary point ----------------------------------
  WorkloadSpec bursty = spec;
  bursty.arrival_rate_per_s = 0.7 * decode.best.result.tokens_per_s /
                              static_cast<double>(spec.median_output_tokens);
  bursty.duration_s = 30.0;
  bursty.arrival.kind = ArrivalKind::kOnOff;
  bursty.arrival.on_mean_s = 6.0;
  bursty.arrival.off_mean_s = 6.0;
  bursty.arrival.on_multiplier = 2.0;
  bursty.arrival.off_multiplier = 0.2;
  std::vector<Request> bursty_requests = GenerateWorkload(bursty);
  ServeClusterConfig scaled = cluster;
  scaled.autoscaler.enabled = true;
  scaled.autoscaler.interval_s = 2.0;
  scaled.autoscaler.delay_s = 4.0;
  scaled.autoscaler.prefill_tokens_per_s = prefill.best.result.tokens_per_s;
  scaled.autoscaler.decode_tokens_per_s = decode.best.result.tokens_per_s;
  ServeMetrics scaled_fast = RunServeSimulation(bursty_requests, scaled, table);

  // --- 4. fault-injected point ---------------------------------------------
  // Accelerated churn (the serve_faulty.json regime): several failures per
  // pool over the minute, hot spares masking some, killed batches retried.
  ServeClusterConfig faulty = cluster;
  // Failures inject over the admission horizon only; leaving the default
  // (effectively infinite) horizon would reschedule failures forever.
  faulty.horizon_s = spec.duration_s;
  faulty.faults.enabled = true;
  faulty.faults.prefill_failure_rate_per_s = 0.05;
  faulty.faults.decode_failure_rate_per_s = 0.1;
  faulty.faults.repair_s = 10.0;
  faulty.faults.spare_activation_s = 1.0;
  faulty.faults.prefill_spares = 1;
  faulty.faults.decode_spares = 1;
  faulty.faults.seed = FaultSubstreamSeed(0xC0FFEE);
  ServeMetrics faulty_fast = RunServeSimulation(requests, faulty, table);
  // Zero-AFR overhead gate: section 1's runs have faults compiled in but
  // disabled. The new core's cost per decode step there must not exceed
  // the reference core's, measured in this process, so machine speed and
  // build type cancel out. Fault bookkeeping creeping onto the disabled
  // hot path then fails CI instead of rotting.
  double decode_steps = static_cast<double>(fast_path.tbt_s.count());
  double zero_afr_ns_per_step = decode_steps > 0.0 ? 1e9 * fast_sim_s / decode_steps : 0.0;
  double zero_afr_reference_ns_per_step =
      decode_steps > 0.0 ? 1e9 * ref_sim_s / decode_steps : 0.0;
  bool zero_afr_within_reference =
      zero_afr_ns_per_step > 0.0 && zero_afr_ns_per_step <= zero_afr_reference_ns_per_step;

  // --- 5. reference core vs new core on the sections above -----------------
  // The pre-rewrite simulator is kept verbatim; the rewritten core must be
  // indistinguishable on every regime the earlier sections exercise.
  bool ref_plain_identical = MetricsIdentical(ref_plain, fast_path);
  ServeMetrics ref_scaled = RunServeSimulationReference(bursty_requests, scaled, table);
  bool ref_scaled_identical =
      !scaled_fast.scale_events.empty() && ScaleLogsIdentical(ref_scaled, scaled_fast) &&
      MetricsIdentical(ref_scaled, scaled_fast) &&
      ref_scaled.prefill_instance_seconds == scaled_fast.prefill_instance_seconds &&
      ref_scaled.decode_instance_seconds == scaled_fast.decode_instance_seconds &&
      ref_scaled.peak_decode_instances == scaled_fast.peak_decode_instances;
  ServeMetrics ref_faulty = RunServeSimulationReference(requests, faulty, table);
  bool ref_faulty_identical = !faulty_fast.fault_events.empty() &&
                              FaultLogsIdentical(ref_faulty, faulty_fast) &&
                              MetricsIdentical(ref_faulty, faulty_fast);
  bool reference_identical =
      ref_plain_identical && ref_scaled_identical && ref_faulty_identical;

  // --- 6. the million-request point ----------------------------------------
  // 32 decode instances at 95% of their summed analytic capacity; the
  // horizon is whatever makes the expected arrival count one million. This
  // is the regime the rewrite targets: the reference core walks every
  // active slot every step (cost ~ total generated tokens, ~256M here);
  // the new core pays per step plus a heap push/pop per request.
  const int kMillionDecode = 32;
  const double kMillionRequests = 1e6;
  WorkloadSpec mspec;
  mspec.arrival_rate_per_s = 0.95 * kMillionDecode * decode.best.result.tokens_per_s /
                             static_cast<double>(mspec.median_output_tokens);
  mspec.duration_s = kMillionRequests / mspec.arrival_rate_per_s;
  t0 = std::chrono::steady_clock::now();
  std::vector<Request> million_requests = GenerateWorkload(mspec);
  double million_gen_s = SecondsSince(t0);
  // Each core gets its native input form: the reference keeps the AoS
  // vector it always took; the new core takes the SoA layout directly.
  RequestSoA million_soa = RequestSoA::FromRequests(million_requests);
  ServeClusterConfig mcluster;
  mcluster.prefill_instances = std::max(
      1, static_cast<int>(std::ceil(1.25 * mspec.arrival_rate_per_s *
                                    mspec.median_prompt_tokens /
                                    prefill.best.result.tokens_per_s)));
  mcluster.decode_instances = kMillionDecode;
  t0 = std::chrono::steady_clock::now();
  ServeMetrics million_ref = RunServeSimulationReference(million_requests, mcluster, table);
  double million_ref_s = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  ServeMetrics million_new = RunServeSimulation(million_soa, mcluster, table);
  double million_new_s = SecondsSince(t0);
  bool million_identical = MetricsIdentical(million_ref, million_new);
  double million_speedup = million_new_s > 0.0 ? million_ref_s / million_new_s : 0.0;
  // The same point sharded 8 ways through the runner's merge semantics:
  // sub-horizon replications on SplitMix64 substreams, TTFTs streamed,
  // merged in shard order. The shard workloads are generated first, so the
  // timed span is the simulations plus the merge.
  const int kMillionShards = 8;
  ServeClusterConfig shard_cluster = mcluster;
  shard_cluster.horizon_s = mspec.duration_s / kMillionShards;
  shard_cluster.stream_ttft = true;
  std::vector<RequestSoA> shard_workloads;
  for (int i = 0; i < kMillionShards; ++i) {
    WorkloadSpec shard_spec = mspec;
    shard_spec.duration_s = shard_cluster.horizon_s;
    shard_spec.seed = ShardSubstreamSeed(mspec.seed, static_cast<size_t>(i));
    shard_workloads.push_back(RequestSoA::FromRequests(GenerateWorkload(shard_spec)));
  }
  t0 = std::chrono::steady_clock::now();
  std::vector<ServeMetrics> shard_runs =
      ParallelMap<ServeMetrics>(0, kMillionShards, [&](int i) {
        return RunServeSimulation(shard_workloads[static_cast<size_t>(i)], shard_cluster,
                                  table);
      });
  ServeMetrics million_sharded = MergeServeShardMetrics(shard_cluster, shard_runs);
  double million_shard_s = SecondsSince(t0);
  // Sanity, not identity: shards draw different substreams, so only the
  // scale of the merged run is checkable.
  bool shard_sane =
      million_sharded.completed_requests > 0.9 * million_new.completed_requests &&
      million_sharded.completed_requests < 1.1 * million_new.completed_requests;

  // --- 7. the 19-point load grid, reference core vs new core ---------------
  // The checked-in sweep grid (10%..100% in 5% steps, 30 s horizon, one
  // decode instance), every point run on both cores back to back.
  double grid_ref_s = 0.0;
  double grid_new_s = 0.0;
  int grid_points = 0;
  bool grid_identical = true;
  for (int i = 0; i <= 18; ++i) {
    double load = 0.10 + 0.05 * i;
    WorkloadSpec gspec;
    gspec.arrival_rate_per_s = load * decode.best.result.tokens_per_s /
                               static_cast<double>(gspec.median_output_tokens);
    gspec.duration_s = 30.0;
    gspec.seed = 1000 + static_cast<uint64_t>(i);
    std::vector<Request> grid_requests = GenerateWorkload(gspec);
    RequestSoA grid_soa = RequestSoA::FromRequests(grid_requests);
    ServeClusterConfig gcluster;
    gcluster.prefill_instances = std::max(
        1, static_cast<int>(std::ceil(1.25 * gspec.arrival_rate_per_s *
                                      gspec.median_prompt_tokens /
                                      prefill.best.result.tokens_per_s)));
    gcluster.decode_instances = 1;
    t0 = std::chrono::steady_clock::now();
    ServeMetrics g_ref = RunServeSimulationReference(grid_requests, gcluster, table);
    grid_ref_s += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    ServeMetrics g_new = RunServeSimulation(grid_soa, gcluster, table);
    grid_new_s += SecondsSince(t0);
    grid_identical = grid_identical && MetricsIdentical(g_ref, g_new);
    ++grid_points;
  }
  double grid_speedup = grid_new_s > 0.0 ? grid_ref_s / grid_new_s : 0.0;

  // --- 8. the three-axis robustness point ----------------------------------
  // (a) axes-off null effect: with domains, degradation, and shedding all
  // left at defaults, the section-1 and section-4 runs above already
  // exercised the three-axis build — the new metrics fields must be exactly
  // zero (nothing leaked onto the disabled paths; the zero-AFR gate above
  // covers the timing side).
  bool axes_off_zeroed =
      fast_path.shed_requests == 0 && fast_path.shed_events.empty() &&
      fast_path.degrade_windows == 0 &&
      fast_path.prefill_degraded_instance_s == 0.0 &&
      fast_path.decode_degraded_instance_s == 0.0 &&
      fast_path.time_to_drain_s == -1.0 && faulty_fast.shed_requests == 0 &&
      faulty_fast.degrade_windows == 0;
  // (b) a correlated point: domains + degradation + shedding on top of the
  // section-4 churn. Fault and shed logs must be element-wise identical
  // (domain ids included) to the reference core's.
  ServeClusterConfig chaos = faulty;
  chaos.faults.domains.prefill_instances_per_domain = 2;
  chaos.faults.domains.decode_instances_per_domain = 1;
  chaos.faults.domains.failure_rate_per_s = 0.05;
  chaos.faults.domains.repair_s = 5.0;
  chaos.faults.degraded.prefill_rate_per_s = 0.05;
  chaos.faults.degraded.decode_rate_per_s = 0.1;
  chaos.faults.degraded.multiplier = 2.0;
  chaos.faults.degraded.mean_duration_s = 2.0;
  chaos.shedding.max_queue_depth = 128;
  ServeMetrics chaos_fast = RunServeSimulation(requests, chaos, table);
  ServeMetrics chaos_ref = RunServeSimulationReference(requests, chaos, table);
  bool chaos_has_domains = false;
  for (const FaultEvent& e : chaos_fast.fault_events) {
    if (e.domain >= 0) {
      chaos_has_domains = true;
      break;
    }
  }
  bool chaos_identical = !chaos_fast.fault_events.empty() && chaos_has_domains &&
                         chaos_fast.degrade_windows > 0 &&
                         FaultLogsIdentical(chaos_ref, chaos_fast) &&
                         MetricsIdentical(chaos_ref, chaos_fast);

  // --- 9. fleet-compare catalog: one platform build per distinct part -----
  // Four candidates over two distinct resolved parts: the H100 base and its
  // split-4 Lite derivative, each with 1- and 2-instance decode pools. The
  // fleet study must amortize the expensive part of the sweep — the config
  // search plus the StepTimeTable build — across candidates that share a
  // part (platform_builds == 2, not 4), and a candidate that only widens
  // the pool must see exactly 2x the analytic decode capacity.
  FleetKnobs fleet_knobs;
  fleet_knobs.load_lo = 0.25;
  fleet_knobs.load_hi = 1.0;
  fleet_knobs.load_step = 0.25;
  fleet_knobs.horizon_s = 15.0;
  auto fleet_candidate = [](const char* name, int split, int decode_instances) {
    FleetCandidate c;
    c.name = name;
    c.split = split;
    c.decode_instances = decode_instances;
    return c;
  };
  fleet_knobs.candidates = {
      fleet_candidate("H100-pool1", 1, 1), fleet_candidate("H100-pool2", 1, 2),
      fleet_candidate("Lite4-pool1", 4, 1), fleet_candidate("Lite4-pool2", 4, 2)};
  Scenario fleet_scenario =
      *ScenarioBuilder(StudyKind::kFleetCompare).Fleet(fleet_knobs).Build();
  t0 = std::chrono::steady_clock::now();
  RunReport fleet_run = Runner().Run(fleet_scenario);
  double fleet_s = SecondsSince(t0);
  int fleet_platform_builds = 0;
  int fleet_feasible = 0;
  bool fleet_shared_builds = false;
  bool fleet_capacity_scales = false;
  if (fleet_run.ok) {
    const auto& fleet = std::get<FleetCompareReport>(fleet_run.payload);
    fleet_platform_builds = fleet.platform_builds;
    for (const FleetCompareReport::Candidate& c : fleet.candidates) {
      if (c.feasible) ++fleet_feasible;
    }
    fleet_shared_builds = fleet.platform_builds == 2;
    fleet_capacity_scales =
        fleet.candidates.size() == 4 &&
        fleet.candidates[1].analytic_capacity_tok_s ==
            2.0 * fleet.candidates[0].analytic_capacity_tok_s &&
        fleet.candidates[3].analytic_capacity_tok_s ==
            2.0 * fleet.candidates[2].analytic_capacity_tok_s;
  }
  bool fleet_ok = fleet_run.ok && fleet_feasible == 4 && fleet_shared_builds &&
                  fleet_capacity_scales;

  // --- 10. low-load, faulted, long-output point, reference vs new core ----
  // Two decode instances at 20% of their analytic capacity with ~1k-token
  // outputs: nearly every decode step sits in a coalesced run, and decode
  // failures and degrade windows land inside those runs.
  WorkloadSpec quiet_spec;
  quiet_spec.median_output_tokens = 1024;
  quiet_spec.output_sigma = 0.5;
  quiet_spec.arrival_rate_per_s = 0.2 * 2.0 * decode.best.result.tokens_per_s /
                                  static_cast<double>(quiet_spec.median_output_tokens);
  quiet_spec.duration_s = 120.0;
  quiet_spec.seed = 77;
  std::vector<Request> quiet_requests = GenerateWorkload(quiet_spec);
  ServeClusterConfig quiet = faulty;
  quiet.prefill_instances = std::max(
      1, static_cast<int>(std::ceil(1.25 * quiet_spec.arrival_rate_per_s *
                                    quiet_spec.median_prompt_tokens /
                                    prefill.best.result.tokens_per_s)));
  quiet.decode_instances = 2;
  quiet.horizon_s = quiet_spec.duration_s;
  quiet.faults.decode_failure_rate_per_s = 0.03;
  quiet.faults.degraded.decode_rate_per_s = 0.05;
  quiet.faults.degraded.multiplier = 2.0;
  quiet.faults.degraded.mean_duration_s = 5.0;
  t0 = std::chrono::steady_clock::now();
  ServeMetrics quiet_ref = RunServeSimulationReference(quiet_requests, quiet, table);
  double quiet_ref_s = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  ServeMetrics quiet_new = RunServeSimulation(quiet_requests, quiet, table);
  double quiet_new_s = SecondsSince(t0);
  int quiet_decode_kills = 0;
  for (const FaultEvent& e : quiet_new.fault_events) {
    if (e.kind == FaultEventKind::kFailure && e.pool == ScalePool::kDecode) {
      quiet_decode_kills += e.killed_requests;
    }
  }
  bool quiet_identical = quiet_decode_kills > 0 && quiet_new.degrade_windows > 0 &&
                         FaultLogsIdentical(quiet_ref, quiet_new) &&
                         MetricsIdentical(quiet_ref, quiet_new);

  // --- 11. wide, autoscaled, faulted pool at low load, reference vs new ---
  // 24 decode instances at a quarter of their analytic capacity, with
  // failures, degrade windows, and a reactive autoscaler that drains busy
  // instances down to 16 and adds back on backlog (up to 48). Backlogs find
  // many coalesced runs — full, draining, failing and tied ones among them —
  // so arming really chooses; section 10's two-instance pool never does.
  const int kWideDecode = 24;
  WorkloadSpec wide_spec;
  wide_spec.median_output_tokens = 512;
  wide_spec.output_sigma = 0.6;
  wide_spec.prompt_sigma = 0.5;
  wide_spec.arrival_rate_per_s = 0.25 * kWideDecode * decode.best.result.tokens_per_s /
                                 static_cast<double>(wide_spec.median_output_tokens);
  wide_spec.duration_s = 60.0;
  wide_spec.seed = 12;
  std::vector<Request> wide_requests = GenerateWorkload(wide_spec);
  ServeClusterConfig wide = faulty;
  wide.prefill_instances = std::max(
      1, static_cast<int>(std::ceil(1.25 * wide_spec.arrival_rate_per_s *
                                    wide_spec.median_prompt_tokens /
                                    prefill.best.result.tokens_per_s)));
  wide.decode_instances = kWideDecode;
  wide.horizon_s = wide_spec.duration_s;
  wide.faults.decode_failure_rate_per_s = 0.01;
  wide.faults.degraded.decode_rate_per_s = 0.02;
  wide.faults.degraded.multiplier = 2.0;
  wide.faults.degraded.mean_duration_s = 5.0;
  wide.autoscaler.enabled = true;
  wide.autoscaler.interval_s = 5.0;
  wide.autoscaler.delay_s = 5.0;
  wide.autoscaler.min_prefill_instances = wide.prefill_instances;
  wide.autoscaler.min_decode_instances = 16;
  wide.autoscaler.max_decode_instances = 48;
  wide.autoscaler.scale_down_utilization = 0.5;
  wide.autoscaler.prefill_tokens_per_s = prefill.best.result.tokens_per_s;
  wide.autoscaler.decode_tokens_per_s = decode.best.result.tokens_per_s;
  t0 = std::chrono::steady_clock::now();
  ServeMetrics wide_ref = RunServeSimulationReference(wide_requests, wide, table);
  double wide_ref_s = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  ServeMetrics wide_new = RunServeSimulation(wide_requests, wide, table);
  double wide_new_s = SecondsSince(t0);
  int wide_decode_kills = 0;
  for (const FaultEvent& e : wide_new.fault_events) {
    if (e.kind == FaultEventKind::kFailure && e.pool == ScalePool::kDecode) {
      wide_decode_kills += e.killed_requests;
    }
  }
  bool wide_identical =
      wide_decode_kills > 0 && wide_new.degrade_windows > 0 &&
      !wide_new.scale_events.empty() && ScaleLogsIdentical(wide_ref, wide_new) &&
      FaultLogsIdentical(wide_ref, wide_new) && MetricsIdentical(wide_ref, wide_new) &&
      wide_ref.decode_instance_seconds == wide_new.decode_instance_seconds &&
      wide_ref.peak_decode_instances == wide_new.peak_decode_instances;

  bool pass = zero_afr_within_reference && sweep_report.ok &&
              reference_identical && million_identical && million_speedup > 1.0 &&
              shard_sane && grid_identical && grid_speedup > 1.0 &&
              axes_off_zeroed && chaos_identical && fleet_ok && quiet_identical &&
              wide_identical;

  if (json) {
    Json sim = Json::Object();
    sim.Set("load", 0.95)
        .Set("horizon_s", spec.duration_s)
        .Set("decode_steps", static_cast<uint64_t>(fast_path.tbt_s.count()))
        .Set("timed_runs", kTimedRuns)
        .Set("reference_core_s", ref_sim_s)
        .Set("new_core_s", fast_sim_s)
        .Set("speedup", sim_speedup);
    Json sweep = Json::Object();
    sweep.Set("points", sweep_points).Set("wall_s", sweep_s);
    Json autoscale = Json::Object();
    autoscale.Set("scale_events", static_cast<int>(scaled_fast.scale_events.size()))
        .Set("peak_decode_instances", scaled_fast.peak_decode_instances)
        .Set("decode_instance_seconds", scaled_fast.decode_instance_seconds);
    Json faults_json = Json::Object();
    faults_json.Set("fault_events", static_cast<int>(faulty_fast.fault_events.size()))
        .Set("retried_requests", faulty_fast.retried_requests)
        .Set("lost_tokens", faulty_fast.lost_tokens)
        .Set("zero_afr_ns_per_step", zero_afr_ns_per_step)
        .Set("zero_afr_reference_ns_per_step", zero_afr_reference_ns_per_step)
        .Set("zero_afr_within_reference", zero_afr_within_reference);
    Json reference = Json::Object();
    reference.Set("plain_identical", ref_plain_identical)
        .Set("autoscaled_identical", ref_scaled_identical)
        .Set("faulty_identical", ref_faulty_identical);
    Json workload_gen = Json::Object();
    workload_gen.Set("requests", static_cast<uint64_t>(million_requests.size()))
        .Set("wall_s", million_gen_s)
        .Set("requests_per_s",
             million_gen_s > 0.0 ? million_requests.size() / million_gen_s : 0.0);
    Json million = Json::Object();
    million.Set("requests", static_cast<uint64_t>(million_requests.size()))
        .Set("decode_instances", kMillionDecode)
        .Set("horizon_s", mspec.duration_s)
        .Set("reference_core_s", million_ref_s)
        .Set("new_core_s", million_new_s)
        .Set("speedup", million_speedup)
        .Set("identity", million_identical)
        .Set("shards", kMillionShards)
        .Set("sharded_s", million_shard_s)
        .Set("sharded_completed_sane", shard_sane);
    Json robustness = Json::Object();
    robustness.Set("fault_events", static_cast<int>(chaos_fast.fault_events.size()))
        .Set("shed_requests", chaos_fast.shed_requests)
        .Set("degrade_windows", chaos_fast.degrade_windows)
        .Set("axes_off_zeroed", axes_off_zeroed)
        .Set("correlated_logs_identical", chaos_identical);
    Json fleet_json = Json::Object();
    fleet_json.Set("candidates", static_cast<int>(fleet_knobs.candidates.size()))
        .Set("distinct_parts", 2)
        .Set("platform_builds", fleet_platform_builds)
        .Set("feasible", fleet_feasible)
        .Set("shared_builds", fleet_shared_builds)
        .Set("capacity_scales_with_pool", fleet_capacity_scales)
        .Set("wall_s", fleet_s);
    Json sweep_core = Json::Object();
    sweep_core.Set("points", grid_points)
        .Set("reference_core_s", grid_ref_s)
        .Set("new_core_s", grid_new_s)
        .Set("speedup", grid_speedup)
        .Set("identity", grid_identical);
    Json quiet_json = Json::Object();
    quiet_json.Set("requests", static_cast<uint64_t>(quiet_requests.size()))
        .Set("decode_steps", static_cast<uint64_t>(quiet_new.tbt_s.count()))
        .Set("decode_killed_requests", quiet_decode_kills)
        .Set("degrade_windows", quiet_new.degrade_windows)
        .Set("reference_core_s", quiet_ref_s)
        .Set("new_core_s", quiet_new_s)
        .Set("identity", quiet_identical);
    Json wide_json = Json::Object();
    wide_json.Set("requests", static_cast<uint64_t>(wide_requests.size()))
        .Set("decode_instances", kWideDecode)
        .Set("peak_decode_instances", wide_new.peak_decode_instances)
        .Set("scale_events", static_cast<int>(wide_new.scale_events.size()))
        .Set("decode_steps", static_cast<uint64_t>(wide_new.tbt_s.count()))
        .Set("decode_killed_requests", wide_decode_kills)
        .Set("degrade_windows", wide_new.degrade_windows)
        .Set("reference_core_s", wide_ref_s)
        .Set("new_core_s", wide_new_s)
        .Set("identity", wide_identical);
    Json j = Json::Object();
    j.Set("full_sim", std::move(sim))
        .Set("sweep", std::move(sweep))
        .Set("autoscale", std::move(autoscale))
        .Set("faults", std::move(faults_json))
        .Set("reference_identity", std::move(reference))
        .Set("workload_gen", std::move(workload_gen))
        .Set("million_point", std::move(million))
        .Set("robustness", std::move(robustness))
        .Set("fleet", std::move(fleet_json))
        .Set("sweep_core", std::move(sweep_core))
        .Set("low_load_faulted", std::move(quiet_json))
        .Set("wide_pool_faulted", std::move(wide_json))
        .Set("pass", pass);
    std::printf("%s\n", j.Dump().c_str());
  } else {
    std::printf("=== Serve-scale: simulator core vs reference core ===\n\n");
    std::printf("full simulation (load 0.95, %.0f s horizon, %zu decode steps, "
                "best of %d):\n"
                "  reference core: %.4f s   new core: %.4f s   speedup: %.2fx\n\n",
                spec.duration_s, fast_path.tbt_s.count(), kTimedRuns, ref_sim_s, fast_sim_s,
                sim_speedup);
    std::printf("serve-sweep study (%d points, %.0f s horizon each): %.3f s wall\n\n",
                sweep_points, knobs.horizon_s, sweep_s);
    std::printf("autoscaled on/off point: %zu scale events, peak %d decode inst\n\n",
                scaled_fast.scale_events.size(), scaled_fast.peak_decode_instances);
    std::printf("fault-injected point: %zu fault events, %d retried\n"
                "  zero-AFR: %.0f ns/decode-step, reference core %.0f: %s\n\n",
                faulty_fast.fault_events.size(), faulty_fast.retried_requests,
                zero_afr_ns_per_step, zero_afr_reference_ns_per_step,
                zero_afr_within_reference ? "OK" : "FAILED");
    std::printf("reference core vs new core identity:\n"
                "  plain: %s   autoscaled: %s   fault-injected: %s\n\n",
                ref_plain_identical ? "OK" : "FAILED",
                ref_scaled_identical ? "OK" : "FAILED",
                ref_faulty_identical ? "OK" : "FAILED");
    std::printf("million-request point (%zu requests, %d decode inst, %.0f s horizon):\n"
                "  workload generation: %.3f s (%.1fM req/s)\n"
                "  reference core: %.3f s   new core: %.3f s   speedup: %.2fx   "
                "identity: %s\n"
                "  sharded x%d (merged): %.3f s\n\n",
                million_requests.size(), kMillionDecode, mspec.duration_s,
                million_gen_s,
                million_gen_s > 0.0 ? million_requests.size() / million_gen_s / 1e6 : 0.0,
                million_ref_s, million_new_s, million_speedup,
                million_identical ? "OK" : "FAILED", kMillionShards, million_shard_s);
    std::printf("three-axis robustness point (%zu fault events, %d shed, %d degrade windows):\n"
                "  axes-off fields zeroed: %s   correlated-log identity "
                "(new/reference): %s\n\n",
                chaos_fast.fault_events.size(), chaos_fast.shed_requests,
                chaos_fast.degrade_windows, axes_off_zeroed ? "OK" : "FAILED",
                chaos_identical ? "OK" : "FAILED");
    std::printf("fleet-compare catalog (%zu candidates over 2 distinct parts): %.3f s wall\n"
                "  platform builds: %d (expect 2): %s   feasible: %d/4   "
                "pool capacity scaling: %s\n\n",
                fleet_knobs.candidates.size(), fleet_s, fleet_platform_builds,
                fleet_shared_builds ? "OK" : "FAILED", fleet_feasible,
                fleet_capacity_scales ? "OK" : "FAILED");
    std::printf("19-point load grid, reference vs new core:\n"
                "  reference: %.3f s   new: %.3f s   speedup: %.2fx   "
                "identity: %s\n",
                grid_ref_s, grid_new_s, grid_speedup,
                grid_identical ? "OK" : "FAILED");
    std::printf("\nlow-load faulted long-output point (%zu requests, %zu decode steps, "
                "%d decode kills, %d degrade windows):\n"
                "  reference: %.3f s   new: %.3f s   identity: %s\n",
                quiet_requests.size(), quiet_new.tbt_s.count(), quiet_decode_kills,
                quiet_new.degrade_windows, quiet_ref_s, quiet_new_s,
                quiet_identical ? "OK" : "FAILED");
    std::printf("\nwide autoscaled faulted pool (%zu requests, %d-%d decode inst, "
                "%zu scale events, %zu decode steps, %d decode kills, "
                "%d degrade windows):\n"
                "  reference: %.3f s   new: %.3f s   identity: %s\n",
                wide_requests.size(), kWideDecode, wide_new.peak_decode_instances,
                wide_new.scale_events.size(), wide_new.tbt_s.count(), wide_decode_kills,
                wide_new.degrade_windows, wide_ref_s, wide_new_s,
                wide_identical ? "OK" : "FAILED");
  }
  return pass ? 0 : 1;
}
