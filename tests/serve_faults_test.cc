// Fault-injection engine tests: substream stability, the no-traffic
// availability cross-check against the closed forms in
// src/reliability/failure_model.h (satellite of the serve-path fault work,
// mirroring how McSim is validated), and the serve-loop integration —
// conservation under kill/retry/drop, fault-log identity with the reference
// engine, and the disabled path staying inert.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/hw/catalog.h"
#include "src/reliability/failure_model.h"
#include "src/serve/simulator.h"
#include "src/serve/simulator_reference.h"
#include "src/serve/workload.h"
#include "tests/serve_identity.h"

namespace litegpu {
namespace {

constexpr double kSecondsPerYear = 8766.0 * 3600.0;

// --- names and substreams ---

TEST(Faults, RetryPolicyRoundTripsThroughNames) {
  for (FaultRetryPolicy policy :
       {FaultRetryPolicy::kRetry, FaultRetryPolicy::kDrop,
        FaultRetryPolicy::kRetryWithBudget}) {
    FaultRetryPolicy parsed;
    ASSERT_TRUE(ParseFaultRetryPolicy(ToString(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  FaultRetryPolicy unused;
  EXPECT_FALSE(ParseFaultRetryPolicy("rety", &unused));
  EXPECT_FALSE(ParseFaultRetryPolicy("", &unused));
}

TEST(Faults, SubstreamSeedDisjointFromWorkloadStreams) {
  // Enabling faults must never perturb arrivals or request lengths: the
  // fault seed is a distinct mix of the scenario seed, not the seed itself
  // or any class substream.
  uint64_t fault_seed = FaultSubstreamSeed(42);
  EXPECT_NE(fault_seed, 42u);
  for (int cls = 0; cls < 8; ++cls) {
    EXPECT_NE(fault_seed, ClassSubstreamSeed(42, cls)) << cls;
  }
  EXPECT_EQ(fault_seed, FaultSubstreamSeed(42));  // deterministic
  EXPECT_NE(fault_seed, FaultSubstreamSeed(43));
}

TEST(Faults, SlotStreamsDependOnlyOnPoolAndSlot) {
  // A slot's gap sequence must not depend on when the slot is first asked
  // or what other slots drew — that is what makes autoscaled instances
  // appearing mid-run deterministic.
  FaultStreams a(7);
  FaultStreams b(7);
  // Interrogate b's slots in a scrambled order with extra draws elsewhere.
  (void)b.NextFailureGap(ScalePool::kDecode, 3, 1.0);
  (void)b.NextFailureGap(ScalePool::kPrefill, 1, 1.0);
  (void)b.NextFailureGap(ScalePool::kDecode, 0, 1.0);
  FaultStreams c(7);
  double a0 = a.NextFailureGap(ScalePool::kPrefill, 0, 0.5);
  double c0 = c.NextFailureGap(ScalePool::kPrefill, 0, 0.5);
  EXPECT_EQ(a0, c0);
  // b already consumed prefill slot 1's first draw; slot 0 is untouched.
  EXPECT_EQ(b.NextFailureGap(ScalePool::kPrefill, 0, 0.5), a0);
  // Pools draw from different streams even at the same slot index.
  FaultStreams d(7);
  FaultStreams e(7);
  EXPECT_NE(d.NextFailureGap(ScalePool::kPrefill, 0, 1.0),
            e.NextFailureGap(ScalePool::kDecode, 0, 1.0));
}

// --- no-traffic availability cross-check against the closed forms ---

TEST(FaultAvailability, MatchesClosedFormNoSpares) {
  FailureParams params;
  double rate = InstanceFailureRatePerSecond(H100(), 8, params);
  FaultAvailabilityStats stats = SimulateFaultAvailability(
      rate, params.mttr_hours * 3600.0, params.spare_activation_minutes * 60.0,
      /*num_spares=*/0, /*num_instances=*/4,
      /*duration_s=*/500.0 * kSecondsPerYear, /*seed=*/1);
  EXPECT_GT(stats.failures, 100);
  EXPECT_EQ(stats.spare_masked, 0);
  double expected = InstanceAvailabilityWithSpares(H100(), 8, 4, 0, params);
  EXPECT_NEAR(stats.availability, expected, 0.002);
}

TEST(FaultAvailability, MatchesClosedFormWithSpares) {
  FailureParams params;
  double rate = InstanceFailureRatePerSecond(Lite(), 32, params);
  FaultAvailabilityStats stats = SimulateFaultAvailability(
      rate, params.mttr_hours * 3600.0, params.spare_activation_minutes * 60.0,
      /*num_spares=*/2, /*num_instances=*/4,
      /*duration_s=*/500.0 * kSecondsPerYear, /*seed=*/1);
  EXPECT_GT(stats.failures, 100);
  EXPECT_GT(stats.spare_masked, stats.failures / 2);
  double expected = InstanceAvailabilityWithSpares(Lite(), 32, 4, 2, params);
  EXPECT_NEAR(stats.availability, expected, 0.002);
  // ExpectedCapacityFraction is the same steady state seen cluster-wide.
  EXPECT_NEAR(stats.availability,
              ExpectedCapacityFraction(Lite(), 32, 4, 2, params), 0.002);
}

TEST(FaultAvailability, DeterministicAndSeedSensitive) {
  FaultAvailabilityStats a =
      SimulateFaultAvailability(1e-6, 3600.0, 60.0, 1, 4, 1e8, 9);
  FaultAvailabilityStats b =
      SimulateFaultAvailability(1e-6, 3600.0, 60.0, 1, 4, 1e8, 9);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.spare_masked, b.spare_masked);
  EXPECT_EQ(a.availability, b.availability);
  FaultAvailabilityStats c =
      SimulateFaultAvailability(1e-6, 3600.0, 60.0, 1, 4, 1e8, 10);
  EXPECT_NE(a.availability, c.availability);
}

TEST(FaultAvailability, SparesMaskFailures) {
  FaultAvailabilityStats none =
      SimulateFaultAvailability(1e-5, 7200.0, 60.0, 0, 8, 1e8, 3);
  FaultAvailabilityStats spared =
      SimulateFaultAvailability(1e-5, 7200.0, 60.0, 4, 8, 1e8, 3);
  EXPECT_EQ(none.spare_masked, 0);
  EXPECT_GT(spared.spare_masked, 0);
  EXPECT_GT(spared.availability, none.availability);
}

// --- serve-loop integration ---

StepTimeTable SimpleTable() {
  return TableOf([](int batch) { return 0.05 * std::sqrt(batch); },
                 [](int batch) { return 5e-3 + 1e-4 * batch; }, 8, 64);
}

std::vector<Request> FixedRequests(int n, double spacing_s, int output_tokens = 32) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = i * spacing_s;
    r.prompt_tokens = 1500;
    r.output_tokens = output_tokens;
    requests.push_back(r);
  }
  return requests;
}

ServeFaultConfig ChurnyFaults(FaultRetryPolicy policy) {
  // Rates high enough that a few-second run sees multiple failures per
  // pool — this is the accelerated-churn regime the checked-in faulty
  // example also uses.
  ServeFaultConfig faults;
  faults.enabled = true;
  faults.prefill_failure_rate_per_s = 0.5;
  faults.decode_failure_rate_per_s = 1.0;
  faults.repair_s = 0.5;
  faults.spare_activation_s = 0.1;
  faults.prefill_spares = 1;
  faults.decode_spares = 1;
  faults.retry_policy = policy;
  faults.seed = FaultSubstreamSeed(42);
  return faults;
}

TEST(SimulatorFaults, DisabledFaultsStayInert) {
  auto requests = FixedRequests(100, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_TRUE(m.fault_events.empty());
  EXPECT_EQ(m.retried_requests, 0);
  EXPECT_EQ(m.dropped_requests, 0);
  EXPECT_DOUBLE_EQ(m.lost_tokens, 0.0);
  EXPECT_DOUBLE_EQ(m.prefill_fault_downtime_s, 0.0);
  EXPECT_DOUBLE_EQ(m.decode_fault_downtime_s, 0.0);
}

TEST(SimulatorFaults, RetryPolicyConservesRequests) {
  auto requests = FixedRequests(300, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  // Retried work always re-serves: nothing is dropped, everything admitted
  // eventually completes.
  EXPECT_EQ(m.completed_requests, m.admitted_requests);
  EXPECT_EQ(m.dropped_requests, 0);
  EXPECT_GT(m.retried_requests, 0);
  // The log saw real churn, in simulated-time order, with consistent
  // aggregate accounting.
  ASSERT_FALSE(m.fault_events.empty());
  int failures = 0;
  int killed = 0;
  double lost = 0.0;
  for (size_t i = 0; i < m.fault_events.size(); ++i) {
    const FaultEvent& ev = m.fault_events[i];
    if (i > 0) {
      EXPECT_GE(ev.time_s, m.fault_events[i - 1].time_s);
    }
    EXPECT_GE(ev.spares_free, 0);
    if (ev.kind == FaultEventKind::kFailure) {
      ++failures;
      killed += ev.killed_requests;
      lost += ev.lost_tokens;
    } else {
      EXPECT_EQ(ev.killed_requests, 0);
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_EQ(m.retried_requests, killed);
  EXPECT_DOUBLE_EQ(m.lost_tokens, lost);
  EXPECT_GT(m.prefill_fault_downtime_s + m.decode_fault_downtime_s, 0.0);
  // Killed decode tokens were subtracted from goodput: the total is below
  // the fault-free total of sum(output_tokens).
  EXPECT_LE(m.output_tokens, 300.0 * 32.0);
}

TEST(SimulatorFaults, DropPolicyDropsKilledRequests) {
  auto requests = FixedRequests(300, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kDrop);
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_GT(m.dropped_requests, 0);
  EXPECT_EQ(m.retried_requests, 0);
  EXPECT_EQ(m.completed_requests + m.dropped_requests, m.admitted_requests);
  EXPECT_LT(m.output_tokens, 300.0 * 32.0);
}

TEST(SimulatorFaults, RetryBudgetFallsBetweenRetryAndDrop) {
  auto requests = FixedRequests(300, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetryWithBudget);
  config.faults.retry_budget = 1;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  // Every admitted request either completes or exhausts its budget.
  EXPECT_EQ(m.completed_requests + m.dropped_requests, m.admitted_requests);
  EXPECT_GT(m.retried_requests, 0);
  // With budget 0 the policy degenerates to drop-on-first-kill.
  ServeClusterConfig no_budget = config;
  no_budget.faults.retry_budget = 0;
  ServeMetrics z = RunServeSimulation(requests, no_budget, SimpleTable());
  EXPECT_EQ(z.retried_requests, 0);
  EXPECT_EQ(z.completed_requests + z.dropped_requests, z.admitted_requests);
}

TEST(SimulatorFaults, FaultLogBitIdenticalToReference) {
  auto requests = FixedRequests(400, 0.01, 32);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 5.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  StepTimeTable table = SimpleTable();
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_FALSE(a.fault_events.empty());
  ExpectSameServeMetrics(a, b);
}

// --- correlated failure domains ---

ServeFaultConfig DomainFaults(uint64_t scenario_seed) {
  // Domain outages only: independent per-instance churn off, so every
  // kFailure in the log carries a domain id.
  ServeFaultConfig faults;
  faults.enabled = true;
  faults.repair_s = 0.5;
  faults.domains.prefill_instances_per_domain = 2;
  faults.domains.decode_instances_per_domain = 3;
  faults.domains.failure_rate_per_s = 0.4;
  faults.domains.repair_s = 0.6;
  faults.seed = FaultSubstreamSeed(scenario_seed);
  return faults;
}

TEST(SimulatorFaults, DomainFailureKillsExactlyItsLiveMembers) {
  // Property test over seeds: replaying the fault log with a down-set per
  // pool, every domain outage must kill exactly the members of its domain
  // that were up — no outsiders, no double-kills, no survivors.
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    auto requests = FixedRequests(400, 0.01);
    ServeClusterConfig config;
    config.prefill_instances = 5;  // domains of 2 -> last domain has 1 member
    config.decode_instances = 8;   // domains of 3 -> last domain has 2
    config.horizon_s = 8.0;
    config.faults = DomainFaults(seed);
    ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
    ASSERT_FALSE(m.fault_events.empty()) << seed;
    std::set<int> down[2];
    int outages = 0;
    for (size_t i = 0; i < m.fault_events.size();) {
      const FaultEvent& e = m.fault_events[i];
      int pool = e.pool == ScalePool::kPrefill ? 0 : 1;
      if (e.kind != FaultEventKind::kFailure) {
        if (e.kind == FaultEventKind::kRepair ||
            e.kind == FaultEventKind::kSpareActivation) {
          down[pool].erase(e.instance);
        }
        ++i;
        continue;
      }
      ASSERT_GE(e.domain, 0) << "independent failure with domain churn only";
      // Collect the whole outage group: same time, pool, and domain.
      std::set<int> killed;
      size_t j = i;
      while (j < m.fault_events.size() &&
             m.fault_events[j].kind == FaultEventKind::kFailure &&
             m.fault_events[j].time_s == e.time_s &&
             m.fault_events[j].pool == e.pool &&
             m.fault_events[j].domain == e.domain) {
        EXPECT_TRUE(killed.insert(m.fault_events[j].instance).second)
            << "instance killed twice in one outage";
        ++j;
      }
      int per_domain = pool == 0 ? config.faults.domains.prefill_instances_per_domain
                                 : config.faults.domains.decode_instances_per_domain;
      int n = pool == 0 ? config.prefill_instances : config.decode_instances;
      std::set<int> expected;
      for (int k = e.domain * per_domain;
           k < std::min(n, (e.domain + 1) * per_domain); ++k) {
        if (down[pool].count(k) == 0) {
          expected.insert(k);
        }
      }
      EXPECT_EQ(killed, expected)
          << "seed " << seed << " outage at t=" << e.time_s << " domain "
          << e.domain;
      down[pool].insert(killed.begin(), killed.end());
      ++outages;
      i = j;
    }
    EXPECT_GT(outages, 0) << seed;
  }
}

TEST(SimulatorFaults, ThreeAxisLogsBitIdenticalToReference) {
  // Domains + degradation + shedding all on: fault and shed logs must stay
  // element-wise identical to the reference engine's.
  auto requests = FixedRequests(400, 0.005, 32);
  ServeClusterConfig config;
  config.prefill_instances = 4;
  config.decode_instances = 6;
  config.horizon_s = 5.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  config.faults.domains.prefill_instances_per_domain = 2;
  config.faults.domains.decode_instances_per_domain = 3;
  config.faults.domains.failure_rate_per_s = 0.3;
  config.faults.domains.repair_s = 0.4;
  config.faults.degraded.prefill_rate_per_s = 0.2;
  config.faults.degraded.decode_rate_per_s = 0.2;
  config.faults.degraded.multiplier = 2.0;
  config.faults.degraded.mean_duration_s = 0.5;
  config.shedding.max_queue_depth = 8;
  StepTimeTable table = SimpleTable();
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_GT(a.shed_requests, 0);
  EXPECT_GT(a.degrade_windows, 0);
  ExpectSameServeMetrics(a, b);
}

// --- degraded states ---

TEST(SimulatorFaults, DegradedStepTimesMatchHandComputedSchedule) {
  // One request on one decode instance: every step dispatches sequentially,
  // so the makespan is exactly the sum of per-step durations. Replicate the
  // engine's degrade stream with a second FaultStreams and hand-compute the
  // schedule, applying the multiplier to steps dispatched inside a window
  // (half-open [start, end): the end event fires before a step dispatched
  // at the same timestamp).
  constexpr int kTokens = 64;
  constexpr double kRate = 0.8;
  constexpr double kMult = 3.0;
  constexpr double kMean = 0.2;
  StepTimeTable table = SimpleTable();
  std::vector<Request> requests = FixedRequests(1, 0.0, kTokens);
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.horizon_s = 100.0;
  config.faults.enabled = true;
  config.faults.degraded.decode_rate_per_s = kRate;
  config.faults.degraded.multiplier = kMult;
  config.faults.degraded.mean_duration_s = kMean;
  config.faults.seed = FaultSubstreamSeed(42);
  ServeMetrics m = RunServeSimulation(requests, config, table);
  EXPECT_EQ(m.completed_requests, 1);

  FaultStreams replica(config.faults.seed);
  std::vector<std::pair<double, double>> windows;  // [start, end)
  double cursor = 0.0;
  while (cursor < 100.0) {
    double start = cursor + replica.NextDegradeGap(ScalePool::kDecode, 0, kRate);
    double duration = replica.NextDegradeDuration(ScalePool::kDecode, 0, kMean);
    windows.emplace_back(start, start + duration);
    cursor = start + duration;
  }
  auto throttled = [&](double t) {
    for (const auto& w : windows) {
      if (w.first <= t && t < w.second) {
        return true;
      }
    }
    return false;
  };
  double t = table.PrefillTime(1);  // prefill dispatched at arrival 0
  double base = table.DecodeStepTime(1);
  double degraded_tokens = 0.0;
  for (int k = 0; k < kTokens; ++k) {
    double step = base;
    if (throttled(t)) {
      step *= kMult;
    }
    t += step;
    if (throttled(t)) {  // token counted if degraded at step completion
      degraded_tokens += 1.0;
    }
  }
  EXPECT_DOUBLE_EQ(m.makespan_s, t);
  EXPECT_DOUBLE_EQ(m.degraded_output_tokens, degraded_tokens);
  // Degraded instance-seconds integrate every window whose start falls
  // inside the admission horizon, busy or idle: starts are horizon-gated
  // like failure injection, but an entered window always runs its course.
  double expected_s = 0.0;
  for (const auto& w : windows) {
    if (w.first <= config.horizon_s) {
      expected_s += w.second - w.first;
    }
  }
  EXPECT_DOUBLE_EQ(m.decode_degraded_instance_s, expected_s);
  EXPECT_DOUBLE_EQ(m.prefill_degraded_instance_s, 0.0);
  EXPECT_GT(m.degrade_windows, 0);
}

// --- overload protection ---

TEST(SimulatorShedding, QueueDepthCapConservesRequests) {
  // A burst far beyond capacity with a tight depth cap: once the run
  // drains, every admitted request either completed or was shed (no faults,
  // so nothing drops), and the shed log is time-ordered with one entry per
  // shed request.
  auto requests = FixedRequests(500, 0.001);
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.horizon_s = 30.0;
  config.shedding.max_queue_depth = 16;
  ServeMetrics m = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_GT(m.shed_requests, 0);
  EXPECT_EQ(m.dropped_requests, 0);
  EXPECT_EQ(m.admitted_requests, m.completed_requests + m.shed_requests);
  ASSERT_EQ(m.shed_events.size(), static_cast<size_t>(m.shed_requests));
  for (size_t i = 0; i < m.shed_events.size(); ++i) {
    EXPECT_EQ(m.shed_events[i].reason, ShedReason::kQueueDepth) << i;
    if (i > 0) {
      EXPECT_GE(m.shed_events[i].time_s, m.shed_events[i - 1].time_s);
    }
  }
  // Shedding with faults on still conserves: admitted = completed +
  // dropped + shed.
  ServeClusterConfig faulty = config;
  faulty.faults = ChurnyFaults(FaultRetryPolicy::kDrop);
  ServeMetrics fm = RunServeSimulation(requests, faulty, SimpleTable());
  EXPECT_GT(fm.shed_requests, 0);
  EXPECT_EQ(fm.admitted_requests,
            fm.completed_requests + fm.dropped_requests + fm.shed_requests);
}

TEST(SimulatorShedding, TtftDeadlineBelowOnePassShedsEverything) {
  // The TTFT estimate is at least one full-batch prefill pass, so a
  // deadline below that sheds every arrival with the deadline reason.
  StepTimeTable table = SimpleTable();
  auto requests = FixedRequests(50, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  config.shedding.ttft_deadline_s = 0.5 * table.PrefillTime(table.max_prefill_batch());
  ServeMetrics m = RunServeSimulation(requests, config, table);
  EXPECT_EQ(m.shed_requests, 50);
  EXPECT_EQ(m.completed_requests, 0);
  for (const ShedEvent& e : m.shed_events) {
    EXPECT_EQ(e.reason, ShedReason::kDeadline);
  }
}

TEST(SimulatorShedding, DisabledSheddingMatchesBaseline) {
  // The shedding checks must cost nothing when off: metrics are identical
  // to a pre-shedding run of the same config.
  auto requests = FixedRequests(300, 0.002);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 10.0;
  ServeMetrics off = RunServeSimulation(requests, config, SimpleTable());
  EXPECT_EQ(off.shed_requests, 0);
  EXPECT_TRUE(off.shed_events.empty());
  ServeClusterConfig loose = config;
  loose.shedding.max_queue_depth = 1 << 30;  // enabled but never trips
  ServeMetrics on = RunServeSimulation(requests, loose, SimpleTable());
  EXPECT_EQ(on.shed_requests, 0);
  EXPECT_EQ(off.makespan_s, on.makespan_s);
  EXPECT_EQ(off.output_tokens, on.output_tokens);
  EXPECT_EQ(off.completed_requests, on.completed_requests);
}

TEST(SimulatorFaults, RampingPoolMatchesReferenceCore) {
  // One autoscaled, faulted point whose decode pool grows from 1 to 16+
  // instances: the table path must match the reference core on the fault
  // and scale logs, the per-class counts, and the retry and shed totals.
  // This pins the decode dispatch scan's early exit and the calendar
  // queue's width refits to the reference while the event rate climbs with
  // the pool.
  StepTimeTable table = TableOf([](int batch) { return 0.02 * batch; },
                                [](int batch) { return 0.02 + 2e-3 * batch; }, 16, 8);

  std::vector<Request> requests = FixedRequests(2000, 0.01, 64);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].class_id = static_cast<int>(i % 3 == 0);
  }
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 1;
  config.horizon_s = 20.0;
  config.num_classes = 2;
  config.autoscaler.enabled = true;
  config.autoscaler.interval_s = 1.0;
  config.autoscaler.delay_s = 1.0;
  config.autoscaler.prefill_tokens_per_s = 1500.0 * 50.0;
  config.autoscaler.decode_tokens_per_s = 8.0 / table.DecodeStepTime(8);
  config.faults.enabled = true;
  config.faults.prefill_failure_rate_per_s = 0.05;
  config.faults.decode_failure_rate_per_s = 0.05;
  config.faults.repair_s = 2.0;
  config.faults.spare_activation_s = 0.2;
  config.faults.decode_spares = 2;
  config.faults.retry_policy = FaultRetryPolicy::kRetry;
  config.faults.seed = FaultSubstreamSeed(42);
  config.shedding.max_queue_depth = 20;

  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_GE(a.peak_decode_instances, 16);
  EXPECT_GT(a.retried_requests, 0);
  EXPECT_GT(a.shed_requests, 0);
  EXPECT_EQ(a.peak_decode_instances, b.peak_decode_instances);
  EXPECT_EQ(a.admitted_requests, b.admitted_requests);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.retried_requests, b.retried_requests);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.lost_tokens, b.lost_tokens);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.decode_instance_seconds, b.decode_instance_seconds);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].admitted_requests, b.per_class[c].admitted_requests) << c;
    EXPECT_EQ(a.per_class[c].completed_requests, b.per_class[c].completed_requests) << c;
    EXPECT_EQ(a.per_class[c].in_flight_at_horizon, b.per_class[c].in_flight_at_horizon) << c;
    EXPECT_EQ(a.per_class[c].output_tokens, b.per_class[c].output_tokens) << c;
  }
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
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  for (size_t i = 0; i < a.fault_events.size(); ++i) {
    const FaultEvent& x = a.fault_events[i];
    const FaultEvent& y = b.fault_events[i];
    EXPECT_EQ(x.time_s, y.time_s) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.pool, y.pool) << i;
    EXPECT_EQ(x.instance, y.instance) << i;
    EXPECT_EQ(x.killed_requests, y.killed_requests) << i;
    EXPECT_EQ(x.lost_tokens, y.lost_tokens) << i;
    EXPECT_EQ(x.spares_free, y.spares_free) << i;
  }
  ASSERT_EQ(a.shed_events.size(), b.shed_events.size());
  for (size_t i = 0; i < a.shed_events.size(); ++i) {
    EXPECT_EQ(a.shed_events[i].time_s, b.shed_events[i].time_s) << i;
    EXPECT_EQ(a.shed_events[i].request, b.shed_events[i].request) << i;
  }
}

TEST(SimulatorFaults, CoalescedRunsUnderFailuresAndDegradesMatchReference) {
  // Low load with long outputs keeps most decode steps inside coalesced
  // runs, so failures, domain outages and degrade windows on the decode
  // pool keep landing mid-run: each must replay the run's finished steps
  // (at the degrade state they ran under) before it kills or re-times the
  // step in flight.
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 1.5;
  spec.duration_s = 40.0;
  spec.median_prompt_tokens = 800;
  spec.prompt_sigma = 0.5;
  spec.median_output_tokens = 300;
  spec.output_sigma = 0.5;
  auto requests = GenerateWorkload(spec);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].class_id = static_cast<int>(i % 2);
  }
  StepTimeTable table = SimpleTable();
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = spec.duration_s;
  config.num_classes = 2;
  config.faults.enabled = true;
  config.faults.prefill_failure_rate_per_s = 0.05;
  config.faults.decode_failure_rate_per_s = 0.15;
  config.faults.repair_s = 2.0;
  config.faults.spare_activation_s = 0.5;
  config.faults.decode_spares = 1;
  config.faults.retry_policy = FaultRetryPolicy::kRetryWithBudget;
  config.faults.retry_budget = 1;
  config.faults.domains.decode_instances_per_domain = 2;
  config.faults.domains.failure_rate_per_s = 0.03;
  config.faults.domains.repair_s = 3.0;
  config.faults.degraded.prefill_rate_per_s = 0.1;
  config.faults.degraded.decode_rate_per_s = 0.3;
  config.faults.degraded.multiplier = 2.5;
  config.faults.degraded.mean_duration_s = 1.5;
  config.faults.seed = FaultSubstreamSeed(7);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  int decode_kills = 0;
  for (const FaultEvent& e : a.fault_events) {
    if (e.kind == FaultEventKind::kFailure && e.pool == ScalePool::kDecode) {
      decode_kills += e.killed_requests;
    }
  }
  EXPECT_GT(decode_kills, 0);
  EXPECT_GT(a.degrade_windows, 0);
  EXPECT_GT(a.degraded_output_tokens, 0.0);
  ExpectSameServeMetrics(a, b);
}

TEST(SimulatorFaults, FullBatchHeapsKilledMidRunMatchReference) {
  // The decode pool is held at max_decode_batch (100) with lognormal
  // output lengths while failures clear whole completion heaps mid-run;
  // the killed sequences requeue into the backlog and refill the heaps of
  // the survivors and of the spare that takes over.
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 400.0;
  spec.duration_s = 8.0;
  spec.median_prompt_tokens = 400;
  spec.prompt_sigma = 0.5;
  spec.median_output_tokens = 60;
  spec.output_sigma = 0.7;
  auto requests = GenerateWorkload(spec);
  StepTimeTable table = TableOf([](int batch) { return 0.005 * std::sqrt(batch); },
                                [](int batch) { return 5e-3 + 1e-4 * batch; }, 8, 100);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = spec.duration_s;
  config.faults.enabled = true;
  config.faults.decode_failure_rate_per_s = 0.5;
  config.faults.repair_s = 1.0;
  config.faults.spare_activation_s = 0.2;
  config.faults.decode_spares = 1;
  config.faults.retry_policy = FaultRetryPolicy::kRetry;
  config.faults.seed = FaultSubstreamSeed(11);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  int decode_kills = 0;
  for (const FaultEvent& e : a.fault_events) {
    if (e.kind == FaultEventKind::kFailure && e.pool == ScalePool::kDecode) {
      decode_kills += e.killed_requests;
    }
  }
  EXPECT_GT(decode_kills, 100);
  EXPECT_GT(a.mean_decode_batch, 90.0);
  ExpectSameServeMetrics(a, b);
}

TEST(SimulatorFaults, SlotOrderReplayMatchesReferenceRequeueOrder) {
  // Constant output lengths (sigma 0): every sequence admitted at one step
  // boundary finishes in one step, so completions come several to a step
  // and the reference's swap-remove pass permutes the survivors' slots. A
  // decode failure requeues its victims in that slot order, which decides
  // their later prefill batches and decode placement: the fault log's
  // kill and loss counts, the retry total and the per-class TTFTs must all
  // match the reference engine.
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 40.0;
  spec.duration_s = 20.0;
  spec.median_prompt_tokens = 600;
  spec.prompt_sigma = 0.5;
  spec.median_output_tokens = 48;
  spec.output_sigma = 0.0;
  auto requests = GenerateWorkload(spec);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].class_id = static_cast<int>(i % 3);
  }
  StepTimeTable table = SimpleTable();
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = spec.duration_s;
  config.num_classes = 3;
  config.faults.enabled = true;
  config.faults.decode_failure_rate_per_s = 0.4;
  config.faults.repair_s = 1.0;
  config.faults.retry_policy = FaultRetryPolicy::kRetry;
  config.faults.seed = FaultSubstreamSeed(11);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_GT(a.retried_requests, 0);
  ExpectSameServeMetrics(a, b);
}

// --- backlog arming under churn ---
// With decode work queued, only the coalesced run that reaches a step
// boundary first is cut (the armed instance). Decode failures every second
// per instance with 0.2 s repairs keep taking the armed instance down and
// putting ready instances back: a recovering instance takes queued work at
// once, so a backlog can drain before the armed instance's boundary.

struct ArmingChurn {
  int prefill_instances;
  int max_prefill_batch;
  int decode_instances;
  double base_step_s;
};

void ExpectArmingUnderChurnMatchesReference(const ArmingChurn& churn, uint64_t seed) {
  WorkloadSpec spec;
  spec.arrival_rate_per_s = 14.0;
  spec.duration_s = 30.0;
  spec.median_prompt_tokens = 800;
  spec.prompt_sigma = 0.5;
  spec.median_output_tokens = 120;
  spec.output_sigma = 0.7;
  spec.seed = seed;
  auto requests = GenerateWorkload(spec);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].class_id = static_cast<int>(i % 2);
  }
  StepTimeTable table =
      TableOf([](int batch) { return 0.01 * std::sqrt(batch); },
              [base = churn.base_step_s](int batch) { return base + 5e-3 * batch; },
              churn.max_prefill_batch, 16);
  ServeClusterConfig config;
  config.prefill_instances = churn.prefill_instances;
  config.decode_instances = churn.decode_instances;
  config.horizon_s = spec.duration_s;
  config.num_classes = 2;
  config.faults.enabled = true;
  config.faults.decode_failure_rate_per_s = 1.0;
  config.faults.repair_s = 0.2;
  config.faults.retry_policy = FaultRetryPolicy::kRetry;
  config.faults.seed = FaultSubstreamSeed(seed);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_GT(a.retried_requests, 100);
  ExpectSameServeMetrics(a, b);
}

TEST(SimulatorFaults, ArmedInstanceFailureHandsTheBacklogOnLikeTheReference) {
  // Long steps (55-130 ms) on twelve decode instances fed by one prefill
  // instance: the armed instance waits long for its boundary, and failures
  // often kill it with work still queued. The run that reaches a boundary
  // next must take the backlog over.
  for (uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    ExpectArmingUnderChurnMatchesReference({1, 2, 12, 0.05}, seed);
  }
}

TEST(SimulatorFaults, FreshBacklogRearmsWhileAnEarlierArmIsPendingLikeTheReference) {
  // Four prefill instances land single requests often on sixteen decode
  // instances. When a recovery drains a backlog before the armed
  // instance's boundary, the next landing starts a fresh backlog while
  // that arm is still pending; the recovered instance and any run that
  // coalesced since may reach a boundary sooner, so arming must choose
  // again.
  for (uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    ExpectArmingUnderChurnMatchesReference({4, 1, 16, 0.001}, seed);
  }
}

TEST(SimulatorFaults, DroppedRunEndsTheMakespanAtItsLastFinishedStep) {
  // One request decoding alone is one coalesced run. A decode failure under
  // the drop policy kills it and nothing completes afterwards, so the
  // makespan is the end of the last step that finished before the failure
  // — a skipped step, replayed when the failure lands.
  StepTimeTable table = SimpleTable();
  std::vector<Request> requests = FixedRequests(1, 0.0, 4000);
  ServeClusterConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.horizon_s = 60.0;
  config.faults.enabled = true;
  config.faults.decode_failure_rate_per_s = 0.5;
  config.faults.repair_s = 1.0;
  config.faults.retry_policy = FaultRetryPolicy::kDrop;
  config.faults.seed = FaultSubstreamSeed(42);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  EXPECT_EQ(a.dropped_requests, 1);
  EXPECT_GT(a.makespan_s, table.PrefillTime(1) + table.DecodeStepTime(1));
  ExpectSameServeMetrics(a, b);
}

// --- the instance lifecycle on both pools ---
// Every instance, prefill or decode, runs one lifecycle: provision, fail
// (independent or as a domain member), recover through a spare or a
// repair, degrade and recover, drain and retire. Each cell below counts one
// (pool x transition) pair, read back from the fault and scale logs.

enum LifecycleCell {
  kIndependentFailure,
  kSpareMaskedFailure,
  kDomainOutage,
  kSpareReturned,
  kRepaired,
  kDegradeStarted,
  kDegradeEnded,
  kScaledUp,
  kRetired,
  kFailedWhileDraining,
  kRetiredDegraded,
  kNumLifecycleCells,
};

constexpr const char* kLifecycleCellNames[kNumLifecycleCells] = {
    "independent failure", "spare-masked failure", "domain outage",
    "spare return",        "repair",               "degrade start",
    "degrade end",         "scale-up",             "drain -> retire",
    "failed while draining", "retired with a degrade window open",
};

// A failure's recovery and a degrade window's end are always logged unless
// the instance retired first: retirement stales them. So a failure that no
// recovery follows is a draining instance that failed (and retired), and a
// window that no end or failure closes belongs to an instance that retired
// degraded. Instance indices are never reused, so the replay is exact.
std::array<std::array<int, kNumLifecycleCells>, 2> LifecycleCellCounts(const ServeMetrics& m) {
  std::array<std::array<int, kNumLifecycleCells>, 2> counts{};
  std::vector<uint8_t> down[2], degraded[2];
  for (const FaultEvent& e : m.fault_events) {
    const size_t p = static_cast<size_t>(e.pool);
    const size_t i = static_cast<size_t>(e.instance);
    if (down[p].size() <= i) {
      down[p].resize(i + 1, 0);
      degraded[p].resize(i + 1, 0);
    }
    switch (e.kind) {
      case FaultEventKind::kFailure:
        ++counts[p][e.domain >= 0 ? kDomainOutage : kIndependentFailure];
        down[p][i] = 1;
        degraded[p][i] = 0;
        break;
      case FaultEventKind::kSpareActivation:
        ++counts[p][kSpareMaskedFailure];
        down[p][i] = 0;
        break;
      case FaultEventKind::kRepair:
        ++counts[p][kRepaired];
        down[p][i] = 0;
        break;
      case FaultEventKind::kSpareReturn:
        ++counts[p][kSpareReturned];
        break;
      case FaultEventKind::kDegradeStart:
        ++counts[p][kDegradeStarted];
        degraded[p][i] = 1;
        break;
      case FaultEventKind::kDegradeEnd:
        ++counts[p][kDegradeEnded];
        degraded[p][i] = 0;
        break;
    }
  }
  for (const ScaleEvent& e : m.scale_events) {
    ++counts[static_cast<size_t>(e.pool)][e.delta > 0 ? kScaledUp : kRetired];
  }
  for (size_t p = 0; p < 2; ++p) {
    for (size_t i = 0; i < down[p].size(); ++i) {
      counts[p][kFailedWhileDraining] += down[p][i];
      counts[p][kRetiredDegraded] += degraded[p][i];
    }
  }
  return counts;
}

TEST(SimulatorFaults, EveryLifecycleTransitionOnBothPoolsMatchesReference) {
  // Ten-second bursts and lulls make the autoscaler grow and drain both
  // pools over and over. Passes of 2-4 s and decode runs of seconds keep
  // the drained instances busy long enough for churn-rate failures, domain
  // outages and 20 s degrade windows to land on them. One spare per pool
  // masks some failures; the rest wait out a repair.
  std::vector<Request> requests;
  for (double t = 0.0; t < 80.0;) {
    Request r;
    r.id = static_cast<int>(requests.size());
    r.arrival_s = t;
    r.prompt_tokens = 1000;
    r.output_tokens = 20 + (r.id * 37) % 200;
    requests.push_back(r);
    t += static_cast<int>(t / 10.0) % 2 == 0 ? 0.5 : 2.0;
  }
  StepTimeTable table = TableOf([](int batch) { return 2.0 * std::sqrt(batch); },
                                [](int batch) { return 0.05 + 5e-3 * batch; }, 4, 8);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 80.0;
  config.autoscaler.enabled = true;
  config.autoscaler.interval_s = 1.0;
  config.autoscaler.delay_s = 1.0;
  config.autoscaler.max_prefill_instances = 8;
  config.autoscaler.max_decode_instances = 8;
  config.autoscaler.scale_up_utilization = 0.95;
  config.autoscaler.scale_down_utilization = 0.7;
  config.autoscaler.prefill_tokens_per_s = 4 * 1000 / table.PrefillTime(4);
  config.autoscaler.decode_tokens_per_s = 8 / table.DecodeStepTime(8);
  config.faults.enabled = true;
  config.faults.prefill_failure_rate_per_s = 0.2;
  config.faults.decode_failure_rate_per_s = 0.2;
  config.faults.repair_s = 2.0;
  config.faults.spare_activation_s = 0.3;
  config.faults.prefill_spares = 1;
  config.faults.decode_spares = 1;
  config.faults.retry_policy = FaultRetryPolicy::kRetry;
  config.faults.domains.prefill_instances_per_domain = 2;
  config.faults.domains.decode_instances_per_domain = 2;
  config.faults.domains.failure_rate_per_s = 0.05;
  config.faults.domains.repair_s = 2.5;
  config.faults.degraded.prefill_rate_per_s = 0.2;
  config.faults.degraded.decode_rate_per_s = 0.2;
  config.faults.degraded.multiplier = 2.0;
  config.faults.degraded.mean_duration_s = 20.0;
  config.faults.seed = FaultSubstreamSeed(1);
  ServeMetrics a = RunServeSimulation(requests, config, table);
  ServeMetrics b = RunServeSimulationReference(requests, config, table);
  const auto counts = LifecycleCellCounts(a);
  for (ScalePool pool : {ScalePool::kPrefill, ScalePool::kDecode}) {
    for (int cell = 0; cell < kNumLifecycleCells; ++cell) {
      EXPECT_GT(counts[static_cast<size_t>(pool)][static_cast<size_t>(cell)], 0)
          << ToString(pool) << ": " << kLifecycleCellNames[cell];
    }
  }
  EXPECT_EQ(a.completed_requests, a.admitted_requests);
  ExpectSameServeMetrics(a, b);
}

// --- per-thread scratch reuse ---

// Every run on a thread reuses that thread's SimScratch: per-instance
// columns, class counts, retry budgets and the calendar queue. A run must
// not read what an earlier run of another shape left there. A large faulty,
// autoscaled, three-class point and a small plain one run back to back on
// one thread, in both orders, and so do the large point and a large one of
// another shape; each second run must equal the same run on a fresh thread
// and the reference engine.
TEST(SimulatorScratch, ReuseAcrossRunShapesMatchesAFreshThreadAndTheReference) {
  struct Point {
    std::vector<Request> requests;
    ServeClusterConfig config;
    StepTimeTable table;
  };
  // Bursts and lulls that grow and drain both pools, with churn-rate
  // failures, domain outages and degrade windows on every shape.
  auto faulty_autoscaled = [](int instances, int classes, int retry_budget, uint64_t seed) {
    Point p;
    for (double t = 0.0; t < 60.0;) {
      Request r;
      r.id = static_cast<int>(p.requests.size());
      r.arrival_s = t;
      r.prompt_tokens = 800;
      r.output_tokens = 20 + (r.id * 37) % 200;
      r.class_id = r.id % classes;
      p.requests.push_back(r);
      t += static_cast<int>(t / 10.0) % 2 == 0 ? 0.1 : 0.5;
    }
    p.table = TableOf([](int batch) { return 0.5 * std::sqrt(batch); },
                      [](int batch) { return 0.05 + 5e-3 * batch; }, 4, 16);
    ServeClusterConfig& c = p.config;
    c.prefill_instances = instances;
    c.decode_instances = instances;
    c.horizon_s = 60.0;
    c.num_classes = classes;
    c.autoscaler.enabled = true;
    c.autoscaler.interval_s = 1.0;
    c.autoscaler.delay_s = 1.0;
    c.autoscaler.max_prefill_instances = 12;
    c.autoscaler.max_decode_instances = 12;
    c.autoscaler.prefill_tokens_per_s = 4 * 800 / p.table.PrefillTime(4);
    c.autoscaler.decode_tokens_per_s = 16 / p.table.DecodeStepTime(16);
    c.faults = ChurnyFaults(FaultRetryPolicy::kRetryWithBudget);
    c.faults.retry_budget = retry_budget;
    c.faults.seed = FaultSubstreamSeed(seed);
    c.faults.domains.prefill_instances_per_domain = 2;
    c.faults.domains.decode_instances_per_domain = 2;
    c.faults.domains.failure_rate_per_s = 0.05;
    c.faults.domains.repair_s = 1.0;
    c.faults.degraded.prefill_rate_per_s = 0.2;
    c.faults.degraded.decode_rate_per_s = 0.2;
    c.faults.degraded.multiplier = 2.0;
    c.faults.degraded.mean_duration_s = 5.0;
    return p;
  };
  const Point large = faulty_autoscaled(2, 3, 1, 42);
  const Point other_large = faulty_autoscaled(3, 2, 2, 7);
  Point small;
  small.requests = FixedRequests(200, 0.02, 16);
  small.config.prefill_instances = 1;
  small.config.decode_instances = 1;
  small.config.horizon_s = 4.0;
  small.table = SimpleTable();

  auto run = [](const Point& p) { return RunServeSimulation(p.requests, p.config, p.table); };
  for (const Point* p : {&large, &other_large}) {
    ServeMetrics alone;
    std::thread([&] { alone = run(*p); }).join();
    EXPECT_GT(alone.peak_decode_instances, p->config.decode_instances);
    EXPECT_GT(alone.retried_requests, 0);
    EXPECT_GT(alone.dropped_requests, 0);
    EXPECT_GT(alone.degrade_windows, 0);
  }
  const std::pair<const Point*, const char*> firsts_and_seconds[][2] = {
      {{&large, "large"}, {&small, "small"}},
      {{&small, "small"}, {&large, "large"}},
      {{&large, "large"}, {&other_large, "other large"}},
  };
  for (const auto& order : firsts_and_seconds) {
    SCOPED_TRACE(std::string(order[0].second) + ", then " + order[1].second);
    const Point& first = *order[0].first;
    const Point& second = *order[1].first;
    ServeMetrics reused;
    std::thread([&] {
      run(first);
      reused = run(second);
    }).join();
    ServeMetrics fresh;
    std::thread([&] { fresh = run(second); }).join();
    ExpectSameServeMetrics(reused, fresh);
    ExpectSameServeMetrics(
        reused, RunServeSimulationReference(second.requests, second.config, second.table));
  }
}

TEST(SimulatorFaults, RerunsAreDeterministic) {
  auto requests = FixedRequests(200, 0.01);
  ServeClusterConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.horizon_s = 5.0;
  config.faults = ChurnyFaults(FaultRetryPolicy::kRetry);
  ServeMetrics a = RunServeSimulation(requests, config, SimpleTable());
  ServeMetrics b = RunServeSimulation(requests, config, SimpleTable());
  ASSERT_EQ(a.fault_events.size(), b.fault_events.size());
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  EXPECT_EQ(a.retried_requests, b.retried_requests);
}

}  // namespace
}  // namespace litegpu
