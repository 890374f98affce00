// The million-request serving core. Five structural changes over the
// reference implementation (simulator_reference.cc, kept for identity and
// speedup gates), none of which may change any metric:
//
//  * Calendar event queue (src/serve/event_queue.h) instead of a binary
//    heap. Pop order is the same fully-specified (time, kind, instance)
//    order by construction — buckets partition time, ties share a bucket
//    and are resolved by the full comparator. One full-batch decode step
//    over the pool seeds the first window's bucket width; the queue then
//    refits the width to the live event rate at every window rotation, so
//    an autoscaled pool that grows 50x keeps about one event per bucket.
//
//  * Structure-of-arrays hot state. Requests arrive as a RequestSoA
//    (column per field), per-instance state is split into a hot status
//    byte per instance (the scheduling scans test one byte) plus parallel
//    cold arrays, and all per-point scratch lives in a thread-local arena
//    reused across sweep points, so points stop churning the allocator.
//
//  * Ready-bit dispatch. Per-word ready bitmasks let the dispatch loops
//    visit only instances that can take work, and the decode scan stops at
//    an empty decode queue: after every event no ready decode instance
//    holds work, so only the instance whose step just finished can still
//    have a step to start (asserted in Debug builds).
//
//  * O(completions) decode bookkeeping. The reference decrements every
//    active sequence's remaining-token counter each step — O(batch) per
//    step, O(total tokens) per run, the dominant cost at 1M requests. A
//    sequence joining with R tokens left when its instance has completed S
//    steps finishes exactly when the step count reaches S + R, so a
//    per-instance min-heap of packed (finish_step, request) completions does
//    the same accounting in O(log batch) per request. Per-step metrics
//    (tokens emitted, per-class TBT) come from incrementally maintained
//    active counts — integer arithmetic, so the sums are bit-identical to
//    the reference's recomputation. Fault runs use the same heap and also
//    keep each instance's slot array in the reference's order, because a
//    failure requeues its victims in slot order: at a step with
//    completions, the finished slots' positions are visited in ascending
//    order, each taking the back slot until it holds an unfinished one —
//    the reference's swap-remove pass in O(completions * log).
//
//  * Decode-step coalescing. A step that starts with the decode queue
//    empty cannot change its instance's batch before the next completion,
//    so the instance pushes one event for the whole run, at the end of the
//    completing step, and replays the skipped steps' accounting lazily
//    (catch_up) when a failure, degrade transition or autoscaler tick
//    needs it. Queued decode work cuts one run only, the one that reaches
//    a step boundary first (backlog arming), and run-end times and the
//    replayed busy-time sums are fast-forwarded exactly (RepeatAdd). The
//    event loop costs O(completions + interruptions) instead of O(token
//    steps), and a backlog O(1) cuts instead of one per coalesced run.

#include "src/serve/simulator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/serve/arming.h"
#include "src/serve/autoscaler.h"
#include "src/serve/dary_heap.h"
#include "src/serve/event_queue.h"
#include "src/util/fp_repeat.h"

namespace litegpu {

namespace {

// Instance status bits, one byte per instance — the only state the
// scheduling scans read. An instance takes new work iff its byte has none
// of its pool's blocking bits set (InstancePool::blocked): any bit for
// prefill, kBusy|kDown|kInactive for decode, whose draining instances keep
// stepping the sequences they hold.
constexpr uint8_t kBusy = 1;      // prefill pass in flight / decode stepping
constexpr uint8_t kDraining = 2;  // autoscaler drain: finish, then retire
constexpr uint8_t kDown = 4;      // failed, awaiting spare/repair
constexpr uint8_t kInactive = 8;  // retired (indices stay stable)

constexpr ScalePool kPools[] = {ScalePool::kPrefill, ScalePool::kDecode};

// Pool p's field of a paired prefill_*/decode_* config or report field.
template <typename T>
T& PerPool(ScalePool p, T& prefill, T& decode) {
  return p == ScalePool::kPrefill ? prefill : decode;
}

// Every lifecycle event kind comes as a (prefill, decode) pair of adjacent
// kinds with the prefill kind at an even value, so the pool is the low bit.
constexpr ScalePool PoolOf(ServeEventKind kind) {
  return static_cast<ScalePool>(static_cast<int>(kind) & 1);
}
// Pool p's kind of the pair whose prefill kind is `prefill_kind`.
constexpr ServeEventKind KindOf(ServeEventKind prefill_kind, ScalePool p) {
  return static_cast<ServeEventKind>(static_cast<int>(prefill_kind) + static_cast<int>(p));
}
constexpr bool Paired(ServeEventKind prefill_kind, ServeEventKind decode_kind) {
  return PoolOf(prefill_kind) == ScalePool::kPrefill && PoolOf(decode_kind) == ScalePool::kDecode &&
         KindOf(prefill_kind, ScalePool::kDecode) == decode_kind;
}
static_assert(
    Paired(ServeEventKind::kPrefillDomainFail, ServeEventKind::kDecodeDomainFail) &&
        Paired(ServeEventKind::kPrefillFail, ServeEventKind::kDecodeFail) &&
        Paired(ServeEventKind::kPrefillDegradeStart, ServeEventKind::kDecodeDegradeStart) &&
        Paired(ServeEventKind::kPrefillDegradeEnd, ServeEventKind::kDecodeDegradeEnd) &&
        Paired(ServeEventKind::kPrefillUp, ServeEventKind::kDecodeUp) &&
        Paired(ServeEventKind::kPrefillRecover, ServeEventKind::kDecodeRecover) &&
        Paired(ServeEventKind::kPrefillSpareReturn, ServeEventKind::kDecodeSpareReturn),
    "PoolOf/KindOf need each lifecycle kind pair at (even, even + 1)");

// FIFO of request indices backed by a flat vector with a head cursor:
// push/pop are array writes, and the buffer compacts itself so memory stays
// O(live entries) on million-request horizons.
class IndexQueue {
 public:
  void Clear() {
    buf_.clear();
    head_ = 0;
  }
  bool empty() const { return head_ == buf_.size(); }
  size_t size() const { return buf_.size() - head_; }
  int front() const { return buf_[head_]; }
  void push_back(int v) { buf_.push_back(v); }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 4096 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<int> buf_;
  size_t head_ = 0;
};

// Calls f(i) for each set bit i of `words`, in ascending order, while
// more() holds. Each word is read when the scan reaches it, so bits that f
// sets or clears in a later word are seen, and those in the current word
// are not. Always inlined: GCC outlined the decode dispatch's copy, and
// `steady` read about 2% slower in interleaved pairs until it was inlined.
template <typename More, typename F>
[[gnu::always_inline]] inline void ForEachSetBit(const std::vector<uint64_t>& words, More more,
                                                 F f) {
  for (size_t w = 0; w < words.size() && more(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0 && more()) {
      f(static_cast<int>((w << 6) + static_cast<size_t>(__builtin_ctzll(bits))));
      bits &= bits - 1;
    }
  }
}

// Packed decode completion: (finish_step << request_bits) | request, with
// request_bits just wide enough for the run's request indices. finish_step
// is the instance step count at which the sequence emits its last token;
// the request index rides along for per-class accounting and, in fault
// runs, the slot-order replay. Plain uint64 ordering puts the earliest
// finish first (ties tie on request index, which is fine — all
// per-completion metric updates commute within a step).
int CompletionRequestBits(size_t num_requests) {
  return num_requests > 1 ? 64 - __builtin_clzll(static_cast<uint64_t>(num_requests - 1)) : 1;
}

// One active decode sequence in a fault run's slot array.
struct DecodeSlot {
  int request;
  uint64_t finish_step;
};

// One pool's instance lifecycle, the same for the prefill and decode pools:
// provision (Add), fail, recover through a spare or a repair, degrade,
// drain and retire. The columns are per instance (SoA): the hot status byte
// plus parallel cold arrays, indexed by a slot that retirement never frees.
// The scalars are the pool's per-run state and the domain size that Reset
// resolves once from the fault config; the fault rates and the autoscaler's
// limits are read where they are used, by FaultScheduler and Autoscaler.
struct InstancePool {
  std::vector<uint8_t> state;
  // Ready bitmask: bit i set iff instance i can take work (state[i] has
  // none of the `blocked` bits). The dispatch loops scan set bits instead
  // of walking every instance, turning the per-event cost from O(pool size)
  // into O(instances actually dispatched) — at a million arrivals against a
  // hundred-instance prefill pool that scan is the simulator's single
  // largest cost.
  std::vector<uint64_t> ready;
  // Live bitmask, the same shape: bit i set iff Live(i). LiveCount is a
  // popcount, not a scan of the pool — deadline shedding reads it on every
  // arrival.
  std::vector<uint64_t> live;
  std::vector<double> busy_time, up_time, down_time;
  // The pass (prefill) or step (decode) in flight: busy time claims its
  // whole duration at dispatch, and a failure refunds the unfinished part.
  std::vector<double> work_started, work_duration;
  std::vector<int> epoch;
  std::vector<uint8_t> via_spare;
  std::vector<const char*> drain_reason;
  // Degraded state: current step-time multiplier (1.0 = healthy) and the
  // time the open throttled window started (-1 = none).
  std::vector<double> degrade_mult, degrade_since;

  uint8_t blocked = 0;
  int active = 0;  // provisioned, including draining
  int spares_free = 0;
  int pending_ups = 0;
  std::deque<const char*> up_reasons;  // FIFO-matched to up events
  double prev_tick_busy = 0.0;         // total busy time at the last tick
  int instances_per_domain = 0;

  size_t size() const { return state.size(); }
  // Serving and not on its way out: counted by the autoscaler and shedding.
  bool Live(size_t i) const { return !(state[i] & (kInactive | kDraining | kDown)); }
  // An event stamped with epoch `ep` still applies to instance i: no
  // retirement and no failure since it was scheduled.
  bool Current(size_t i, int ep) const { return !(state[i] & kInactive) && ep == epoch[i]; }
  bool IsReady(size_t i) const { return (ready[i >> 6] >> (i & 63)) & 1; }
  // Refresh instance i's ready and live bits from its status byte. Called
  // after every status mutation; the dispatch loops and LiveCount trust the
  // bits completely.
  void SyncReady(size_t i) {
    const uint64_t bit = 1ull << (i & 63);
    if (state[i] & blocked) {
      ready[i >> 6] &= ~bit;
    } else {
      ready[i >> 6] |= bit;
    }
    if (Live(i)) {
      live[i >> 6] |= bit;
    } else {
      live[i >> 6] &= ~bit;
    }
  }
  int LiveCount() const {
    int count = 0;
    for (uint64_t word : live) {
      count += __builtin_popcountll(word);
    }
#ifndef NDEBUG
    int scanned = 0;
    for (size_t i = 0; i < size(); ++i) {
      scanned += Live(i);
    }
    assert(count == scanned && "live bitmask out of step with the status bytes");
#endif
    return count;
  }
  double TotalBusy() const {
    double busy = 0.0;
    for (double b : busy_time) {
      busy += b;
    }
    return busy;
  }

  void Add(double up) {
    const size_t i = size();
    if (ready.size() <= (i >> 6)) {
      ready.push_back(0);
      live.push_back(0);
    }
    ready[i >> 6] |= 1ull << (i & 63);
    live[i >> 6] |= 1ull << (i & 63);
    state.push_back(0);
    busy_time.push_back(0.0);
    up_time.push_back(up);
    down_time.push_back(-1.0);
    work_started.push_back(0.0);
    work_duration.push_back(0.0);
    epoch.push_back(0);
    via_spare.push_back(0);
    drain_reason.push_back("");
    degrade_mult.push_back(1.0);
    degrade_since.push_back(-1.0);
  }

  // Empties the pool and resolves pool p's scalars from the config.
  void Reset(ScalePool p, const ServeClusterConfig& config) {
    state.clear();
    ready.clear();
    live.clear();
    busy_time.clear();
    up_time.clear();
    down_time.clear();
    work_started.clear();
    work_duration.clear();
    epoch.clear();
    via_spare.clear();
    drain_reason.clear();
    degrade_mult.clear();
    degrade_since.clear();
    const ServeFaultConfig& faults = config.faults;
    blocked = p == ScalePool::kPrefill ? (kBusy | kDraining | kDown | kInactive)
                                       : (kBusy | kDown | kInactive);
    active = PerPool(p, config.prefill_instances, config.decode_instances);
    spares_free = PerPool(p, faults.prefill_spares, faults.decode_spares);
    pending_ups = 0;
    up_reasons.clear();
    prev_tick_busy = 0.0;
    instances_per_domain = PerPool(p, faults.domains.prefill_instances_per_domain,
                                   faults.domains.decode_instances_per_domain);
  }
};

// Per-point scratch, reused across runs on the same thread so sweep points
// and shards stop churning the allocator: vectors are cleared, not freed.
struct SimScratch {
  CalendarEventQueue events;
  IndexQueue prefill_queue;
  IndexQueue decode_queue;
  InstancePool pools[2];

  // Prefill only: the request indices of each instance's pass in flight.
  std::vector<std::vector<int>> p_batch;

  // Decode only.
  std::vector<double> d_batch_time_product;
  // Completion min-heaps + incremental counts: O(log batch) per request
  // instead of O(batch) per step. Four children per node: a full batch of
  // 282 is ~4 levels deep instead of a binary heap's ~8 (dary_heap.h).
  std::vector<uint64_t> d_step_count;
  std::vector<int> d_active_count;
  std::vector<DaryMinHeap> d_heap;
  size_t d_heap_capacity = 0;  // max decode batch: a heap never outgrows it
  std::vector<int> class_active;  // [instance * num_classes + class]
  // Step token: bumped whenever a step-done event is pushed or a failure
  // kills the step in flight, so a popped event is live iff its token
  // matches. Separate from the lifecycle epoch, which also guards pending
  // failure and degrade events and must not move when a coalesced run is
  // cut.
  std::vector<uint32_t> d_step_token;
  // Decode-step coalescing: a bit in d_coalesced marks an instance whose
  // live step-done event stands for a run of steps; for such a run, the
  // skipped steps catch_up has not replayed yet and the time of the run's
  // final (real) step.
  std::vector<uint64_t> d_run_left;
  std::vector<double> d_run_end;
  std::vector<uint64_t> d_coalesced;
  // Backlog arming's cursor into a coalesced run: a step start (and the
  // skipped steps left after it) no later than the run's next boundary at
  // the last arming that searched it exactly. The next search walks on from
  // it, and so does catch_up while it is ahead of work_started: the steps
  // before it ended before an earlier `now`.
  std::vector<double> d_probe_started;
  std::vector<uint64_t> d_probe_left;
  // Arming scratch: the runs that could admit queued work, and their
  // windows' lower ends (ChooseArmed).
  std::vector<int> arm_candidates;
  std::vector<double> arm_window_lo;
  // Fault runs only: the slot array in the reference engine's order (its
  // swap-remove permutation fixes the requeue order of a killed batch),
  // each request's position in it, and scratch for the replay.
  std::vector<std::vector<DecodeSlot>> d_slots;
  std::vector<int> slot_pos;
  std::vector<int> finished_pos;

  std::vector<uint8_t> ttft_recorded;
  std::vector<int> retry_counts;

  InstancePool& Pool(ScalePool p) { return pools[static_cast<size_t>(p)]; }

  // Provisions one instance of pool p, up since `up_time`.
  void Add(ScalePool p, double up_time, int num_classes) {
    Pool(p).Add(up_time);
    const size_t n = Pool(p).size();
    if (p == ScalePool::kPrefill) {
      if (p_batch.size() < n) {
        p_batch.emplace_back();
      }
      return;
    }
    const size_t i = n - 1;
    d_batch_time_product.push_back(0.0);
    d_step_count.push_back(0);
    d_active_count.push_back(0);
    d_step_token.push_back(0);
    d_run_left.push_back(0);
    d_run_end.push_back(0.0);
    d_probe_started.push_back(0.0);
    d_probe_left.push_back(0);
    if (d_coalesced.size() <= (i >> 6)) {
      d_coalesced.push_back(0);
    }
    if (d_heap.size() < n) {
      d_heap.emplace_back();
      d_slots.emplace_back();
    }
    d_heap[i].reserve(d_heap_capacity);
    if (num_classes > 0) {
      class_active.resize(n * static_cast<size_t>(num_classes), 0);
    }
  }

  void Reset(const ServeClusterConfig& config, int max_decode_batch, double bucket_width) {
    events.Reset(bucket_width);
    d_heap_capacity = static_cast<size_t>(std::max(0, max_decode_batch));
    prefill_queue.Clear();
    decode_queue.Clear();
    for (ScalePool p : kPools) {
      Pool(p).Reset(p, config);
    }
    // Nested per-instance vectors keep their slots (and inner capacity);
    // only the entries a previous larger run left behind are dropped.
    p_batch.resize(static_cast<size_t>(config.prefill_instances));
    for (auto& b : p_batch) {
      b.clear();
    }
    d_batch_time_product.clear();
    d_step_count.clear();
    d_active_count.clear();
    d_heap.resize(static_cast<size_t>(config.decode_instances));
    d_slots.resize(static_cast<size_t>(config.decode_instances));
    for (size_t i = 0; i < d_heap.size(); ++i) {
      d_heap[i].clear();
      d_slots[i].clear();
    }
    class_active.clear();
    d_step_token.clear();
    d_run_left.clear();
    d_run_end.clear();
    d_probe_started.clear();
    d_probe_left.clear();
    d_coalesced.clear();
    slot_pos.clear();
    finished_pos.clear();
    ttft_recorded.clear();
    retry_counts.clear();
    for (ScalePool p : kPools) {
      for (int i = 0; i < PerPool(p, config.prefill_instances, config.decode_instances); ++i) {
        Add(p, 0.0, config.num_classes);
      }
    }
  }
};

// A completion at or behind its instance's step count can never fire: it
// would hold its batch slot forever, and a coalesced run up to it would
// wrap to ~2^64 steps. Only a misordered completion heap gets there, so the
// run fails loudly instead of spinning.
[[noreturn]] __attribute__((noinline, cold)) void ThrowStaleCompletion(int instance,
                                                                     uint64_t finish_step,
                                                                     uint64_t step_count) {
  throw std::logic_error("decode instance " + std::to_string(instance) +
                         ": next completion at step " + std::to_string(finish_step) +
                         " is not after its step count " + std::to_string(step_count));
}

// The calling thread's scratch, reset for a run of `config` on `table`.
SimScratch& ResetTlsScratch(const ServeClusterConfig& config, const StepTimeTable& table) {
  static thread_local SimScratch scratch;
  // Seeds the calendar queue's first-window bucket width near the typical
  // inter-event gap (later windows refit it to the observed rate) — a pure
  // performance hint, pop order never depends on it. Decode step
  // completions dominate the event stream; with every instance busy their
  // spacing is about one step over the pool.
  const double hint_width = table.DecodeStepTime(table.max_decode_batch()) /
                            static_cast<double>(std::max(1, config.decode_instances));
  scratch.Reset(config, table.max_decode_batch(), hint_width);
  return scratch;
}

// Shapes an empty ServeMetrics for `config`: one slot per class, and armed
// TTFT histograms when it streams TTFT. Engine runs and shard merges both
// start here, so a shard and its merge share histogram bins.
void ShapeMetrics(const ServeClusterConfig& config, ServeMetrics& m) {
  m.ttft_streamed = config.stream_ttft;
  if (m.ttft_streamed) {
    m.ttft_hist = LatencyHistogram(config.ttft_hist_hi_s);
  }
  m.per_class.resize(static_cast<size_t>(std::max(0, config.num_classes)));
  for (ServeClassMetrics& pc : m.per_class) {
    if (m.ttft_streamed) {
      pc.ttft_hist = LatencyHistogram(config.ttft_hist_hi_s);
    }
  }
}

// Tokens/s, utilizations and time-weighted mean decode batch of a fixed
// pool of `config`'s size over [0, makespan_s] (> 0), from the summed
// aggregates in `m`. A fixed-pool run and a shard merge both end here.
void SetFixedPoolRatios(const ServeClusterConfig& config, ServeMetrics& m) {
  m.decode_tokens_per_s = m.output_tokens / m.makespan_s;
  m.prefill_utilization = m.prefill_busy_s / (config.prefill_instances * m.makespan_s);
  m.decode_utilization = m.decode_busy_s / (config.decode_instances * m.makespan_s);
  m.mean_decode_batch =
      m.decode_busy_s > 0.0 ? m.decode_batch_time_product / m.decode_busy_s : 0.0;
}

// Fault scheduling: each (pool, slot)'s failure and degrade streams and each
// failure domain's outage stream (FaultStreams), each pushing its next event
// while that falls inside the admission horizon. The drain tail past the
// horizon runs fault-free, which also bounds the event stream.
struct FaultScheduler {
  const ServeClusterConfig& config;
  SimScratch& S;
  FaultStreams streams;
  int domains_scheduled[2] = {0, 0};

  void NextFailure(ScalePool p, int slot, double from_t, int epoch) {
    const ServeFaultConfig& f = config.faults;
    const double rate = PerPool(p, f.prefill_failure_rate_per_s, f.decode_failure_rate_per_s);
    if (rate > 0.0) {
      Push({from_t + streams.NextFailureGap(p, slot, rate),
            KindOf(ServeEventKind::kPrefillFail, p), slot, epoch});
    }
  }
  // Domain outage streams: one per failure domain, keyed by (seed, pool,
  // domain). Domains are discovered as the pool grows — domain d covers
  // instances [d*ipd, (d+1)*ipd) — and each domain's gap sequence depends
  // only on its id, never on when its first member appeared.
  void NextDomainFailure(ScalePool p, int domain, double from_t) {
    const double rate = config.faults.domains.failure_rate_per_s;
    Push({from_t + streams.NextDomainFailureGap(p, domain, rate),
          KindOf(ServeEventKind::kPrefillDomainFail, p), domain});
  }
  // Degrade streams: per (pool, slot) like failures; a failure clears the
  // degraded state (epoch bump stales the pending end event) and the
  // recovery reschedules the slot's stream. The stream yields gap, duration,
  // gap, duration, ... in event order, so every draw happens at a
  // deterministic simulated time regardless of thread count.
  void NextDegrade(ScalePool p, int slot, double from_t, int epoch) {
    const DegradedStateConfig& d = config.faults.degraded;
    const double rate = PerPool(p, d.prefill_rate_per_s, d.decode_rate_per_s);
    if (rate > 0.0) {
      Push({from_t + streams.NextDegradeGap(p, slot, rate),
            KindOf(ServeEventKind::kPrefillDegradeStart, p), slot, epoch});
    }
  }

  // Starts the streams of pool p's newly provisioned `slot`, and of any
  // domain it opens. As in the reference engine, slots provisioned at the
  // start draw degrade windows only when the degraded state is enabled
  // (`degrade`), and scale-ups and recoveries whenever the pool's degrade
  // rate is positive.
  void Provision(ScalePool p, int slot, double t, bool degrade) {
    NextFailure(p, slot, t, 0);
    const int ipd = S.Pool(p).instances_per_domain;
    if (config.faults.domains.enabled() && ipd > 0) {
      int& scheduled = domains_scheduled[static_cast<size_t>(p)];
      while (scheduled < (static_cast<int>(S.Pool(p).size()) + ipd - 1) / ipd) {
        NextDomainFailure(p, scheduled++, t);
      }
    }
    if (degrade) {
      NextDegrade(p, slot, t, 0);
    }
  }
  void Push(const ServeEvent& e) {
    if (e.time_s <= config.horizon_s) {
      S.events.Push(e);
    }
  }
};

// One serving run over one request stream: the run's state, one handler per
// event kind (On...), and the end-of-run integrals (Finish). Per-instance
// state lives in the calling thread's SimScratch; the engine holds the
// per-run scalars and references into it. The autoscaler and fault
// scheduling, whose state nothing else reads, are their own types.
class ServeEngine {
 public:
  ServeEngine(const RequestSoA& requests, const ServeClusterConfig& config,
               const StepTimeTable& table)
      : requests(requests), config(config), table(table) {
    ShapeMetrics(config, metrics);
    if (config.autoscaler.enabled) {
      metrics.peak_prefill_instances = P.active;
      metrics.peak_decode_instances = D.active;
      events.Push({config.autoscaler.interval_s, ServeEventKind::kAutoscaleTick,
                   autoscaler.tick_seq++});
    }
    if (faults_enabled) {
      for (ScalePool p : kPools) {
        for (int i = 0; i < static_cast<int>(S.Pool(p).size()); ++i) {
          faults.Provision(p, i, 0.0, degrade_enabled);
        }
      }
      S.ttft_recorded.assign(nreq, 0);
      S.slot_pos.assign(nreq, 0);
    }
    if (!stream_ttft) {
      // Every admitted request records exactly one TTFT sample; reserving
      // up front spares a million-request run the repeated reallocation
      // copies.
      metrics.ttft_s.Reserve(nreq);
    }
  }

  // Processes arrivals and events in order until none is left.
  void Run() {
    for (;;) {
#ifndef NDEBUG
      // Arming invariant, after every event: with decode work queued, no
      // coalesced run that could admit it reaches a boundary, by (time,
      // index), before the armed instance's live step ends. Arming cut that
      // run, so its live event ends the step in flight. The check searches
      // copies of the cursors, so Debug builds move them as Release does.
      if (coalesced_count > 0 && !decode_queue.empty()) {
        for_each_coalesced([&](int i) {
          if (can_admit(i)) {
            assert(armed >= 0 && "decode work is queued but no run is armed");
            double armed_end = D.work_started[armed] + D.work_duration[armed];
            double started = S.d_probe_started[i];
            uint64_t left = S.d_probe_left[i];
            double boundary = AdvanceToNextBoundary(started, left, D.work_duration[i], now);
            assert((armed_end < boundary || (armed_end == boundary && armed < i)) &&
                   "a coalesced run reaches a step boundary before the armed instance");
          }
        });
      }
#endif
      // First instant both queues are empty after the largest outage: the
      // check runs at the top of every iteration (after the previous item
      // fully processed), gated on drain_pending so fault-free runs never
      // pay it.
      if (drain_pending && prefill_queue.empty() && decode_queue.empty()) {
        metrics.time_to_drain_s = now - metrics.largest_outage_time_s;
        drain_pending = false;
      }
      double arrival_t = next_arrival < nreq ? requests.arrival_s[next_arrival]
                                             : std::numeric_limits<double>::max();
      double event_t =
          events.empty() ? std::numeric_limits<double>::max() : events.PeekTime();
      if (arrival_t == std::numeric_limits<double>::max() &&
          event_t == std::numeric_limits<double>::max()) {
        return;
      }
      if (arrival_t <= event_t) {
        OnArrival(arrival_t);
        continue;
      }
      const ServeEvent event = events.Pop();
      now = event.time_s;
      // Hot kinds first: completions are the vast majority of a long
      // horizon's stream, so their dispatch pays at most two compares. The
      // test order is pure branch economy — each pop matches exactly one
      // kind, so it cannot affect processing order.
      if (event.kind == ServeEventKind::kDecodeStepDone) {
        OnDecodeStepDone(event.instance, event.epoch);
      } else if (event.kind == ServeEventKind::kPrefillDone) {
        OnPrefillDone(event.instance, event.epoch);
      } else if (event.kind == ServeEventKind::kAutoscaleTick) {
        OnAutoscaleTick();
      } else {
        // The instance lifecycle, one handler per (prefill, decode) kind
        // pair, switched on the pair's prefill kind.
        const ScalePool p = PoolOf(event.kind);
        InstancePool& pool = S.Pool(p);
        switch (static_cast<ServeEventKind>(static_cast<int>(event.kind) - static_cast<int>(p))) {
          case ServeEventKind::kPrefillFail:
            OnFail(p, pool, event.instance, event.epoch);
            break;
          case ServeEventKind::kPrefillDomainFail:
            OnDomainFail(p, pool, event.instance);
            break;
          case ServeEventKind::kPrefillDegradeStart:
            OnDegradeStart(p, pool, event.instance, event.epoch);
            break;
          case ServeEventKind::kPrefillDegradeEnd:
            OnDegradeEnd(p, pool, event.instance, event.epoch);
            break;
          case ServeEventKind::kPrefillRecover:
            OnRecover(p, pool, event.instance, event.epoch);
            break;
          case ServeEventKind::kPrefillSpareReturn:
            OnSpareReturn(p, pool, event.instance);
            break;
          case ServeEventKind::kPrefillUp:
            OnUp(p, pool);
            break;
          default:
            assert(false && "unhandled serve event kind");
        }
      }
    }
  }

  // The end-of-run integrals over [0, makespan]: rates, utilizations,
  // instance-seconds, fault downtime and degraded time.
  ServeMetrics Finish() {
    assert(coalesced_count == 0 && "a coalesced run outlived the event loop");
    metrics.makespan_s = std::max(metrics.makespan_s, progress_now);
    metrics.peak_demand_entries = autoscaler.peak_demand_entries;
    const double makespan = metrics.makespan_s;
    if (makespan > 0.0) {
      for (ScalePool p : kPools) {
        PerPool(p, metrics.prefill_busy_s, metrics.decode_busy_s) = S.Pool(p).TotalBusy();
      }
      for (double b : S.d_batch_time_product) {
        metrics.decode_batch_time_product += b;
      }
      SetFixedPoolRatios(config, metrics);
      // Provisioned instance-seconds over [0, makespan]: each instance
      // contributes its up..down (or up..end) lifetime, clamped so retires
      // recorded by trailing decision ticks don't overrun the makespan.
      // Fault runs fill these even with a fixed pool, so measured
      // availability has its 1 - downtime / provisioned denominator; the
      // utilization over them replaces the fixed pool's.
      for (ScalePool p : kPools) {
        const InstancePool& pool = S.Pool(p);
        if (config.autoscaler.enabled || faults_enabled) {
          double& instance_s =
              PerPool(p, metrics.prefill_instance_seconds, metrics.decode_instance_seconds);
          for (size_t i = 0; i < pool.size(); ++i) {
            double end =
                pool.down_time[i] >= 0.0 ? std::min(pool.down_time[i], makespan) : makespan;
            instance_s += std::max(0.0, end - pool.up_time[i]);
          }
          const double busy = PerPool(p, metrics.prefill_busy_s, metrics.decode_busy_s);
          PerPool(p, metrics.prefill_utilization, metrics.decode_utilization) =
              instance_s > 0.0 ? busy / instance_s : 0.0;
          PerPool(p, metrics.final_prefill_instances, metrics.final_decode_instances) =
              pool.active;
        }
      }
      if (faults_enabled) {
        // Per-pool downtime over [0, makespan], replayed from the event log:
        // each failure opens an interval its spare-activation/repair closes.
        // An interval left open by a retired-while-draining instance (no
        // recovery was scheduled) contributes nothing — the retirement is
        // already accounted in the instance-seconds integral.
        std::vector<double> down_since[2] = {std::vector<double>(P.size(), -1.0),
                                             std::vector<double>(D.size(), -1.0)};
        for (const FaultEvent& e : metrics.fault_events) {
          double& since =
              down_since[static_cast<size_t>(e.pool)][static_cast<size_t>(e.instance)];
          if (e.kind == FaultEventKind::kFailure) {
            since = e.time_s;
          } else if (e.kind == FaultEventKind::kSpareActivation ||
                     e.kind == FaultEventKind::kRepair) {
            PerPool(e.pool, metrics.prefill_fault_downtime_s, metrics.decode_fault_downtime_s) +=
                std::min(e.time_s, makespan) - std::min(since, makespan);
            since = -1.0;
          }
        }
        for (ScalePool p : kPools) {
          const std::vector<double>& since = down_since[static_cast<size_t>(p)];
          for (size_t i = 0; i < since.size(); ++i) {
            if (since[i] >= 0.0 && !(S.Pool(p).state[i] & kInactive)) {
              PerPool(p, metrics.prefill_fault_downtime_s, metrics.decode_fault_downtime_s) +=
                  makespan - std::min(since[i], makespan);
            }
          }
        }
      }
    }
    if (degrade_enabled) {
      // Close windows still open at the end of the run, clipped to makespan.
      for (ScalePool p : kPools) {
        const InstancePool& pool = S.Pool(p);
        for (size_t i = 0; i < pool.size(); ++i) {
          if (pool.degrade_since[i] >= 0.0) {
            PerPool(p, metrics.prefill_degraded_instance_s, metrics.decode_degraded_instance_s) +=
                std::max(0.0, makespan - pool.degrade_since[i]);
          }
        }
      }
    }
    if (drain_pending) {
      // The queues never emptied again after the largest outage: the drain
      // took the rest of the run.
      metrics.time_to_drain_s =
          std::max(0.0, metrics.makespan_s - metrics.largest_outage_time_s);
    }
    return std::move(metrics);
  }

 private:
  const RequestSoA& requests;
  const ServeClusterConfig& config;
  const StepTimeTable& table;
  const size_t nreq = requests.size();
  const int request_bits = CompletionRequestBits(nreq);
  const uint64_t request_mask = (1ULL << request_bits) - 1;
  const bool faults_enabled = config.faults.enabled;
  // Fault runs also keep each decode instance's slot order: the requeue
  // order of a killed batch is the slot order, which earlier swap-removes
  // permuted.
  const bool track_slots = faults_enabled;
  const bool stream_ttft = config.stream_ttft;
  // The three robustness axes (all dormant by default): correlated failure
  // domains and degraded states ride on the fault engine; shedding guards
  // the admission door and works with or without faults.
  const bool degrade_enabled = faults_enabled && config.faults.degraded.enabled();
  const SheddingPolicy& shedding = config.shedding;
  const bool shed_enabled = shedding.enabled();
  // Full-batch prefill pass time for the TTFT-deadline estimate.
  const double shed_pass_s = table.PrefillTime(table.max_prefill_batch());
  const int max_decode_batch = table.max_decode_batch();
  // Per-class bookkeeping only exists when the caller asked for it, so
  // single-class runs pay nothing and stay bit-identical to the pre-class
  // simulator. Out-of-range class ids fold into class 0 rather than
  // indexing out of bounds (the Runner validates them upstream).
  const bool track_classes = config.num_classes > 0;
  const size_t ncls = track_classes ? static_cast<size_t>(config.num_classes) : 0;
  // Incrementally maintained queued-token totals, read by autoscaler
  // ticks. Token counts are integers, so the running sums stay exactly
  // integer-valued in double and equal the reference's per-tick
  // re-summation bit for bit.
  const bool track_qsums = config.autoscaler.enabled;

  // Declared, and so allocated, in this order: the metrics' histograms,
  // the scratch reset, the demand window, and (in the constructor) the
  // per-class slots. With the two 128 KB TBT histograms allocated back to
  // back, glibc trimmed them from the heap top when a run freed them and the
  // next run faulted them back in: 3x the page faults on many short runs.
  ServeMetrics metrics;
  SimScratch& S = ResetTlsScratch(config, table);
  InstancePool& P = S.Pool(ScalePool::kPrefill);
  InstancePool& D = S.Pool(ScalePool::kDecode);
  CalendarEventQueue& events = S.events;
  IndexQueue& prefill_queue = S.prefill_queue;
  IndexQueue& decode_queue = S.decode_queue;
  Autoscaler autoscaler{config.autoscaler};
  FaultScheduler faults{config, S, FaultStreams(config.faults.seed)};

  size_t next_arrival = 0;
  double now = 0.0;
  // Workload progress time: arrivals and completions, NOT autoscaler
  // ticks/ups — the final makespan must not stretch to a trailing decision
  // tick that did no work.
  double progress_now = 0.0;
  double queued_prompt_tokens = 0.0;
  double queued_output_tokens = 0.0;
  // Recovery tracking: the largest single failure group (one independent
  // failure or one domain outage's members) by discarded tokens; the loop
  // then watches for the first instant both queues are empty again.
  bool drain_pending = false;
  // Coalesced runs (see "decode-step coalescing" below) and the armed one.
  int coalesced_count = 0;
  int armed = -1;

  int class_of(int req) const {
    int cid = requests.class_id[static_cast<size_t>(req)];
    return (cid >= 0 && cid < config.num_classes) ? cid : 0;
  }
  void record_ttft(int req, double value) {
    if (stream_ttft) {
      metrics.ttft_hist.Add(value);
    } else {
      metrics.ttft_s.Add(value);
    }
    if (track_classes) {
      ServeClassMetrics& pc = metrics.per_class[static_cast<size_t>(class_of(req))];
      if (stream_ttft) {
        pc.ttft_hist.Add(value);
      } else {
        pc.ttft_s.Add(value);
      }
    }
  }

  // Close an instance's open throttled window (degrade end, failure, or
  // retirement), banking the degraded instance-seconds.
  void close_degrade(ScalePool p, int i) {
    InstancePool& pool = S.Pool(p);
    if (pool.degrade_since[i] >= 0.0) {
      PerPool(p, metrics.prefill_degraded_instance_s, metrics.decode_degraded_instance_s) +=
          now - pool.degrade_since[i];
      pool.degrade_since[i] = -1.0;
      pool.degrade_mult[i] = 1.0;
    }
  }

  void note_outage(double lost) {
    if (lost > metrics.largest_outage_lost_tokens) {
      metrics.largest_outage_lost_tokens = lost;
      metrics.largest_outage_time_s = now;
      metrics.time_to_drain_s = -1.0;
      drain_pending = true;
    }
  }

  // An arrival at t: admitted, or shed by the admission door.
  void OnArrival(double t) {
    now = t;
    progress_now = now;
    if (now <= config.horizon_s) {
      // Admission control: a shed request reached the cluster (it counts
      // as admitted, globally and per class) but never enters the prefill
      // queue, so admitted = completed + dropped + shed once the run
      // drains.
      bool shed = false;
      ShedReason shed_reason = ShedReason::kQueueDepth;
      if (shed_enabled) {
        if (shedding.max_queue_depth > 0 &&
            static_cast<int>(prefill_queue.size()) >= shedding.max_queue_depth) {
          shed = true;
        } else if (shedding.ttft_deadline_s > 0.0) {
          const int live = P.LiveCount();
          if (live == 0) {
            shed = true;
            shed_reason = ShedReason::kDeadline;
          } else {
            double waves = std::ceil((static_cast<double>(prefill_queue.size()) + 1.0) /
                                     (static_cast<double>(table.max_prefill_batch()) * live));
            if (waves * shed_pass_s > shedding.ttft_deadline_s) {
              shed = true;
              shed_reason = ShedReason::kDeadline;
            }
          }
        }
      }
      ++metrics.admitted_requests;
      if (track_classes) {
        ++metrics.per_class[static_cast<size_t>(class_of(static_cast<int>(next_arrival)))]
              .admitted_requests;
      }
      if (shed) {
        ++metrics.shed_requests;
        metrics.shed_events.push_back({now, static_cast<int>(next_arrival), shed_reason});
      } else {
        prefill_queue.push_back(static_cast<int>(next_arrival));
        if (track_qsums) {
          queued_prompt_tokens += requests.prompt_tokens[next_arrival];
        }
        autoscaler.Admit(now, requests.prompt_tokens[next_arrival],
                         requests.output_tokens[next_arrival], requests.class_id[next_arrival]);
      }
    }
    ++next_arrival;
    try_start_prefill(now);
  }

  void try_start_prefill(double t) {
    // Set bits scan in ascending instance order — the same order the plain
    // index loop dispatched in. Instances with a nonzero status byte have
    // no side effects in that loop, so skipping them is behavior-identical.
    ForEachSetBit(P.ready, [&] { return !prefill_queue.empty(); }, [&](int i) {
      int batch = std::min<int>(table.max_prefill_batch(),
                                static_cast<int>(prefill_queue.size()));
      std::vector<int>& slots = S.p_batch[static_cast<size_t>(i)];
      slots.clear();
      for (int b = 0; b < batch; ++b) {
        int req = prefill_queue.front();
        prefill_queue.pop_front();
        slots.push_back(req);
        if (track_qsums) {
          queued_prompt_tokens -= requests.prompt_tokens[static_cast<size_t>(req)];
        }
      }
      double duration = table.PrefillTime(batch);
      if (degrade_enabled) {
        // Applied on dispatch only: in-flight passes keep the duration
        // they started with, so busy-time refunds stay exact.
        duration *= P.degrade_mult[i];
      }
      P.state[i] |= kBusy;
      P.SyncReady(i);
      P.busy_time[i] += duration;
      P.work_started[i] = t;
      P.work_duration[i] = duration;
      events.Push({t + duration, ServeEventKind::kPrefillDone, i, P.epoch[i]});
    });
  }

  // A prefill pass done: its requests record TTFT and queue for decode.
  void OnPrefillDone(int i, int epoch) {
    if (faults_enabled && epoch != P.epoch[i]) {
      return;  // the pass was killed by a failure before it finished
    }
    progress_now = now;
    const bool fresh_backlog = decode_queue.empty();
    std::vector<int>& slots = S.p_batch[static_cast<size_t>(i)];
    for (int req : slots) {
      // A retried request's first token was delivered by its first
      // successful prefill; later re-prefills don't re-record TTFT.
      if (!faults_enabled || !S.ttft_recorded[static_cast<size_t>(req)]) {
        record_ttft(req, now - requests.arrival_s[static_cast<size_t>(req)]);
        if (faults_enabled) {
          S.ttft_recorded[static_cast<size_t>(req)] = 1;
        }
      }
      decode_queue.push_back(req);
      if (track_qsums) {
        queued_output_tokens += requests.output_tokens[static_cast<size_t>(req)];
      }
    }
    slots.clear();
    P.state[i] &= static_cast<uint8_t>(~kBusy);
    P.SyncReady(i);
    if (P.state[i] & kDraining) {
      retire(ScalePool::kPrefill, i, P.drain_reason[i]);
    }
    try_start_prefill(now);
    try_start_decode_step(now, -1);
    if (fresh_backlog) {
      arm();  // a no-op unless work is left queued
    }
  }

  // --- decode-step coalescing ---
  // A step that starts with the decode queue empty cannot see its batch
  // change before the instance's next completion: admission needs queued
  // work, and the only other changes (failure, degrade transition) are
  // events of their own. So the instance pushes one step-done event for the
  // whole run, at the end of the step that completes something, and
  // catch_up replays the skipped steps' accounting when something needs it:
  // queued work (the armed run is cut at its next boundary, see backlog
  // arming below), a failure or degrade transition on the instance, or an
  // autoscaler tick (which reads busy time). Events that sort before
  // kDecodeStepDone at time T see only the steps ending strictly before T;
  // later kinds see those ending at T too.
  bool is_coalesced(int i) const {
    return (S.d_coalesced[static_cast<size_t>(i) >> 6] >> (static_cast<unsigned>(i) & 63)) & 1;
  }
  void clear_coalesced(int i) {
    S.d_coalesced[static_cast<size_t>(i) >> 6] &= ~(1ull << (static_cast<unsigned>(i) & 63));
    --coalesced_count;
  }

  // The new step-done event replaces (stales) any pending one.
  void push_step_done(int i, double t) {
    events.Push({t, ServeEventKind::kDecodeStepDone, i, static_cast<int>(++S.d_step_token[i])});
  }

  // Token and TBT accounting for k completed steps of instance i's current
  // batch. Token counts are integers, so one b*k add equals k adds of b.
  void account_steps(int i, size_t k) {
    const double duration = D.work_duration[i];
    const double tokens = static_cast<double>(S.d_active_count[i]) * static_cast<double>(k);
    metrics.tbt_s.Add(duration, k);
    metrics.output_tokens += tokens;
    if (degrade_enabled && D.degrade_since[i] >= 0.0) {
      metrics.degraded_output_tokens += tokens;
    }
    if (track_classes) {
      // Each active sequence of a class experienced each step's duration
      // as one inter-token gap: one weighted histogram add per class.
      const int* active = &S.class_active[static_cast<size_t>(i) * ncls];
      for (size_t c = 0; c < ncls; ++c) {
        if (active[c] > 0) {
          size_t n = static_cast<size_t>(active[c]) * k;
          metrics.per_class[c].tbt_s.Add(duration, n);
          metrics.per_class[c].output_tokens += static_cast<double>(n);
        }
      }
    }
  }

  // Replays the skipped steps of instance i's coalesced run that end before
  // t (or at t, if `inclusive`): each completes, then the next one starts.
  // Busy time and the batch-time product get exactly the bits their adds,
  // one per step in step order, gave under the per-step events (RepeatAdd).
  // Never consumes the run's final step, which its live event accounts.
  void catch_up(int i, double t, bool inclusive) {
    const double duration = D.work_duration[i];
    // Arming's cursor, when ahead, skips steps already known to be done.
    const bool from_cursor = S.d_probe_left[i] < S.d_run_left[i];
    const uint64_t from_left = from_cursor ? S.d_probe_left[i] : S.d_run_left[i];
    const StepsBefore after =
        CountStepsBefore(from_cursor ? S.d_probe_started[i] : D.work_started[i], duration,
                         from_left, t, inclusive);
    const uint64_t left = from_left - after.count;
    const uint64_t count = S.d_run_left[i] - left;
    assert((left > 0 || after.end + duration == S.d_run_end[i]) &&
           "catch_up disagrees with the coalesced run's final step time");
    if (count == 0) {
      return;
    }
    const double batch = static_cast<double>(S.d_active_count[i]);
    account_steps(i, count);
    S.d_step_count[i] += count;
    D.work_started[i] = after.end;
    D.busy_time[i] = RepeatAdd(D.busy_time[i], duration, count);
    S.d_batch_time_product[i] = RepeatAdd(S.d_batch_time_product[i], batch * duration, count);
    S.d_run_left[i] = left;
    progress_now = std::max(progress_now, after.end);
  }

  // Ends instance i's coalesced run at the step in flight at `now`, for an
  // event that sorts before kDecodeStepDone: a fresh event at that step's
  // end replaces the run's event.
  void cut_run(int i) {
    catch_up(i, now, /*inclusive=*/false);
    clear_coalesced(i);
    if (S.d_run_left[i] > 0) {
      push_step_done(i, D.work_started[i] + D.work_duration[i]);
    }
  }
  template <typename F>
  void for_each_coalesced(F f) const {
    ForEachSetBit(S.d_coalesced, [] { return true; }, f);
  }

  // --- backlog arming ---
  // Queued decode work must be admitted at the first step boundary any
  // instance that can take it reaches. Non-coalesced instances stop at every
  // boundary anyway; of the coalesced runs, only the one that reaches a
  // boundary first — smallest (next boundary, index) among those with batch
  // room that are not draining — is cut. That is the armed instance. A full
  // or draining run cannot admit before its final step, whose event is live
  // anyway. During a backlog the candidates only drop out: a run's batch is
  // fixed until its final step, draining is never undone, and no run
  // coalesces while work is queued. So the armed instance stays first until
  // its step-done fires; it is re-chosen then and when a failure kills it,
  // if work is still queued, and when a landing starts a fresh backlog (runs
  // coalesced since the last one drained may reach a boundary sooner).
  // Cutting a run never changes a metric, so leaving the rest running is
  // exact.
  bool can_admit(int i) const {
    return !(D.state[i] & kDraining) && S.d_active_count[i] < max_decode_batch;
  }
  void arm() {
    armed = -1;
    if (coalesced_count == 0 || decode_queue.empty()) {
      return;
    }
    std::vector<int>& candidates = S.arm_candidates;
    candidates.clear();
    for_each_coalesced([&](int i) {
      if (can_admit(i)) {
        candidates.push_back(i);
      }
    });
    armed = ChooseArmed(candidates, D.work_duration.data(), S.d_probe_started.data(),
                        S.d_probe_left.data(), now, S.arm_window_lo);
    if (armed >= 0) {
      cut_run(armed);
    }
  }

  void try_start_decode_step_at(double t, int i) {
    DaryMinHeap& heap = S.d_heap[static_cast<size_t>(i)];
    // Admit waiting sequences at the step boundary (draining instances
    // only finish what they already hold).
    if (!(D.state[i] & kDraining)) {
      while (!decode_queue.empty() && S.d_active_count[i] < max_decode_batch) {
        int req = decode_queue.front();
        decode_queue.pop_front();
        uint64_t left = static_cast<uint64_t>(
            std::max(1, requests.output_tokens[static_cast<size_t>(req)]));
        uint64_t finish = S.d_step_count[i] + left;
        assert((finish >> (64 - request_bits)) == 0 &&
               static_cast<uint64_t>(req) <= request_mask &&
               "completion-heap key overflows its bit fields");
        if (track_classes) {
          ++S.class_active[static_cast<size_t>(i) * ncls + static_cast<size_t>(class_of(req))];
        }
        heap.push((finish << request_bits) | static_cast<uint64_t>(req));
        ++S.d_active_count[i];
        if (track_slots) {
          std::vector<DecodeSlot>& slots = S.d_slots[static_cast<size_t>(i)];
          S.slot_pos[static_cast<size_t>(req)] = static_cast<int>(slots.size());
          slots.push_back({req, finish});
        }
        if (track_qsums) {
          queued_output_tokens -= requests.output_tokens[static_cast<size_t>(req)];
        }
      }
    }
    int batch = S.d_active_count[i];
    if (batch == 0) {
      return;
    }
    double duration = table.DecodeStepTime(batch);
    if (degrade_enabled) {
      duration *= D.degrade_mult[i];
    }
    D.state[i] |= kBusy;
    D.SyncReady(i);
    D.work_started[i] = t;
    D.work_duration[i] = duration;
    D.busy_time[i] += duration;
    S.d_batch_time_product[i] += batch * duration;
    // A sequence finishing at or before the step count would have completed
    // already, so the earliest completion lies ahead of every step start.
    const uint64_t next_finish = heap.front() >> request_bits;
    if (next_finish <= S.d_step_count[i]) {
      ThrowStaleCompletion(i, next_finish, S.d_step_count[i]);
    }
    // With nothing queued, run straight to the next completion: its event
    // time is the same sequential sum the per-step events would reach.
    const uint64_t steps = decode_queue.empty() ? next_finish - S.d_step_count[i] : 1;
    double end = RepeatAdd(t, duration, steps);
    S.d_run_left[i] = steps - 1;
    if (steps > 1) {
      S.d_run_end[i] = end;
      S.d_probe_started[i] = t;
      S.d_probe_left[i] = steps - 1;
      S.d_coalesced[static_cast<size_t>(i) >> 6] |= 1ull << (static_cast<unsigned>(i) & 63);
      ++coalesced_count;
    }
    push_step_done(i, end);
  }

  // Whether instance i of pool p has work to finish before it can retire:
  // a pass or step in flight, or (decode) sequences in its batch.
  bool holds_work(ScalePool p, int i) const {
    return (S.Pool(p).state[i] & kBusy) || (p == ScalePool::kDecode && S.d_active_count[i] > 0);
  }

  // Dispatch invariant: after every event, no ready decode instance holds
  // work — work only enters an instance inside try_start_decode_step_at,
  // which starts a step on it at once, and an instance is only left ready
  // with work by its own step completion, which dispatches. So with the
  // decode queue empty, every ready instance but the one whose step just
  // finished (`finished`, or -1) would admit nothing and return on
  // batch == 0: the scan stops there and starts `finished` alone.
  void try_start_decode_step(double t, int finished) {
    // Ascending-bit scan = the plain loop's ascending index order; skipped
    // instances (busy, down, or inactive) were pure no-ops there.
    ForEachSetBit(D.ready, [&] { return !decode_queue.empty(); },
                  [&](int i) { try_start_decode_step_at(t, i); });
    // Starting it after the scan instead of at its index is equivalent:
    // with the queue empty it admits nothing, and its step event is
    // ordered by the event queue's full comparator, not by push order.
    if (finished >= 0 && D.IsReady(finished) && S.d_active_count[finished] > 0) {
      try_start_decode_step_at(t, finished);
    }
#ifndef NDEBUG
    for (int i = 0; i < static_cast<int>(D.state.size()); ++i) {
      assert(!(D.IsReady(i) && S.d_active_count[i] > 0) &&
             "decode dispatch left a ready instance holding work");
    }
#endif
  }

  // A decode step (or coalesced run) done: its completions leave the batch,
  // and the instance starts its next step. The hottest handler: inlined
  // into Run's loop, which GCC otherwise declines at this size.
  [[gnu::always_inline]] void OnDecodeStepDone(int i, int token) {
    if (static_cast<uint32_t>(token) != S.d_step_token[i]) {
      return;  // the step was cut or killed before it finished
    }
    progress_now = now;
    if (is_coalesced(i)) {
      catch_up(i, now, /*inclusive=*/true);
      assert(S.d_run_left[i] == 0 && "a coalesced run ended with skipped steps unreplayed");
      clear_coalesced(i);
    }
    D.state[i] &= static_cast<uint8_t>(~kBusy);
    D.SyncReady(i);
    account_steps(i, 1);
    // Sequences whose remaining count just hit zero are exactly the
    // completion-heap entries at the new step count.
    uint64_t done_step = ++S.d_step_count[i];
    DaryMinHeap& heap = S.d_heap[static_cast<size_t>(i)];
    while (!heap.empty() && (heap.front() >> request_bits) == done_step) {
      int req = static_cast<int>(heap.pop() & request_mask);
      ++metrics.completed_requests;
      if (track_slots) {
        S.finished_pos.push_back(S.slot_pos[static_cast<size_t>(req)]);
      }
      if (track_classes) {
        size_t cls = static_cast<size_t>(class_of(req));
        ++metrics.per_class[cls].completed_requests;
        --S.class_active[static_cast<size_t>(i) * ncls + cls];
        if (now > config.horizon_s) {
          ++metrics.per_class[cls].in_flight_at_horizon;
        }
      }
      if (now > config.horizon_s) {
        // Admitted before the horizon, finished after it: the request
        // drains but its tail tokens are not horizon goodput.
        ++metrics.in_flight_at_horizon;
      }
      metrics.makespan_s = now;
      --S.d_active_count[i];
    }
    if (!S.finished_pos.empty()) {
      // Slot-order replay of the reference's single ascending pass, in
      // which every finished slot takes the back slot and is re-checked:
      // visiting the finished positions in ascending order and popping
      // finished backs into them leaves the same permutation.
      std::vector<DecodeSlot>& slots = S.d_slots[static_cast<size_t>(i)];
      std::sort(S.finished_pos.begin(), S.finished_pos.end());
      for (int p : S.finished_pos) {
        size_t pos = static_cast<size_t>(p);
        while (pos < slots.size() && slots[pos].finish_step == done_step) {
          slots[pos] = slots.back();
          slots.pop_back();
          if (pos < slots.size()) {
            S.slot_pos[static_cast<size_t>(slots[pos].request)] = p;
          }
        }
      }
      S.finished_pos.clear();
    }
    if ((D.state[i] & kDraining) && S.d_active_count[i] == 0) {
      retire(ScalePool::kDecode, i, D.drain_reason[i]);
    }
    try_start_decode_step(now, i);
    if (i == armed) {
      arm();  // work still queued passes to the next run to reach a boundary
    }
  }

  // --- autoscaler actions ---
  void retire(ScalePool p, int i, const char* reason) {
    InstancePool& pool = S.Pool(p);
    if (degrade_enabled) {
      close_degrade(p, i);
    }
    pool.state[i] = static_cast<uint8_t>((pool.state[i] & ~kDraining) | kInactive);
    pool.SyncReady(i);
    pool.down_time[i] = now;
    --pool.active;
    metrics.scale_events.push_back({now, p, -1, pool.active, reason});
  }
  // Pick the highest-index live instance: the most recently provisioned
  // capacity leaves first, keeping the initial pool stable.
  void drain_one(ScalePool p, const char* reason) {
    InstancePool& pool = S.Pool(p);
    for (int i = static_cast<int>(pool.size()) - 1; i >= 0; --i) {
      if (pool.Live(i)) {
        if (!holds_work(p, i)) {
          retire(p, i, reason);
        } else {
          pool.state[i] |= kDraining;
          pool.SyncReady(i);
          pool.drain_reason[i] = reason;
        }
        return;
      }
    }
  }

  // One autoscaler tick: the Autoscaler decides each pool from what the
  // engine measures here, prefill first, and the engine applies each
  // decision before measuring the next pool.
  void OnAutoscaleTick() {
    // The tick reads busy time, which includes the step started at a
    // boundary at `now`: replay every coalesced run up to and including it.
    for_each_coalesced([&](int i) { catch_up(i, now, /*inclusive=*/true); });
    const std::array<double, 2> forecast = autoscaler.Forecast(now, config.num_classes);
    for (ScalePool p : kPools) {
      InstancePool& pool = S.Pool(p);
      const double busy = pool.TotalBusy();
      // Down (failed) instances are not live: the autoscaler sees the
      // reduced pool and can provision replacements while repairs run.
      const ScaleDecision d = Autoscaler::Decide(
          config.autoscaler, p,
          {pool.LiveCount(), pool.pending_ups, busy - pool.prev_tick_busy,
           now - autoscaler.prev_tick_time, PerPool(p, queued_prompt_tokens, queued_output_tokens),
           forecast[static_cast<size_t>(p)]});
      pool.prev_tick_busy = busy;
      for (const char* reason : d.up_reasons) {
        events.Push({now + config.autoscaler.delay_s, KindOf(ServeEventKind::kPrefillUp, p),
                     autoscaler.up_seq++});
        pool.up_reasons.push_back(reason);
        ++pool.pending_ups;
      }
      if (d.drain_reason != nullptr) {
        drain_one(p, d.drain_reason);
      }
    }
    autoscaler.prev_tick_time = now;

    // Keep ticking only while there is anything left to manage; otherwise
    // the tick stream would keep the event loop alive forever (the default
    // horizon is effectively infinite).
    bool work_left = next_arrival < nreq || !prefill_queue.empty() ||
                     !decode_queue.empty() || P.pending_ups > 0 || D.pending_ups > 0;
    for (ScalePool p : kPools) {
      for (size_t i = 0; i < S.Pool(p).size() && !work_left; ++i) {
        work_left = holds_work(p, static_cast<int>(i));
      }
    }
    if (work_left) {
      events.Push({now + config.autoscaler.interval_s, ServeEventKind::kAutoscaleTick,
                   autoscaler.tick_seq++});
    }
  }

  // A provisioned instance of pool p comes up and takes work.
  void OnUp(ScalePool p, InstancePool& pool) {
    S.Add(p, now, config.num_classes);
    --pool.pending_ups;
    ++pool.active;
    int& peak = PerPool(p, metrics.peak_prefill_instances, metrics.peak_decode_instances);
    peak = std::max(peak, pool.active);
    const char* reason = pool.up_reasons.front();
    pool.up_reasons.pop_front();
    metrics.scale_events.push_back({now, p, +1, pool.active, reason});
    if (faults_enabled) {
      faults.Provision(p, static_cast<int>(pool.size()) - 1, now, /*degrade=*/true);
    }
    p == ScalePool::kPrefill ? try_start_prefill(now) : try_start_decode_step(now, -1);
  }

  // --- fault actions ---
  // What happens to a request whose instance died under it.
  void requeue_or_drop(int req) {
    bool retry = config.faults.retry_policy == FaultRetryPolicy::kRetry;
    if (config.faults.retry_policy == FaultRetryPolicy::kRetryWithBudget) {
      if (S.retry_counts.empty()) {
        S.retry_counts.assign(nreq, 0);
      }
      retry = S.retry_counts[static_cast<size_t>(req)] < config.faults.retry_budget;
      if (retry) {
        ++S.retry_counts[static_cast<size_t>(req)];
      }
    }
    if (retry) {
      // The KV cache died with the instance: back of the prefill queue.
      prefill_queue.push_back(req);
      if (track_qsums) {
        queued_prompt_tokens += requests.prompt_tokens[static_cast<size_t>(req)];
      }
      ++metrics.retried_requests;
    } else {
      ++metrics.dropped_requests;
    }
  }
  // The victims of a failure, requeued or dropped; each returns the tokens
  // of work they lose. A prefill pass loses its prompts.
  double kill_prefill_pass(int i) {
    double lost = 0.0;
    std::vector<int>& slots = S.p_batch[static_cast<size_t>(i)];
    for (int req : slots) {
      lost += requests.prompt_tokens[static_cast<size_t>(req)];
      requeue_or_drop(req);
    }
    slots.clear();
    return lost;
  }
  // A decode batch loses the tokens generated so far, in slot order.
  double kill_decode_batch(int i) {
    double lost = 0.0;
    std::vector<DecodeSlot>& slots = S.d_slots[static_cast<size_t>(i)];
    for (const DecodeSlot& slot : slots) {
      int req = slot.request;
      // Generated-so-far tokens die with the KV cache: they are not
      // horizon goodput, so back them out of the token counts.
      int64_t remaining = static_cast<int64_t>(slot.finish_step - S.d_step_count[i]);
      double generated = static_cast<double>(
          std::max(1, requests.output_tokens[static_cast<size_t>(req)]) - remaining);
      lost += generated;
      metrics.output_tokens -= generated;
      if (track_classes) {
        metrics.per_class[static_cast<size_t>(class_of(req))].output_tokens -= generated;
      }
      requeue_or_drop(req);
    }
    slots.clear();
    S.d_heap[static_cast<size_t>(i)].clear();
    S.d_active_count[i] = 0;
    if (track_classes) {
      std::fill_n(&S.class_active[static_cast<size_t>(i) * ncls], ncls, 0);
    }
    return lost;
  }

  // An instance failure kills its in-flight work (refunding the busy time
  // the unfinished pass/step had claimed up front), requeues or drops the
  // victims per the retry policy, and takes the instance down for the
  // spare-activation delay (consuming a free spare whose repaired device
  // returns later) or the full repair. A draining instance that fails
  // simply retires — the autoscaler wanted it gone anyway. domain >= 0
  // marks a member of a correlated domain outage: it bypasses hot spares
  // (a rack outage is not maskable by a spare device) and waits out the
  // domain repair instead of the instance repair. Returns the tokens of
  // work lost.
  double fail(ScalePool p, int i, int domain) {
    InstancePool& pool = S.Pool(p);
    const bool decode = p == ScalePool::kDecode;
    if (decode) {
      if (i == armed) {
        // Arming cut i's run, so i is no candidate: the next one takes over.
        arm();
      }
      if (is_coalesced(i)) {
        // Steps that finished before the failure still count, at the
        // degraded state they ran under.
        catch_up(i, now, /*inclusive=*/false);
        clear_coalesced(i);
      }
      ++S.d_step_token[i];  // stales the killed step's event
    }
    if (degrade_enabled) {
      close_degrade(p, i);
    }
    ++pool.epoch[i];
    const int killed =
        decode ? S.d_active_count[i] : static_cast<int>(S.p_batch[static_cast<size_t>(i)].size());
    if (pool.state[i] & kBusy) {
      double unfinished = pool.work_started[i] + pool.work_duration[i] - now;
      pool.busy_time[i] -= unfinished;
      if (decode) {
        S.d_batch_time_product[i] -= static_cast<double>(killed) * unfinished;
      }
      pool.state[i] &= static_cast<uint8_t>(~kBusy);
    }
    const double lost = decode ? kill_decode_batch(i) : kill_prefill_pass(i);
    metrics.lost_tokens += lost;
    if (pool.state[i] & kDraining) {
      metrics.fault_events.push_back(
          {now, FaultEventKind::kFailure, p, i, killed, lost, pool.spares_free, domain});
      retire(p, i, pool.drain_reason[i]);
      return lost;
    }
    pool.state[i] |= kDown;
    pool.SyncReady(i);
    pool.via_spare[i] = 0;
    double delay = config.faults.repair_s;
    if (domain >= 0) {
      delay = config.faults.domains.repair_s;
    } else if (pool.spares_free > 0) {
      --pool.spares_free;
      pool.via_spare[i] = 1;
      delay = config.faults.spare_activation_s;
      events.Push(
          {now + config.faults.repair_s, KindOf(ServeEventKind::kPrefillSpareReturn, p), i});
    }
    metrics.fault_events.push_back(
        {now, FaultEventKind::kFailure, p, i, killed, lost, pool.spares_free, domain});
    events.Push({now + delay, KindOf(ServeEventKind::kPrefillRecover, p), i, pool.epoch[i]});
    return lost;
  }

  // An independent failure of instance i of pool p.
  void OnFail(ScalePool p, const InstancePool& pool, int i, int epoch) {
    if (!pool.Current(i, epoch)) {
      return;
    }
    note_outage(fail(p, i, /*domain=*/-1));
    // Retried victims queue for prefill; surviving instances pick them up
    // immediately.
    try_start_prefill(now);
  }

  // One domain outage downs every live member at this timestamp, in
  // ascending instance order; the whole group is one outage for the
  // blast-radius / drain accounting.
  void OnDomainFail(ScalePool p, const InstancePool& pool, int domain) {
    const int lo = domain * pool.instances_per_domain;
    const int hi = std::min(static_cast<int>(pool.size()), lo + pool.instances_per_domain);
    double lost = 0.0;  // token counts are integers, so the sum is exact
    for (int m = lo; m < hi; ++m) {
      if (!(pool.state[m] & (kInactive | kDown))) {  // else nothing left to kill
        lost += fail(p, m, domain);
      }
    }
    note_outage(lost);
    faults.NextDomainFailure(p, domain, now);
    try_start_prefill(now);
  }

  void OnDegradeStart(ScalePool p, InstancePool& pool, int i, int epoch) {
    if (!pool.Current(i, epoch)) {
      return;
    }
    if (p == ScalePool::kDecode && is_coalesced(i)) {
      cut_run(i);  // the next step dispatches at the new multiplier
    }
    double duration =
        faults.streams.NextDegradeDuration(p, i, config.faults.degraded.mean_duration_s);
    pool.degrade_mult[i] = config.faults.degraded.multiplier;
    pool.degrade_since[i] = now;
    ++metrics.degrade_windows;
    metrics.fault_events.push_back(
        {now, FaultEventKind::kDegradeStart, p, i, 0, 0.0, pool.spares_free});
    events.Push({now + duration, KindOf(ServeEventKind::kPrefillDegradeEnd, p), i, epoch});
  }

  void OnDegradeEnd(ScalePool p, const InstancePool& pool, int i, int epoch) {
    if (!pool.Current(i, epoch)) {
      return;  // a failure already cleared the window
    }
    if (p == ScalePool::kDecode && is_coalesced(i)) {
      cut_run(i);
    }
    close_degrade(p, i);
    metrics.fault_events.push_back(
        {now, FaultEventKind::kDegradeEnd, p, i, 0, 0.0, pool.spares_free});
    faults.NextDegrade(p, i, now, epoch);
  }

  void OnRecover(ScalePool p, InstancePool& pool, int i, int epoch) {
    if (!pool.Current(i, epoch)) {
      return;  // retired while down
    }
    pool.state[i] &= static_cast<uint8_t>(~kDown);
    pool.SyncReady(i);
    metrics.fault_events.push_back(
        {now, pool.via_spare[i] ? FaultEventKind::kSpareActivation : FaultEventKind::kRepair, p,
         i, 0, 0.0, pool.spares_free});
    faults.NextFailure(p, i, now, pool.epoch[i]);
    faults.NextDegrade(p, i, now, pool.epoch[i]);
    p == ScalePool::kPrefill ? try_start_prefill(now) : try_start_decode_step(now, -1);
  }

  void OnSpareReturn(ScalePool p, InstancePool& pool, int i) {
    ++pool.spares_free;
    metrics.fault_events.push_back(
        {now, FaultEventKind::kSpareReturn, p, i, 0, 0.0, pool.spares_free});
  }
};

}  // namespace

ServeMetrics RunServeSimulation(const RequestSoA& requests,
                                const ServeClusterConfig& config,
                                const StepTimeTable& table) {
  if (table.empty() || config.prefill_instances <= 0 || config.decode_instances <= 0) {
    return ServeMetrics();
  }
  ServeEngine engine(requests, config, table);
  engine.Run();
  return engine.Finish();
}

ServeMetrics RunServeSimulation(const std::vector<Request>& requests,
                                const ServeClusterConfig& config,
                                const StepTimeTable& table) {
  return RunServeSimulation(RequestSoA::FromRequests(requests), config, table);
}

ServeMetrics MergeServeShardMetrics(const ServeClusterConfig& config,
                                    const std::vector<ServeMetrics>& shards) {
  if (!config.stream_ttft) {
    throw std::invalid_argument("MergeServeShardMetrics: config.stream_ttft must be set");
  }
  if (shards.empty()) {
    return ServeMetrics();
  }
  ServeMetrics merged;
  ShapeMetrics(config, merged);
  // Fold in shard-index order — deterministic regardless of which thread
  // finished which shard first.
  for (const ServeMetrics& m : shards) {
    if (!m.ttft_streamed) {
      throw std::invalid_argument("MergeServeShardMetrics: every shard must stream TTFT");
    }
    merged.ttft_hist.Merge(m.ttft_hist);
    merged.tbt_s.Merge(m.tbt_s);
    merged.completed_requests += m.completed_requests;
    merged.admitted_requests += m.admitted_requests;
    merged.in_flight_at_horizon += m.in_flight_at_horizon;
    merged.output_tokens += m.output_tokens;
    // Sub-horizons run back to back conceptually: the merged makespan is
    // the summed wall of the shards, which keeps rate and utilization
    // denominators consistent with the summed numerators.
    merged.makespan_s += m.makespan_s;
    merged.prefill_busy_s += m.prefill_busy_s;
    merged.decode_busy_s += m.decode_busy_s;
    merged.decode_batch_time_product += m.decode_batch_time_product;
    // Fault/degrade/shed counters are additive; the logs and the
    // largest-outage tracking are not merged (the Runner rejects sharding
    // combined with faults or shedding).
    merged.shed_requests += m.shed_requests;
    merged.degrade_windows += m.degrade_windows;
    merged.prefill_degraded_instance_s += m.prefill_degraded_instance_s;
    merged.decode_degraded_instance_s += m.decode_degraded_instance_s;
    merged.degraded_output_tokens += m.degraded_output_tokens;
    for (size_t c = 0; c < merged.per_class.size() && c < m.per_class.size(); ++c) {
      ServeClassMetrics& out = merged.per_class[c];
      const ServeClassMetrics& in = m.per_class[c];
      out.ttft_hist.Merge(in.ttft_hist);
      out.tbt_s.Merge(in.tbt_s);
      out.admitted_requests += in.admitted_requests;
      out.completed_requests += in.completed_requests;
      out.in_flight_at_horizon += in.in_flight_at_horizon;
      out.output_tokens += in.output_tokens;
    }
  }
  if (merged.makespan_s > 0.0) {
    SetFixedPoolRatios(config, merged);
  }
  return merged;
}

}  // namespace litegpu
