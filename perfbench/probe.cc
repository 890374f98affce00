// In-process probe for the perfbench driver (perfbench/run.py).
//
// It times the library's layers by wrapping its own calls into each
// layer's public functions; nothing inside src/ is instrumented.
//
//   perfbench_probe setup <scenario.json> <min_seconds>
//     Builds the simulated system (parse, platform builds, every request
//     stream) serially as one untraced interval, once and then again until
//     <min_seconds> have passed, and prints {"setup_s": [...], ...}.
//
//   perfbench_probe spawn <timeout_s> <stdout_file> <program> [args...]
//     Runs one child with its stdout captured to <stdout_file> and prints
//     {"exit_code", "wall_s", "maxrss_kb"}. The child is forked from this
//     small process rather than from the driver, because Linux starts a
//     child's ru_maxrss at its parent's resident size at fork time.
//
//   perfbench_probe trace <scenario.json> <pool_threads> <report_out> <spans_out>
//     Runs Runner::Run serially, untraced and traced, and once at
//     <pool_threads>; writes the report bytes `litegpu run --json --threads 1`
//     would print to <report_out>; replays the layers serially under spans
//     (written to <spans_out>); and prints the per-layer metrics plus the
//     replay-identity checks as one JSON object.
//
// Only the serve and fleet-compare studies are replayed. The replay
// mirrors the Runner's public call sequence; where its inputs come from
// code private to runner.cc (fault and autoscaler configs), the point is
// not simulated and its time lands in core.runner.residual_s.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "src/core/runner.h"
#include "src/core/scenario.h"
#include "src/core/search.h"
#include "src/hw/catalog.h"
#include "src/hw/lite_derive.h"
#include "src/llm/model.h"
#include "src/llm/parallel.h"
#include "src/perf/model.h"
#include "src/perf/step_table.h"
#include "src/sched/pools.h"
#include "src/serve/simulator.h"
#include "src/serve/workload.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace {

using namespace litegpu;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
};

// Spans stay in memory and are written once at exit. Single-threaded: the
// replay runs serially, so children never overlap and a span's self time is
// its duration minus the sum of its children's.
class Recorder {
 public:
  int Open(const std::string& name) {
    Span span;
    span.name = name;
    span.start_s = SecondsSince(origin_);
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int id) {
    spans_[static_cast<size_t>(id)].end_s = SecondsSince(origin_);
    stack_.pop_back();
  }

  std::vector<double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end_s - span.start_s;
      }
    }
    return self;
  }
  // Summed self time and count of every span with this name.
  double SelfSeconds(const std::string& name) const {
    std::vector<double> self = SelfTimes();
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        total += self[i];
      }
    }
    return total;
  }
  int Count(const std::string& name) const {
    return static_cast<int>(std::count_if(spans_.begin(), spans_.end(),
                                          [&](const Span& s) { return s.name == name; }));
  }

  Json ToJson() const {
    std::vector<double> self = SelfTimes();
    Json out = Json::Array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      Json span = Json::Object();
      span.Set("id", static_cast<int>(i))
          .Set("name", spans_[i].name)
          .Set("start_s", spans_[i].start_s)
          .Set("end_s", spans_[i].end_s)
          .Set("parent", spans_[i].parent)
          .Set("self_s", self[i]);
      out.Append(std::move(span));
    }
    return out;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Opens a span on construction and closes it on destruction; a null
// recorder (the untraced set-up pass) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, const std::string& name) : recorder_(recorder) {
    if (recorder_ != nullptr) {
      id_ = recorder_->Open(name);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* recorder_;
  int id_ = -1;
};

// --- the simulated system, built through public calls ------------------------

struct Platform {
  bool ok = false;
  double decode_capacity_tok_s = 0.0;
  InstanceCapacity capacity;
  StepTimeTable table;
};

// One request stream the Runner generates and (when `replayable`) simulates.
struct Stream {
  size_t scenario = 0;
  size_t candidate = 0;  // fleet-compare only
  size_t point = 0;      // fleet-compare only
  std::string part;      // key into System::platforms
  double arrival_rate_per_s = 0.0;
  // Exactly one of the two specs is used: `multi` when classes are declared.
  bool multi_class = false;
  WorkloadSpec single;
  MultiClassWorkloadSpec multi;
  ServeClusterConfig cluster;
  // False where the Runner's cluster config comes from runner-private code
  // (faults, autoscaler, shedding) or the point runs sharded.
  bool replayable = false;
};

struct System {
  // Fleet candidates share a platform per resolved part name, as the Runner
  // does; each serve scenario has its own, keyed "<scenario>:<part>".
  std::map<std::string, Platform> platforms;
  std::vector<std::vector<std::string>> candidate_parts;  // per scenario
  std::vector<std::vector<uint64_t>> candidate_seeds;     // per scenario
  std::vector<Stream> streams;
  int search_calls = 0;
  int derives = 0;
  PerfCacheStats search_cache;  // GlobalPerfCacheStats delta over the searches
};

// The Runner's BuildServePlatform, call for call: search both phases, then
// price the chosen configs into an owning step-time table.
Platform BuildPlatform(const TransformerSpec& model, const GpuSpec& gpu,
                       const SearchOptions& options, System& system, Recorder* recorder) {
  ScopedSpan span(recorder, "core.platform");
  Platform platform;
  PrefillSearchResult prefill;
  DecodeSearchResult decode;
  {
    ScopedSpan search(recorder, "core.search");
    PerfCacheStats before = GlobalPerfCacheStats();
    prefill = SearchPrefill(model, gpu, options);
    decode = SearchDecode(model, gpu, options);
    PerfCacheStats after = GlobalPerfCacheStats();
    system.search_cache.hits += after.hits - before.hits;
    system.search_cache.misses += after.misses - before.misses;
    system.search_calls += 2;
  }
  if (!prefill.found || !decode.found) {
    return platform;
  }
  ScopedSpan build(recorder, "perf.table.build");
  platform.decode_capacity_tok_s = decode.best.result.tokens_per_s;
  TpPlan prefill_plan = MakeTpPlan(model, prefill.best.tp_degree, options.kv_policy).value();
  TpPlan decode_plan = MakeTpPlan(model, decode.best.tp_degree, options.kv_policy).value();
  PerfModel prefill_model(model, gpu, prefill_plan, options.workload, options.engine);
  PerfModel decode_model(model, gpu, decode_plan, options.workload, options.engine);
  platform.capacity = CapacityFromPerfModels(prefill_model, prefill.best.batch, decode_model,
                                             decode.best.batch);
  platform.table = StepTimeTable::Build(prefill_model, decode_model, prefill.best.batch,
                                        decode.best.batch);
  platform.ok = true;
  return platform;
}

const Platform& PlatformFor(const TransformerSpec& model, const GpuSpec& gpu,
                            const SearchOptions& options, System& system, Recorder* recorder) {
  auto it = system.platforms.find(gpu.name);
  if (it == system.platforms.end()) {
    it = system.platforms.emplace(gpu.name, BuildPlatform(model, gpu, options, system, recorder))
             .first;
  }
  return it->second;
}

void AddServeStreams(const Scenario& s, size_t index, System& system, Recorder* recorder) {
  const ServeKnobs& knobs = s.serve;
  const TransformerSpec model = *FindModel(s.ResolvedModels().front());
  const GpuSpec gpu = *FindGpu(s.ResolvedGpus().front());
  // Like the Runner, every serve scenario builds its own platform.
  const std::string key = std::to_string(index) + ":" + gpu.name;
  const Platform& platform =
      system.platforms
          .emplace(key, BuildPlatform(model, gpu, s.MakeSearchOptions(), system, recorder))
          .first->second;
  if (!platform.ok) {
    return;
  }
  const std::vector<RequestClass>& classes = knobs.classes;
  const ClassMixSummary mix = SummarizeClassMix(classes);
  const double mean_prompt = classes.empty() ? s.workload.prompt_tokens : mix.mean_prompt_tokens;
  const double mean_output = classes.empty() ? s.workload.output_tokens : mix.mean_output_tokens;

  Stream stream;
  stream.scenario = index;
  stream.part = key;
  if (knobs.arrival_rate_per_s > 0.0) {
    stream.arrival_rate_per_s = knobs.arrival_rate_per_s;
  } else if (knobs.arrival.kind == ArrivalKind::kTrace) {
    stream.arrival_rate_per_s = MeanTraceRatePerS(knobs.arrival, knobs.horizon_s);
  } else {
    stream.arrival_rate_per_s =
        knobs.load * platform.decode_capacity_tok_s * knobs.decode_instances / mean_output;
  }
  stream.multi_class = !classes.empty();
  if (!stream.multi_class) {
    WorkloadSpec& spec = stream.single;
    spec.arrival_rate_per_s = stream.arrival_rate_per_s;
    spec.duration_s = knobs.horizon_s;
    spec.median_prompt_tokens = s.workload.prompt_tokens;
    spec.prompt_sigma = knobs.prompt_sigma;
    spec.median_output_tokens = s.workload.output_tokens;
    spec.output_sigma = knobs.output_sigma;
    spec.seed = knobs.seed;
    spec.arrival = knobs.arrival;
  } else {
    MultiClassWorkloadSpec& spec = stream.multi;
    spec.duration_s = knobs.horizon_s;
    spec.seed = knobs.seed;
    spec.arrival = knobs.arrival;
    for (size_t c = 0; c < classes.size(); ++c) {
      ClassWorkload cls;
      cls.arrival_rate_per_s = stream.arrival_rate_per_s * mix.shares[c];
      cls.median_prompt_tokens = classes[c].prompt_tokens;
      cls.prompt_sigma = classes[c].prompt_sigma;
      cls.median_output_tokens = classes[c].output_tokens;
      cls.output_sigma = classes[c].output_sigma;
      spec.classes.push_back(cls);
    }
  }
  ServeDeployment deployment =
      PlanServeDeployment(stream.arrival_rate_per_s, mean_prompt, mean_output, platform.capacity,
                          knobs.prefill_instances, knobs.decode_instances);
  stream.cluster.prefill_instances = deployment.prefill_instances;
  stream.cluster.decode_instances = deployment.decode_instances;
  stream.cluster.horizon_s = knobs.horizon_s;
  stream.cluster.num_classes = static_cast<int>(classes.size());
  stream.replayable = !knobs.faults.enabled() && !knobs.autoscaler.enabled() &&
                      knobs.faults.shed_queue_depth == 0 &&
                      knobs.faults.shed_ttft_deadline_s == 0.0 && knobs.shards < 2;
  system.streams.push_back(std::move(stream));
}

// The fleet study's per-candidate stream base. The trace pass checks every
// value against the `seed` the report prints for the candidate.
uint64_t CandidateSeed(uint64_t study_seed, const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return SplitMix64(study_seed ^ h).Next();
}

void AddFleetStreams(const Scenario& s, size_t index, System& system, Recorder* recorder) {
  const FleetKnobs& fleet = s.fleet;
  const TransformerSpec model = *FindModel(s.ResolvedModels().front());
  const std::vector<double> grid = fleet.GridPoints();
  std::vector<std::string>& parts = system.candidate_parts[index];
  std::vector<uint64_t>& seeds = system.candidate_seeds[index];
  for (size_t ci = 0; ci < fleet.candidates.size(); ++ci) {
    const FleetCandidate& c = fleet.candidates[ci];
    GpuSpec gpu = *FindGpu(c.gpu);
    if (c.split > 1 || c.mem_bw_multiplier != 1.0 || c.net_bw_multiplier != 1.0 ||
        c.overclock != 1.0) {
      ScopedSpan span(recorder, "core.derive");
      LiteDeriveOptions options;
      options.split = c.split;
      options.mem_bw_multiplier = c.mem_bw_multiplier;
      options.net_bw_multiplier = c.net_bw_multiplier;
      options.overclock = c.overclock;
      options.max_gpus_multiplier = c.split;
      gpu = DeriveLite(gpu, options).gpu;
      ++system.derives;
    }
    parts.push_back(gpu.name);
    seeds.push_back(CandidateSeed(fleet.seed, c.name));
    const Platform& platform = PlatformFor(model, gpu, s.MakeSearchOptions(), system, recorder);
    if (!platform.ok) {
      continue;
    }
    SplitMix64 seed_stream(seeds.back());
    const double pool_capacity_tok_s = platform.decode_capacity_tok_s * c.decode_instances;
    for (size_t i = 0; i < grid.size(); ++i) {
      Stream stream;
      stream.scenario = index;
      stream.candidate = ci;
      stream.point = i;
      stream.part = gpu.name;
      stream.arrival_rate_per_s = grid[i] * pool_capacity_tok_s / s.workload.output_tokens;
      WorkloadSpec& spec = stream.single;
      spec.arrival_rate_per_s = stream.arrival_rate_per_s;
      spec.duration_s = fleet.horizon_s;
      spec.median_prompt_tokens = s.workload.prompt_tokens;
      spec.prompt_sigma = fleet.prompt_sigma;
      spec.median_output_tokens = s.workload.output_tokens;
      spec.output_sigma = fleet.output_sigma;
      spec.seed = seed_stream.Next() & ((uint64_t{1} << 53) - 1);
      ServeDeployment deployment = PlanServeDeployment(
          stream.arrival_rate_per_s, s.workload.prompt_tokens, s.workload.output_tokens,
          platform.capacity, c.prefill_instances, c.decode_instances);
      stream.cluster.prefill_instances = deployment.prefill_instances;
      stream.cluster.decode_instances = deployment.decode_instances;
      stream.cluster.horizon_s = fleet.horizon_s;
      stream.replayable = true;
      system.streams.push_back(std::move(stream));
    }
  }
}

// Set-up as one serial pass: parse, then every platform build and request
// stream of every scenario.
System BuildSystem(const std::string& text, Recorder* recorder) {
  std::optional<std::vector<Scenario>> scenarios;
  {
    ScopedSpan span(recorder, "core.scenario.parse");
    std::string error;
    scenarios = ParseScenarios(text, &error);
    if (!scenarios) {
      throw std::runtime_error("scenario parse failed: " + error);
    }
  }
  System system;
  system.candidate_parts.resize(scenarios->size());
  system.candidate_seeds.resize(scenarios->size());
  for (size_t i = 0; i < scenarios->size(); ++i) {
    Scenario& s = (*scenarios)[i];
    s.exec.threads = 1;
    if (s.study == StudyKind::kServe) {
      AddServeStreams(s, i, system, recorder);
    } else if (s.study == StudyKind::kFleetCompare) {
      AddFleetStreams(s, i, system, recorder);
    } else {
      throw std::runtime_error("probe replays only serve and fleet-compare studies");
    }
  }
  return system;
}

std::vector<Request> Generate(const Stream& stream, Recorder* recorder) {
  ScopedSpan span(recorder, "serve.workload.gen");
  return stream.multi_class ? GenerateMultiClassWorkload(stream.multi)
                            : GenerateWorkload(stream.single);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

int Setup(const std::string& path, double min_seconds) {
  const std::string text = ReadFile(path);
  Json times = Json::Array();
  uint64_t requests = 0;
  size_t streams = 0;
  size_t parts = 0;
  int derives = 0;
  const Clock::time_point begin = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    System system = BuildSystem(text, nullptr);
    requests = 0;
    for (const Stream& stream : system.streams) {
      requests += Generate(stream, nullptr).size();
    }
    times.Append(SecondsSince(start));
    streams = system.streams.size();
    parts = system.platforms.size();
    derives = system.derives;
  } while (SecondsSince(begin) < min_seconds);
  Json out = Json::Object();
  out.Set("setup_s", std::move(times))
      .Set("requests", requests)
      .Set("streams", static_cast<uint64_t>(streams))
      .Set("parts", static_cast<uint64_t>(parts))
      .Set("derives", derives);
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}

int Spawn(unsigned timeout_s, const std::string& out_path, char** argv) {
  const int fd = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot write " + out_path);
  }
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // SIGALRM survives exec and ends a child that overruns its budget.
    alarm(timeout_s);
    dup2(fd, STDOUT_FILENO);
    close(fd);
    execv(argv[0], argv);
    _exit(127);
  }
  close(fd);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    throw std::runtime_error("wait4 failed");
  }
  const double wall_s = SecondsSince(start);
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  Json out = Json::Object();
  out.Set("exit_code", exit_code)
      .Set("wall_s", wall_s)
      .Set("maxrss_kb", static_cast<int64_t>(usage.ru_maxrss));
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}

// --- trace pass ----------------------------------------------------------------

// `litegpu run --json` semantics: one scenario runs alone at `threads`, a
// batch fans out with every scenario serial inside.
std::vector<RunReport> RunLikeCli(const std::vector<Scenario>& scenarios, int threads) {
  if (scenarios.size() == 1) {
    Scenario only = scenarios.front();
    only.exec.threads = threads;
    return {Runner().Run(only)};
  }
  ExecPolicy exec;
  exec.threads = threads;
  return RunScenarios(scenarios, exec);
}

std::string CliBytes(const std::vector<RunReport>& reports) {
  if (reports.size() == 1) {
    return reports.front().ToJson().Dump() + "\n";
  }
  Json batch = Json::Array();
  for (const RunReport& report : reports) {
    batch.Append(report.ToJson());
  }
  return batch.Dump() + "\n";
}

struct Timed {
  double seconds = 0.0;
  std::string bytes;
  std::vector<RunReport> reports;
};

Timed TimeRunner(const std::vector<Scenario>& scenarios, int threads, Recorder* recorder) {
  Timed out;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(recorder, "core.runner.run");
    out.reports = RunLikeCli(scenarios, threads);
  }
  out.seconds = SecondsSince(start);
  out.bytes = CliBytes(out.reports);
  return out;
}

class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    Json check = Json::Object();
    check.Set("name", name).Set("ok", ok).Set("detail", detail);
    list_.Append(std::move(check));
  }
  Json Take() { return std::move(list_); }

 private:
  Json list_ = Json::Array();
};

std::string Both(double a, double b) {
  std::ostringstream os;
  os.precision(17);
  os << a << " vs " << b;
  return os.str();
}

int Trace(const std::string& path, int pool_threads, const std::string& report_out,
          const std::string& spans_out) {
  const std::string text = ReadFile(path);
  std::string error;
  std::optional<std::vector<Scenario>> scenarios = ParseScenarios(text, &error);
  if (!scenarios) {
    throw std::runtime_error("scenario parse failed: " + error);
  }
  Checks checks;
  Recorder recorder;

  // A discarded warm-up first, so no timed call pays the process's
  // first-touch page faults.
  const Timed warm = TimeRunner(*scenarios, 1, nullptr);
  const Timed untraced = TimeRunner(*scenarios, 1, nullptr);
  const Timed pooled = TimeRunner(*scenarios, pool_threads, nullptr);
  Timed traced;
  std::string emitted;
  System system;
  std::vector<size_t> generated;
  std::vector<std::optional<ServeMetrics>> metrics;
  double sim_requests = 0.0;
  double sim_output_tokens = 0.0;
  {
    ScopedSpan root(&recorder, "bench.trace");
    traced = TimeRunner(*scenarios, 1, &recorder);
    {
      ScopedSpan span(&recorder, "util.json.emit");
      emitted = CliBytes(traced.reports);
    }
    // The replay: the same layers, called serially under spans, each point
    // generated and then simulated like the Runner does it.
    ScopedSpan replay(&recorder, "replay");
    system = BuildSystem(text, &recorder);
    generated.resize(system.streams.size());
    metrics.resize(system.streams.size());
    for (size_t i = 0; i < system.streams.size(); ++i) {
      const Stream& stream = system.streams[i];
      std::vector<Request> requests = Generate(stream, &recorder);
      generated[i] = requests.size();
      if (!stream.replayable) {
        continue;
      }
      const Platform& platform = system.platforms.at(stream.part);
      {
        ScopedSpan span(&recorder, "serve.sim");
        metrics[i] = RunServeSimulation(requests, stream.cluster, platform.table);
      }
      sim_requests += metrics[i]->admitted_requests;
      sim_output_tokens += metrics[i]->output_tokens;
    }
  }
  WriteFile(report_out, emitted);
  checks.Expect("runner.ok",
                std::all_of(traced.reports.begin(), traced.reports.end(),
                            [](const RunReport& r) { return r.ok; }),
                "every Runner::Run report has ok:true");
  checks.Expect("runner.bytes_stable",
                warm.bytes == emitted && untraced.bytes == emitted && pooled.bytes == emitted,
                "every in-process Runner::Run call (--threads 1 and " +
                    std::to_string(pool_threads) + ") emits identical bytes");

  // Replay identity against the Runner's own report.
  int fault_events = 0, retried = 0, shed = 0, scale_events = 0, peak_decode = 0;
  bool conservation = true;
  for (size_t i = 0; i < system.streams.size(); ++i) {
    const Stream& stream = system.streams[i];
    const RunReport& report = traced.reports[stream.scenario];
    if (const auto* serve = std::get_if<ServeStudyReport>(&report.payload)) {
      const std::string tag = "scenario " + std::to_string(stream.scenario);
      checks.Expect("replay.arrival_rate",
                    stream.arrival_rate_per_s == serve->arrival_rate_per_s,
                    tag + ": " + Both(stream.arrival_rate_per_s, serve->arrival_rate_per_s));
      checks.Expect("replay.generated_eq_admitted",
                    static_cast<int>(generated[i]) == serve->admitted_requests,
                    tag + ": " + std::to_string(generated[i]) + " vs " +
                        std::to_string(serve->admitted_requests));
      if (metrics[i]) {
        checks.Expect("replay.admitted_completed",
                      metrics[i]->admitted_requests == serve->admitted_requests &&
                          metrics[i]->completed_requests == serve->completed_requests,
                      tag + ": admitted " + std::to_string(metrics[i]->admitted_requests) +
                          " vs " + std::to_string(serve->admitted_requests) + ", completed " +
                          std::to_string(metrics[i]->completed_requests) + " vs " +
                          std::to_string(serve->completed_requests));
        checks.Expect("replay.goodput",
                      metrics[i]->decode_tokens_per_s == serve->goodput_tokens_per_s,
                      tag + ": " + Both(metrics[i]->decode_tokens_per_s,
                                        serve->goodput_tokens_per_s));
      }
      fault_events += static_cast<int>(serve->faults.events.size());
      retried += serve->faults.retried_requests;
      shed += serve->faults.shed_requests;
      scale_events += static_cast<int>(serve->scale.events.size());
      peak_decode = std::max(peak_decode, serve->scale.peak_decode_instances);
    }
    if (metrics[i]) {
      const ServeMetrics& m = *metrics[i];
      conservation = conservation && m.admitted_requests == m.completed_requests +
                                                                m.dropped_requests +
                                                                m.shed_requests;
    }
  }
  checks.Expect("replay.conservation", conservation,
                "admitted = completed + dropped + shed on every replayed point");
  for (size_t si = 0; si < traced.reports.size(); ++si) {
    const auto* fleet = std::get_if<FleetCompareReport>(&traced.reports[si].payload);
    if (fleet == nullptr) {
      continue;
    }
    const std::vector<std::string>& parts = system.candidate_parts[si];
    const std::vector<uint64_t>& seeds = system.candidate_seeds[si];
    const int distinct =
        static_cast<int>(std::set<std::string>(parts.begin(), parts.end()).size());
    checks.Expect("replay.platform_builds", distinct == fleet->platform_builds,
                  std::to_string(distinct) + " replayed builds vs platform_builds " +
                      std::to_string(fleet->platform_builds));
    bool parts_ok = parts.size() == fleet->candidates.size();
    bool seeds_ok = parts_ok;
    bool knees_ok = parts_ok;
    for (size_t ci = 0; parts_ok && ci < parts.size(); ++ci) {
      const auto& row = fleet->candidates[ci];
      parts_ok = parts_ok && parts[ci] == row.gpu;
      seeds_ok = seeds_ok && seeds[ci] == row.seed;
      if (!row.feasible) {
        continue;
      }
      for (size_t i = 0; i < system.streams.size(); ++i) {
        const Stream& stream = system.streams[i];
        if (stream.scenario == si && stream.candidate == ci &&
            static_cast<int>(stream.point) == row.knee_index) {
          knees_ok = knees_ok && metrics[i] &&
                     metrics[i]->decode_tokens_per_s == row.knee_goodput_tokens_per_s;
        }
      }
    }
    checks.Expect("replay.resolved_parts", parts_ok, "replayed part names match the report");
    checks.Expect("replay.candidate_seeds", seeds_ok, "replayed seeds match the report");
    checks.Expect("replay.knee_goodput", knees_ok,
                  "replayed goodput at every knee equals the report's");
  }

  const double search_s =
      recorder.SelfSeconds("core.search") + recorder.SelfSeconds("core.derive");
  const double table_s = recorder.SelfSeconds("perf.table.build");
  const double gen_s = recorder.SelfSeconds("serve.workload.gen");
  const double sim_s = recorder.SelfSeconds("serve.sim");
  double requests = 0.0;
  for (size_t n : generated) {
    requests += static_cast<double>(n);
  }
  const double platform_s = recorder.SelfSeconds("core.platform");

  Json m = Json::Object();
  m.Set("core.scenario.parse_s", recorder.SelfSeconds("core.scenario.parse"))
      .Set("core.search.s", search_s)
      .Set("core.search.calls", system.search_calls)
      .Set("perf.cache.hit_rate", system.search_cache.HitRate())
      .Set("perf.table.build_s", table_s)
      .Set("perf.table.builds", recorder.Count("perf.table.build"))
      .Set("serve.workload.gen_s", gen_s)
      .Set("serve.workload.requests", requests)
      .Set("serve.workload.ns_per_request", requests > 0 ? gen_s * 1e9 / requests : 0.0)
      .Set("serve.sim.s", sim_s)
      .Set("serve.sim.points", recorder.Count("serve.sim"))
      .Set("serve.sim.ns_per_request", sim_requests > 0 ? sim_s * 1e9 / sim_requests : 0.0)
      .Set("serve.sim.ns_per_output_token",
           sim_output_tokens > 0 ? sim_s * 1e9 / sim_output_tokens : 0.0)
      .Set("serve.faults.events", fault_events)
      .Set("serve.faults.retried", retried)
      .Set("serve.faults.shed", shed)
      .Set("serve.scale.events", scale_events)
      .Set("serve.scale.peak_decode_instances", peak_decode)
      .Set("core.runner.residual_s",
           untraced.seconds - (search_s + platform_s + table_s + gen_s + sim_s))
      .Set("util.json.emit_s", recorder.SelfSeconds("util.json.emit"))
      .Set("util.json.bytes", static_cast<uint64_t>(emitted.size()))
      .Set("util.thread_pool.speedup", untraced.seconds / pooled.seconds)
      .Set("trace.overhead_s", traced.seconds - untraced.seconds);

  WriteFile(spans_out, recorder.ToJson().Dump() + "\n");
  Json out = Json::Object();
  out.Set("metrics", std::move(m)).Set("checks", checks.Take());
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "setup" && argc == 4) {
      return Setup(argv[2], std::stod(argv[3]));
    }
    if (mode == "spawn" && argc >= 5) {
      return Spawn(static_cast<unsigned>(std::stoul(argv[2])), argv[3], argv + 4);
    }
    if (mode == "trace" && argc == 6) {
      return Trace(argv[2], std::stoi(argv[3]), argv[4], argv[5]);
    }
    std::fprintf(stderr,
                 "usage: perfbench_probe setup <scenario.json> <min_seconds>\n"
                 "       perfbench_probe spawn <timeout_s> <stdout_file> <program> [args...]\n"
                 "       perfbench_probe trace <scenario.json> <pool_threads> <report_out> "
                 "<spans_out>\n");
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
