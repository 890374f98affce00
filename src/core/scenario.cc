#include "src/core/scenario.h"

#include <algorithm>
#include <cmath>

#include "src/core/knob_table.h"
#include "src/hw/catalog.h"

namespace litegpu {

// --- enum names -------------------------------------------------------------
// One names array per enum this file owns, indexed by the enum's value. It
// feeds ToString, the Parse* function and the scenario reader's
// did-you-mean hint.

namespace {

constexpr const char* kStudyNames[] = {"search", "fig3a",  "fig3b", "design",      "mcsim",
                                       "yield",  "derive", "serve", "serve-sweep", "fleet-compare"};
constexpr const char* kArrivalKindNames[] = {"poisson", "diurnal", "onoff", "trace"};
constexpr const char* kAutoscalerPolicyNames[] = {"none", "reactive", "predictive"};

template <typename E, size_t N>
std::optional<E> ParseName(const char* const (&names)[N], const std::string& name) {
  for (size_t i = 0; i < N; ++i) {
    if (name == names[i]) {
      return static_cast<E>(i);
    }
  }
  return std::nullopt;
}

}  // namespace

std::string ToString(StudyKind kind) { return kStudyNames[static_cast<size_t>(kind)]; }

std::optional<StudyKind> ParseStudyKind(const std::string& name) {
  return ParseName<StudyKind>(kStudyNames, name);
}

std::string ToString(ArrivalKind kind) { return kArrivalKindNames[static_cast<size_t>(kind)]; }

std::optional<ArrivalKind> ParseArrivalKind(const std::string& name) {
  return ParseName<ArrivalKind>(kArrivalKindNames, name);
}

std::string ToString(AutoscalerPolicy policy) {
  return kAutoscalerPolicyNames[static_cast<size_t>(policy)];
}

std::optional<AutoscalerPolicy> ParseAutoscalerPolicy(const std::string& name) {
  return ParseName<AutoscalerPolicy>(kAutoscalerPolicyNames, name);
}

// --- knob tables ------------------------------------------------------------
// One table per knob block (see src/core/knob_table.h). Only the arrival
// process, a tagged union, needs a codec of its own.

namespace {

using knob::As;
using knob::AtLeast;
using knob::AtMost;
using knob::Block;
using knob::BlockRow;
using knob::CheckFields;
using knob::CheckKeys;
using knob::EnumNames;
using knob::EnumRow;
using knob::Fail;
using knob::Field;
using knob::FirstProblem;
using knob::Fraction;
using knob::Label;
using knob::MakeBlock;
using knob::Namer;
using knob::NamesOf;
using knob::Positive;
using knob::ReadBlock;
using knob::Row;
using knob::SameBlock;
using knob::Splice;
using knob::Within;
using knob::WriteBlock;

knob::Bound Instances(int min, const char* note = nullptr) {
  return Within(min, kMaxPoolInstances, note);
}

const Block& ArrivalBlock(ArrivalKind kind);

// The arrival process is a tagged union: its `kind` picks the table the rest
// of the object is read and written with. Every kind's table starts with the
// kind row, so the Poisson table (that row alone) reads the tag first.
bool ReadArrival(const Json& obj, const std::string& where, ArrivalProcess& out,
                 std::string* error) {
  return knob::ReadFields(ArrivalBlock(ArrivalKind::kPoisson), obj, where, &out, error) &&
         ReadBlock(ArrivalBlock(out.kind), obj, where, &out, error);
}

}  // namespace

namespace knob {

template <>
struct Ops<ArrivalProcess> {
  static bool Read(const Field& f, const Json& value, const std::string& where, void* member,
                   std::string* error) {
    return ReadArrival(value, Label(where, f.key), As<ArrivalProcess>(member), error);
  }
  static Json Write(const Field&, const void* member) {
    return ArrivalProcessToJson(As<ArrivalProcess>(member));
  }
  static bool Same(const Field&, const void* a, const void* b) {
    ArrivalKind kind = As<ArrivalProcess>(a).kind;
    return kind == As<ArrivalProcess>(b).kind && SameBlock(ArrivalBlock(kind), a, b);
  }
  static std::string Check(const Field&, const void*, const std::string&) { return ""; }
};

}  // namespace knob

namespace {

// --- the tables ---

const Block& WorkloadBlock() {
  static const Block block = MakeBlock<WorkloadParams>({
      Row<&WorkloadParams::prompt_tokens>("prompt_tokens", Positive()),
      Row<&WorkloadParams::output_tokens>("output_tokens", Positive()),
      Row<&WorkloadParams::ttft_slo_s>("ttft_slo_s", Positive()),
      Row<&WorkloadParams::tbt_slo_s>("tbt_slo_s", Positive()),
      Row<&WorkloadParams::enforce_memory_capacity>("enforce_memory_capacity"),
  });
  return block;
}

const Block& DesignBlock() {
  static const EnumNames yield_models = NamesOf<YieldModel>("yield_model", 4);
  static const Block block = MakeBlock<DesignKnobs>({
      Row<&DesignKnobs::hbm_usd_per_gb>("hbm_usd_per_gb", AtLeast(0)),
      Row<&DesignKnobs::gpu_price_multiplier>("gpu_price_multiplier", Positive()),
      Row<&DesignKnobs::amortization_years>("amortization_years", Positive()),
      EnumRow<&DesignKnobs::yield_model>("yield_model", yield_models),
  });
  return block;
}

const Block& McSimBlock() {
  static const Block block = MakeBlock<McSimKnobs>({
      Row<&McSimKnobs::gpus_per_instance>("gpus_per_instance", Positive()),
      Row<&McSimKnobs::num_instances>("num_instances", Instances(1)),
      Row<&McSimKnobs::num_spares>("num_spares", AtLeast(0)),
      Row<&McSimKnobs::sim_years>("sim_years", Positive()),
      Row<&McSimKnobs::seed>("seed"),
      Row<&McSimKnobs::num_trials>("num_trials", AtLeast(1)),
  });
  return block;
}

const Block& YieldBlock() {
  static const Block block = MakeBlock<YieldKnobs>({
      Row<&YieldKnobs::defect_density_per_cm2>("defect_density_per_cm2", AtLeast(0)),
      Row<&YieldKnobs::cluster_alpha>("cluster_alpha"),
      Row<&YieldKnobs::die_area_mm2>("die_area_mm2", Positive()),
      Row<&YieldKnobs::split>("split", AtLeast(1)),
  });
  return block;
}

const Block& DeriveBlock() {
  static const Block block = MakeBlock<DeriveKnobs>({
      Row<&DeriveKnobs::base_gpu>("base_gpu"),
      Row<&DeriveKnobs::split>("split", AtLeast(1)),
      Row<&DeriveKnobs::mem_bw_multiplier>("mem_bw_multiplier", Positive()),
      Row<&DeriveKnobs::net_bw_multiplier>("net_bw_multiplier", Positive()),
      Row<&DeriveKnobs::overclock>("overclock", Positive()),
  });
  return block;
}

const Block& ArrivalBlock(ArrivalKind kind) {
  static const EnumNames kinds = NamesOf("arrival kind", kArrivalKindNames);
  static const Field kind_row = EnumRow<&ArrivalProcess::kind>("kind", kinds);
  static const Block blocks[] = {
      MakeBlock<ArrivalProcess>({kind_row}),
      MakeBlock<ArrivalProcess>({
          kind_row,
          Row<&ArrivalProcess::period_s>("period_s", AtLeast(0, "(0 = one period per horizon)")),
          Row<&ArrivalProcess::multipliers>("multipliers", AtLeast(0)),
      }),
      MakeBlock<ArrivalProcess>({
          kind_row,
          Row<&ArrivalProcess::on_mean_s>("on_mean_s", Positive()),
          Row<&ArrivalProcess::off_mean_s>("off_mean_s", Positive()),
          Row<&ArrivalProcess::on_multiplier>("on_multiplier", AtLeast(0)),
          Row<&ArrivalProcess::off_multiplier>("off_multiplier", AtLeast(0)),
      }),
      MakeBlock<ArrivalProcess>({kind_row, Row<&ArrivalProcess::times_s>("times_s", AtLeast(0))}),
  };
  return blocks[static_cast<size_t>(kind)];
}

const Block& AutoscalerBlock() {
  static const EnumNames policies = NamesOf("autoscaler policy", kAutoscalerPolicyNames);
  // Writing an autoscaler block at all means you want one: the policy
  // defaults to reactive there (an explicit "none" still turns it off).
  static const Block block = MakeBlock<AutoscalerKnobs>(
      {
          EnumRow<&AutoscalerKnobs::policy>("policy", policies),
          Row<&AutoscalerKnobs::interval_s>("interval_s", Positive()),
          Row<&AutoscalerKnobs::delay_s>("delay_s", AtLeast(0)),
          Row<&AutoscalerKnobs::min_prefill_instances>("min_prefill_instances", Instances(1)),
          Row<&AutoscalerKnobs::max_prefill_instances>("max_prefill_instances",
                                                       AtMost(kMaxPoolInstances)),
          Row<&AutoscalerKnobs::min_decode_instances>("min_decode_instances", Instances(1)),
          Row<&AutoscalerKnobs::max_decode_instances>("max_decode_instances",
                                                      AtMost(kMaxPoolInstances)),
          Row<&AutoscalerKnobs::scale_up_backlog_s>("scale_up_backlog_s", Positive()),
          Row<&AutoscalerKnobs::scale_up_utilization>("scale_up_utilization", Positive()),
          Row<&AutoscalerKnobs::scale_down_utilization>("scale_down_utilization", AtLeast(0)),
          Row<&AutoscalerKnobs::forecast_window_s>("forecast_window_s", Positive()),
          Row<&AutoscalerKnobs::headroom>("headroom", Positive()),
      },
      nullptr,
      [](void* knobs) { As<AutoscalerKnobs>(knobs).policy = AutoscalerPolicy::kReactive; });
  return block;
}

// The keys after target_attainment emit only when set, so a faults block
// from before they existed (and every report echoing one) serializes
// byte-identically.
const Block& FaultBlock() {
  static const EnumNames retry_policies = NamesOf<FaultRetryPolicy>("retry policy", 3);
  static const Block block = MakeBlock<FaultKnobs>({
      Row<&FaultKnobs::afr>("afr", AtLeast(0)),
      Row<&FaultKnobs::floor_afr>("floor_afr", AtLeast(0)),
      Row<&FaultKnobs::mttr_hours>("mttr_hours", Positive()),
      Row<&FaultKnobs::spare_activation_minutes>("spare_activation_minutes", AtLeast(0)),
      Row<&FaultKnobs::hot_spares>("hot_spares", AtLeast(0)),
      EnumRow<&FaultKnobs::retry_policy>("retry_policy", retry_policies),
      Row<&FaultKnobs::retry_budget>("retry_budget", AtLeast(0)),
      Row<&FaultKnobs::target_attainment>("target_attainment", Fraction()),
      Row<&FaultKnobs::domain_gpus>("domain_gpus", AtLeast(0)).UnlessDefault(),
      Row<&FaultKnobs::domain_afr>("domain_afr", AtLeast(0)).UnlessDefault(),
      Row<&FaultKnobs::domain_mttr_hours>("domain_mttr_hours",
                                          AtLeast(0, "(0 = inherit mttr_hours)"))
          .UnlessDefault(),
      Row<&FaultKnobs::degrade_afr>("degrade_afr", AtLeast(0)).UnlessDefault(),
      Row<&FaultKnobs::degrade_multiplier>("degrade_multiplier", AtLeast(1)).UnlessDefault(),
      Row<&FaultKnobs::degrade_minutes>("degrade_minutes", AtLeast(0)).UnlessDefault(),
      Row<&FaultKnobs::shed_queue_depth>("shed_queue_depth", AtLeast(0)).UnlessDefault(),
      Row<&FaultKnobs::shed_ttft_deadline_s>("shed_ttft_deadline_s", AtLeast(0)).UnlessDefault(),
  });
  return block;
}

const Block& ClassBlock() {
  static const Block block = MakeBlock<RequestClass>(
      {
          Row<&RequestClass::name>("name"),
          Row<&RequestClass::weight>("weight", Positive()),
          Row<&RequestClass::prompt_tokens>("prompt_tokens", Positive()),
          Row<&RequestClass::prompt_sigma>("prompt_sigma", AtLeast(0)),
          Row<&RequestClass::output_tokens>("output_tokens", Positive()),
          Row<&RequestClass::output_sigma>("output_sigma", AtLeast(0)),
          Row<&RequestClass::ttft_slo_s>("ttft_slo_s", AtLeast(0, "(0 = inherit)")),
          Row<&RequestClass::tbt_slo_s>("tbt_slo_s", AtLeast(0, "(0 = inherit)")),
      },
      "class");
  return block;
}

// Shared by the serve and sweep blocks. The keys from `arrival` on emit only
// when set, so scenarios from before they existed serialize byte-identically.
const Block& ServeCommonBlock() {
  static const Block block = MakeBlock<ServeCommonKnobs>({
      Row<&ServeCommonKnobs::horizon_s>("horizon_s", Positive()),
      Row<&ServeCommonKnobs::prefill_instances>("prefill_instances",
                                                Instances(0, "(0 = auto-size)")),
      Row<&ServeCommonKnobs::decode_instances>("decode_instances", Instances(1)),
      Row<&ServeCommonKnobs::prompt_sigma>("prompt_sigma", AtLeast(0)),
      Row<&ServeCommonKnobs::output_sigma>("output_sigma", AtLeast(0)),
      Row<&ServeCommonKnobs::seed>("seed"),
      Row<&ServeCommonKnobs::arrival>("arrival").UnlessDefault(),
      BlockRow<&ServeCommonKnobs::autoscaler>("autoscaler", AutoscalerBlock())
          .When([](const void* knobs) {
            return As<ServeCommonKnobs>(knobs).autoscaler.enabled();
          }),
      BlockRow<&ServeCommonKnobs::faults>("faults", FaultBlock()).UnlessDefault(),
      BlockRow<&ServeCommonKnobs::classes>("classes", ClassBlock()).UnlessDefault(),
      Row<&ServeCommonKnobs::shards>("shards", Within(0, 1024)).When([](const void* knobs) {
        return As<ServeCommonKnobs>(knobs).shards >= 2;
      }),
  });
  return block;
}

const Block& ServeBlock() {
  static const Block block = MakeBlock<ServeKnobs>({
      Row<&ServeKnobs::load>("load"),
      Row<&ServeKnobs::arrival_rate_per_s>("arrival_rate_per_s", AtLeast(0)),
      Splice<ServeKnobs, ServeCommonKnobs>(ServeCommonBlock()),
  });
  return block;
}

const Block& SweepBlock() {
  static const Block block = MakeBlock<ServeSweepKnobs>({
      Row<&ServeSweepKnobs::loads>("loads").UnlessDefault(),
      Row<&ServeSweepKnobs::rates>("rates").UnlessDefault(),
      Row<&ServeSweepKnobs::load_lo>("load_lo"),
      Row<&ServeSweepKnobs::load_hi>("load_hi"),
      Row<&ServeSweepKnobs::load_step>("load_step"),
      Splice<ServeSweepKnobs, ServeCommonKnobs>(ServeCommonBlock()),
  });
  return block;
}

const Block& CandidateBlock() {
  static const Block block = MakeBlock<FleetCandidate>(
      {
          Row<&FleetCandidate::name>("name"),
          Row<&FleetCandidate::gpu>("gpu"),
          Row<&FleetCandidate::split>("split", AtLeast(1)),
          Row<&FleetCandidate::mem_bw_multiplier>("mem_bw_multiplier", Positive()),
          Row<&FleetCandidate::net_bw_multiplier>("net_bw_multiplier", Positive()),
          Row<&FleetCandidate::overclock>("overclock", Positive()),
          Row<&FleetCandidate::prefill_instances>("prefill_instances",
                                                  Instances(0, "(0 = auto-size)")),
          Row<&FleetCandidate::decode_instances>("decode_instances", Instances(1)),
      },
      "candidate");
  return block;
}

const Block& FleetBlock() {
  static const Block block = MakeBlock<FleetKnobs>({
      BlockRow<&FleetKnobs::candidates>("candidates", CandidateBlock()),
      Row<&FleetKnobs::loads>("loads").UnlessDefault(),
      Row<&FleetKnobs::load_lo>("load_lo"),
      Row<&FleetKnobs::load_hi>("load_hi"),
      Row<&FleetKnobs::load_step>("load_step"),
      Row<&FleetKnobs::horizon_s>("horizon_s", Positive()),
      Row<&FleetKnobs::prompt_sigma>("prompt_sigma", AtLeast(0)),
      Row<&FleetKnobs::output_sigma>("output_sigma", AtLeast(0)),
      Row<&FleetKnobs::seed>("seed"),
      Row<&FleetKnobs::hbm_usd_per_gb>("hbm_usd_per_gb", AtLeast(0)),
      Row<&FleetKnobs::gpu_price_multiplier>("gpu_price_multiplier", Positive()),
      Row<&FleetKnobs::depreciation_months>("depreciation_months", Positive()),
      Row<&FleetKnobs::electricity_usd_per_kwh>("electricity_usd_per_kwh", AtLeast(0)),
      Row<&FleetKnobs::gpu_utilization>("gpu_utilization", Fraction()),
  });
  return block;
}

const Block& ExecBlock() {
  static const Block block = MakeBlock<ExecPolicy>({Row<&ExecPolicy::threads>("threads")});
  return block;
}

template <StudyKind kStudy>
bool StudyIs(const void* scenario) {
  return As<Scenario>(scenario).study == kStudy;
}

// The top level. Each study-specific block emits only for its own study.
const Block& ScenarioBlock() {
  static const EnumNames studies = NamesOf("study", kStudyNames);
  static const EnumNames kv_policies = NamesOf<KvShardPolicy>("kv_policy", 2);
  static const Block block = MakeBlock<Scenario>({
      Row<&Scenario::name>("name").UnlessDefault(),
      EnumRow<&Scenario::study>("study", studies),
      Row<&Scenario::models>("models").UnlessDefault(),
      Row<&Scenario::gpus>("gpus").UnlessDefault(),
      Row<&Scenario::baseline_gpu>("baseline_gpu"),
      BlockRow<&Scenario::workload>("workload", WorkloadBlock()),
      EnumRow<&Scenario::kv_policy>("kv_policy", kv_policies),
      Row<&Scenario::max_batch>("max_batch", AtLeast(1)),
      BlockRow<&Scenario::design>("design", DesignBlock()).When(StudyIs<StudyKind::kDesign>),
      BlockRow<&Scenario::mcsim>("mcsim", McSimBlock()).When(StudyIs<StudyKind::kMcSim>),
      BlockRow<&Scenario::yield>("yield", YieldBlock()).When(StudyIs<StudyKind::kYield>),
      BlockRow<&Scenario::derive>("derive", DeriveBlock()).When(StudyIs<StudyKind::kDerive>),
      BlockRow<&Scenario::serve>("serve", ServeBlock()).When(StudyIs<StudyKind::kServe>),
      BlockRow<&Scenario::sweep>("sweep", SweepBlock()).When(StudyIs<StudyKind::kServeSweep>),
      BlockRow<&Scenario::fleet>("fleet", FleetBlock()).When(StudyIs<StudyKind::kFleetCompare>),
      BlockRow<&Scenario::exec>("exec", ExecBlock()),
  });
  return block;
}

bool UsesPerfSearch(StudyKind study) {
  return study == StudyKind::kSearch || study == StudyKind::kFig3a ||
         study == StudyKind::kFig3b || study == StudyKind::kDesign ||
         study == StudyKind::kServe || study == StudyKind::kServeSweep ||
         study == StudyKind::kFleetCompare;
}

}  // namespace

std::vector<double> ExpandGridRange(double lo, double hi, double step) {
  std::vector<double> grid;
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step) || step <= 0.0 ||
      hi < lo) {
    return grid;
  }
  // Integer stepping avoids accumulated float drift dropping the endpoint;
  // the epsilon admits hi itself when (hi - lo) is a near-exact multiple.
  // The cap keeps a degenerate step from expanding into a multi-GB vector
  // (or overflowing the int cast, which is UB); 1e6 points is far past any
  // sweep a study could run, so over-cap ranges report as an empty grid.
  double count_minus_one = (hi - lo) / step + 1e-9;
  if (count_minus_one >= 1e6) {
    return grid;
  }
  int count = static_cast<int>(count_minus_one) + 1;
  grid.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    grid.push_back(lo + i * step);
  }
  return grid;
}

ClassMixSummary SummarizeClassMix(const std::vector<RequestClass>& classes) {
  ClassMixSummary mix;
  double total_weight = 0.0;
  for (const RequestClass& cls : classes) {
    total_weight += cls.weight;
  }
  if (total_weight <= 0.0) {
    mix.shares.assign(classes.size(), 0.0);
    return mix;
  }
  mix.shares.reserve(classes.size());
  for (const RequestClass& cls : classes) {
    double share = cls.weight / total_weight;
    mix.shares.push_back(share);
    mix.mean_prompt_tokens += share * cls.prompt_tokens;
    mix.mean_output_tokens += share * cls.output_tokens;
  }
  return mix;
}

// --- validation: the table bounds, then the cross-field rules ---------------

std::string ValidateRequestClasses(const std::vector<RequestClass>& classes,
                                   const std::string& where) {
  const Namer<RequestClass> name(ClassBlock(), "");
  const std::string list = Namer<ServeCommonKnobs>(ServeCommonBlock(), where)
                               .Path(&ServeCommonKnobs::classes);
  for (size_t i = 0; i < classes.size(); ++i) {
    const RequestClass& cls = classes[i];
    std::string label = list + "[" + std::to_string(i) + "]";
    if (cls.name.empty()) {
      return label + " needs a non-empty " + name.Key(&RequestClass::name);
    }
    for (size_t j = 0; j < i; ++j) {
      if (classes[j].name == cls.name) {
        return list + " has duplicate " + name.Key(&RequestClass::name) + " '" + cls.name + "'";
      }
    }
    // The two SLOs share one message: 0 inherits the workload's SLO.
    if (!(cls.ttft_slo_s >= 0.0) || !(cls.tbt_slo_s >= 0.0) || !std::isfinite(cls.ttft_slo_s) ||
        !std::isfinite(cls.tbt_slo_s)) {
      return label + " ('" + cls.name + "') SLOs must be >= 0 (0 = inherit) and finite";
    }
    if (std::string problem = CheckFields(ClassBlock(), &cls, label); !problem.empty()) {
      return problem;
    }
  }
  return "";
}

std::string ValidateArrivalProcess(const ArrivalProcess& process, const std::string& where) {
  const Block& block = ArrivalBlock(process.kind);
  if (std::string problem = CheckFields(block, &process, where); !problem.empty()) {
    return problem;
  }
  const Namer<ArrivalProcess> name(block, where);
  switch (process.kind) {
    case ArrivalKind::kPoisson:
      return "";
    case ArrivalKind::kDiurnal:
      if (process.multipliers.empty()) {
        return name.Path(&ArrivalProcess::multipliers) + " must be a non-empty rate curve";
      }
      if (*std::max_element(process.multipliers.begin(), process.multipliers.end()) <= 0.0) {
        return name.Path(&ArrivalProcess::multipliers) +
               " must contain at least one positive point";
      }
      return "";
    case ArrivalKind::kOnOff:
      if (process.on_multiplier <= 0.0 && process.off_multiplier <= 0.0) {
        return where + " needs a positive " + name.Key(&ArrivalProcess::on_multiplier) + " or " +
               name.Key(&ArrivalProcess::off_multiplier);
      }
      return "";
    case ArrivalKind::kTrace:
      if (process.times_s.empty()) {
        return name.Path(&ArrivalProcess::times_s) +
               " must be a non-empty ascending list of arrival times";
      }
      if (!std::is_sorted(process.times_s.begin(), process.times_s.end())) {
        return name.Path(&ArrivalProcess::times_s) + " must be ascending";
      }
      return "";
  }
  return "";
}

std::string ValidateAutoscalerKnobs(const AutoscalerKnobs& knobs, const std::string& where) {
  if (!knobs.enabled()) {
    return "";
  }
  const Namer<AutoscalerKnobs> name(AutoscalerBlock(), where);
  if (std::string problem = CheckFields(AutoscalerBlock(), &knobs, where); !problem.empty()) {
    return problem;
  }
  if (knobs.max_prefill_instances < knobs.min_prefill_instances ||
      knobs.max_decode_instances < knobs.min_decode_instances) {
    return where + " instance bounds need max >= min";
  }
  if (knobs.scale_down_utilization >= knobs.scale_up_utilization) {
    return name.Path(&AutoscalerKnobs::scale_down_utilization) + " must be below " +
           name.Key(&AutoscalerKnobs::scale_up_utilization);
  }
  return "";
}

std::string ValidateFaultKnobs(const FaultKnobs& knobs, const std::string& where) {
  // Validated even at afr 0: a disabled block with a nonsense MTTR is a
  // latent mistake that would only surface when someone turns faults on.
  const Namer<FaultKnobs> name(FaultBlock(), where);
  if (std::string problem = CheckFields(FaultBlock(), &knobs, where); !problem.empty()) {
    return problem;
  }
  if (knobs.hot_spares > 0 && knobs.spare_activation_minutes >= knobs.mttr_hours * 60.0) {
    // Activation at or beyond the repair time silently degenerates to the
    // no-spare path (the spare never saves any downtime); reject it as a
    // latent mistake rather than letting the knob read as a no-op.
    return name.Path(&FaultKnobs::spare_activation_minutes) + " must be < " +
           name.Key(&FaultKnobs::mttr_hours) +
           " * 60 (a slower-than-repair spare never activates)";
  }
  if (knobs.retry_policy == FaultRetryPolicy::kRetryWithBudget && knobs.retry_budget < 1) {
    return name.Path(&FaultKnobs::retry_budget) + " must be >= 1 under " +
           ToString(FaultRetryPolicy::kRetryWithBudget);
  }
  if (knobs.domain_afr > 0.0 && !(knobs.domain_gpus > 0.0)) {
    return name.Path(&FaultKnobs::domain_afr) + " requires " + name.Key(&FaultKnobs::domain_gpus) +
           " > 0 (the domain size)";
  }
  if (knobs.degrade_afr > 0.0 &&
      (!(knobs.degrade_multiplier > 1.0) || !(knobs.degrade_minutes > 0.0))) {
    return name.Path(&FaultKnobs::degrade_afr) + " requires " +
           name.Key(&FaultKnobs::degrade_multiplier) + " > 1 and " +
           name.Key(&FaultKnobs::degrade_minutes) + " > 0";
  }
  return "";
}

namespace {

// The nested blocks and cross-field rules of the per-point knobs the serve
// and sweep blocks share; their scalar rows are checked with the block.
std::string ValidateServeCommonKnobs(const ServeCommonKnobs& knobs, const std::string& where) {
  const Namer<ServeCommonKnobs> name(ServeCommonBlock(), where);
  std::string problem =
      FirstProblem({ValidateArrivalProcess(knobs.arrival, name.Path(&ServeCommonKnobs::arrival)),
                    ValidateAutoscalerKnobs(knobs.autoscaler,
                                            name.Path(&ServeCommonKnobs::autoscaler)),
                    ValidateFaultKnobs(knobs.faults, name.Path(&ServeCommonKnobs::faults))});
  if (!problem.empty()) {
    return problem;
  }
  if (knobs.shards >= 2) {
    // Shards are independent replications of the same stationary process;
    // anything whose behavior depends on absolute time across the horizon
    // would be distorted by splitting it.
    const std::string shards = name.Path(&ServeCommonKnobs::shards) + " requires ";
    if (knobs.autoscaler.enabled()) {
      return shards + "the " + name.Key(&ServeCommonKnobs::autoscaler) + " to be disabled";
    }
    if (knobs.faults.enabled()) {
      return shards + name.Key(&ServeCommonKnobs::faults) + " to be disabled";
    }
    if (knobs.faults.shed_queue_depth > 0 || knobs.faults.shed_ttft_deadline_s > 0.0) {
      // Shedding reacts to the instantaneous queue depth, which splitting
      // the horizon would reset at every shard boundary.
      return shards + "load shedding to be disabled";
    }
    if (knobs.arrival.kind == ArrivalKind::kDiurnal || knobs.arrival.kind == ArrivalKind::kTrace) {
      return shards + "a stationary arrival process (" + ToString(ArrivalKind::kPoisson) + " or " +
             ToString(ArrivalKind::kOnOff) + ")";
    }
  }
  return ValidateRequestClasses(knobs.classes, where);
}

// Load grids: explicit points must be positive; a range needs a positive
// step and must expand to at least one point.
std::string ValidateGrid(const std::vector<double>& grid, bool explicit_points, double step,
                         const std::string& where, const std::string& step_key,
                         const std::string& grid_spelling) {
  if (!explicit_points && step <= 0.0) {
    return Label(where, step_key) + " must be positive";
  }
  if (grid.empty()) {
    return where + " grid is empty (check " + grid_spelling + ")";
  }
  for (double point : grid) {
    // NaN fails the comparison, so it is rejected here too.
    if (!(point > 0.0) || !std::isfinite(point)) {
      return where + " grid points must be positive and finite";
    }
  }
  return "";
}

// `study_name` reads "study '<kind>'".
std::string ExactlyOne(const std::string& study_name, const char* what, size_t count) {
  if (count == 1) {
    return "";
  }
  return study_name + " simulates exactly one " + what + " (got " + std::to_string(count) + ")";
}

}  // namespace

std::vector<double> ServeSweepKnobs::GridPoints() const {
  if (!rates.empty()) {
    return rates;
  }
  if (!loads.empty()) {
    return loads;
  }
  return ExpandGridRange(load_lo, load_hi, load_step);
}

std::vector<double> FleetKnobs::GridPoints() const {
  if (!loads.empty()) {
    return loads;
  }
  return ExpandGridRange(load_lo, load_hi, load_step);
}

std::vector<std::string> Scenario::ResolvedModels() const {
  if (!models.empty()) {
    return models;
  }
  switch (study) {
    case StudyKind::kMcSim:
    case StudyKind::kYield:
    case StudyKind::kDerive:
      return {};
    case StudyKind::kServe:
    case StudyKind::kServeSweep:
    case StudyKind::kFleetCompare:
      // The serving simulations run one model end-to-end.
      return {Llama3_70B().name};
    default: {
      std::vector<std::string> names;
      for (const auto& m : CaseStudyModels()) {
        names.push_back(m.name);
      }
      return names;
    }
  }
}

std::vector<std::string> Scenario::ResolvedGpus() const {
  if (!gpus.empty()) {
    return gpus;
  }
  switch (study) {
    case StudyKind::kFig3a:
      return {H100().name, Lite().name, LiteNetBw().name, LiteNetBwFlops().name};
    case StudyKind::kFig3b:
      return {H100().name, Lite().name, LiteMemBw().name, LiteMemBwNetBw().name};
    case StudyKind::kDesign: {
      std::vector<std::string> names;
      for (const auto& g : Table1Configs()) {
        names.push_back(g.name);
      }
      return names;
    }
    case StudyKind::kSearch:
    case StudyKind::kMcSim:
    case StudyKind::kServe:
    case StudyKind::kServeSweep:
      return {H100().name};
    case StudyKind::kFleetCompare: {
      // The candidates carry their own base parts; the resolved list is the
      // distinct bases, so the generic unknown-GPU check covers them.
      std::vector<std::string> names;
      for (const FleetCandidate& c : fleet.candidates) {
        if (std::find(names.begin(), names.end(), c.gpu) == names.end()) {
          names.push_back(c.gpu);
        }
      }
      return names;
    }
    case StudyKind::kYield:
    case StudyKind::kDerive:
      return {};
  }
  return {};
}

SearchOptions Scenario::MakeSearchOptions() const {
  SearchOptions options;
  options.workload = workload;
  options.kv_policy = kv_policy;
  options.max_batch = max_batch;
  options.exec = exec;
  return options;
}

std::string Scenario::Validate() const {
  const Namer<Scenario> name(ScenarioBlock(), "");
  const std::string study_name =
      name.Key(&Scenario::study) + " '" + litegpu::ToString(study) + "'";
  if (UsesPerfSearch(study)) {
    std::string problem =
        FirstProblem({CheckFields(WorkloadBlock(), &workload, name.Key(&Scenario::workload)),
                      CheckFields(ScenarioBlock(), this, "")});
    if (!problem.empty()) {
      return problem;
    }
    for (const std::string& model : ResolvedModels()) {
      if (!FindModel(model)) {
        return "unknown model '" + model + "' (try `litegpu list`)";
      }
    }
  }
  const Namer<FleetKnobs> fleet_name(FleetBlock(), name.Key(&Scenario::fleet));
  if (study == StudyKind::kYield || study == StudyKind::kDerive) {
    // These studies read their own knob blocks; accepting models/gpus here
    // would silently ignore them (derive targets derive.base_gpu).
    if (!models.empty() || !gpus.empty()) {
      return study_name + " does not take " + name.Key(&Scenario::models) + "/" +
             name.Key(&Scenario::gpus) + " lists";
    }
  } else {
    std::vector<std::string> resolved = ResolvedGpus();
    if (resolved.empty()) {
      return study == StudyKind::kFleetCompare
                 ? fleet_name.Path(&FleetKnobs::candidates) + " must be non-empty"
                 : "scenario needs at least one GPU";
    }
    for (const std::string& gpu : resolved) {
      if (!FindGpu(gpu)) {
        return "unknown GPU '" + gpu + "' (try `litegpu list`)";
      }
    }
    if ((study == StudyKind::kFig3a || study == StudyKind::kFig3b) &&
        std::find(resolved.begin(), resolved.end(), baseline_gpu) == resolved.end()) {
      return name.Key(&Scenario::baseline_gpu) + " '" + baseline_gpu +
             "' is not in the scenario's GPU list";
    }
  }
  switch (study) {
    case StudyKind::kMcSim:
      if (!models.empty()) {
        return study_name + " does not take a " + name.Key(&Scenario::models) + " list";
      }
      return FirstProblem({ExactlyOne(study_name, "GPU type", ResolvedGpus().size()),
                           CheckFields(McSimBlock(), &mcsim, name.Key(&Scenario::mcsim))});
    case StudyKind::kYield:
      return CheckFields(YieldBlock(), &yield, name.Key(&Scenario::yield));
    case StudyKind::kDerive: {
      const Namer<DeriveKnobs> derive_name(DeriveBlock(), name.Key(&Scenario::derive));
      if (!FindGpu(derive.base_gpu)) {
        return "unknown " + derive_name.Path(&DeriveKnobs::base_gpu) + " '" + derive.base_gpu +
               "'";
      }
      return CheckFields(DeriveBlock(), &derive, derive_name.where());
    }
    case StudyKind::kDesign:
      return CheckFields(DesignBlock(), &design, name.Key(&Scenario::design));
    case StudyKind::kServe: {
      const Namer<ServeKnobs> serve_name(ServeBlock(), name.Key(&Scenario::serve));
      // A trace needs neither a load nor a rate: its times fix the offered rate.
      bool no_rate = serve.load <= 0.0 && serve.arrival_rate_per_s <= 0.0 &&
                     serve.arrival.kind != ArrivalKind::kTrace;
      return FirstProblem({ExactlyOne(study_name, "model", ResolvedModels().size()),
                           ExactlyOne(study_name, "GPU type", ResolvedGpus().size()),
                           no_rate ? serve_name.where() + " needs a positive " +
                                         serve_name.Key(&ServeKnobs::load) + " fraction or " +
                                         serve_name.Key(&ServeKnobs::arrival_rate_per_s)
                                   : "",
                           CheckFields(ServeBlock(), &serve, serve_name.where()),
                           ValidateServeCommonKnobs(serve, serve_name.where())});
    }
    case StudyKind::kServeSweep: {
      const Namer<ServeSweepKnobs> sweep_name(SweepBlock(), name.Key(&Scenario::sweep));
      std::string problem = FirstProblem(
          {ExactlyOne(study_name, "model", ResolvedModels().size()),
           ExactlyOne(study_name, "GPU type", ResolvedGpus().size()),
           CheckFields(SweepBlock(), &sweep, sweep_name.where()),
           ValidateGrid(sweep.GridPoints(), !sweep.loads.empty() || !sweep.rates.empty(),
                        sweep.load_step, sweep_name.where(),
                        sweep_name.Key(&ServeSweepKnobs::load_step),
                        sweep_name.Key(&ServeSweepKnobs::loads) + "/" +
                            sweep_name.Key(&ServeSweepKnobs::rates) + " or " +
                            sweep_name.Key(&ServeSweepKnobs::load_lo) + ":" +
                            sweep_name.Key(&ServeSweepKnobs::load_hi) + ":" +
                            sweep_name.Key(&ServeSweepKnobs::load_step))});
      if (!problem.empty()) {
        return problem;
      }
      if (sweep.arrival.kind == ArrivalKind::kTrace) {
        // The trace fixes the offered rate, so there is nothing to sweep.
        return Namer<ArrivalProcess>(ArrivalBlock(ArrivalKind::kTrace),
                                     sweep_name.Path(&ServeSweepKnobs::arrival))
                   .Path(&ArrivalProcess::kind) +
               " '" + ToString(ArrivalKind::kTrace) + "' is not supported (use " +
               name.Key(&Scenario::study) + " '" + ToString(StudyKind::kServe) + "')";
      }
      return ValidateServeCommonKnobs(sweep, sweep_name.where());
    }
    case StudyKind::kFleetCompare: {
      if (std::string problem = ExactlyOne(study_name, "model", ResolvedModels().size());
          !problem.empty()) {
        return problem;
      }
      if (!gpus.empty()) {
        return study_name + " takes its GPUs from " + fleet_name.Path(&FleetKnobs::candidates) +
               " (drop the " + name.Key(&Scenario::gpus) + " list)";
      }
      const Namer<FleetCandidate> candidate_name(CandidateBlock(), "");
      for (size_t i = 0; i < fleet.candidates.size(); ++i) {
        const FleetCandidate& c = fleet.candidates[i];
        std::string label =
            fleet_name.Path(&FleetKnobs::candidates) + "[" + std::to_string(i) + "]";
        if (c.name.empty()) {
          return Label(label, candidate_name.Key(&FleetCandidate::name)) + " must be non-empty";
        }
        for (size_t j = 0; j < i; ++j) {
          if (fleet.candidates[j].name == c.name) {
            // Names seed the per-candidate RNG streams, so duplicates would
            // silently alias two candidates onto the same points.
            return "duplicate " + fleet_name.where() + " candidate " +
                   candidate_name.Key(&FleetCandidate::name) + " '" + c.name + "'";
          }
        }
        if (std::string problem = CheckFields(CandidateBlock(), &c, label); !problem.empty()) {
          return problem;
        }
      }
      return FirstProblem(
          {CheckFields(FleetBlock(), &fleet, fleet_name.where()),
           ValidateGrid(fleet.GridPoints(), !fleet.loads.empty(), fleet.load_step,
                        fleet_name.where(), fleet_name.Key(&FleetKnobs::load_step),
                        fleet_name.Key(&FleetKnobs::loads) + " or " +
                            fleet_name.Key(&FleetKnobs::load_lo) + ":" +
                            fleet_name.Key(&FleetKnobs::load_hi) + ":" +
                            fleet_name.Key(&FleetKnobs::load_step))});
    }
    default:
      return "";
  }
}

// --- JSON serialization -----------------------------------------------------

Json RequestClassesToJson(const std::vector<RequestClass>& classes) {
  Json arr = Json::Array();
  for (const RequestClass& cls : classes) {
    arr.Append(WriteBlock(ClassBlock(), &cls));
  }
  return arr;
}

Json ArrivalProcessToJson(const ArrivalProcess& process) {
  return WriteBlock(ArrivalBlock(process.kind), &process);
}

Json AutoscalerKnobsToJson(const AutoscalerKnobs& knobs) {
  return WriteBlock(AutoscalerBlock(), &knobs);
}

Json FaultKnobsToJson(const FaultKnobs& knobs) { return WriteBlock(FaultBlock(), &knobs); }

// Compared field-by-field — not merely enabled() — so an afr-0 block with,
// say, hot spares set still round-trips instead of silently vanishing.
bool FaultKnobsAreDefault(const FaultKnobs& knobs) {
  return SameBlock(FaultBlock(), &knobs, FaultBlock().defaults);
}

Json FleetKnobsToJson(const FleetKnobs& knobs) { return WriteBlock(FleetBlock(), &knobs); }

Json ScenarioToJson(const Scenario& s) { return WriteBlock(ScenarioBlock(), &s); }

std::optional<Scenario> ScenarioFromJson(const Json& json, std::string* error) {
  if (!json.is_object()) {
    Fail(error, "scenario must be a JSON object");
    return std::nullopt;
  }
  Scenario s;
  if (!ReadBlock(ScenarioBlock(), json, "", &s, error)) {
    return std::nullopt;
  }
  std::string study = Namer<Scenario>(ScenarioBlock(), "").Key(&Scenario::study);
  if (json.Find(study) == nullptr) {
    Fail(error, "scenario is missing required key '" + study + "'");
    return std::nullopt;
  }
  return s;
}

namespace {

// A standalone knob file holds the block itself or {"<key>": block}; `key`
// is the block's key in the serve/sweep blocks. Null (with `error` set) when
// the wrapper has other keys.
const Json* Unwrap(const Json& json, const std::string& key, std::string* error) {
  if (!json.is_object() || json.Find(key) == nullptr) {
    return &json;
  }
  return CheckKeys(json, {key}, key + " file", error) ? json.Find(key) : nullptr;
}

template <typename T>
std::optional<T> ParseKnobFile(const Json& json, const Block& block, T ServeCommonKnobs::*member,
                               std::string* error) {
  std::string key = Namer<ServeCommonKnobs>(ServeCommonBlock(), "").Key(member);
  const Json* obj = Unwrap(json, key, error);
  T knobs;
  if (obj == nullptr || !ReadBlock(block, *obj, key + " file", &knobs, error)) {
    return std::nullopt;
  }
  return knobs;
}

}  // namespace

std::optional<std::vector<RequestClass>> ParseRequestClasses(const Json& json,
                                                             std::string* error) {
  std::string key = Namer<ServeCommonKnobs>(ServeCommonBlock(), "").Key(&ServeCommonKnobs::classes);
  const Json* list = &json;
  if (json.is_object()) {
    if (!CheckKeys(json, {key}, "class mix", error)) {
      return std::nullopt;
    }
    list = json.Find(key);
    if (list == nullptr || !list->is_array()) {
      Fail(error, "class mix needs a '" + key + "' array");
      return std::nullopt;
    }
  } else if (!json.is_array()) {
    Fail(error, "class mix must be a JSON array or {\"" + key + "\": [...]}");
    return std::nullopt;
  }
  std::vector<RequestClass> classes;
  if (!ReadBlockList(ClassBlock(), *list, key, classes, error)) {
    return std::nullopt;
  }
  return classes;
}

std::optional<ArrivalProcess> ParseArrivalProcess(const Json& json, std::string* error) {
  std::string key = Namer<ServeCommonKnobs>(ServeCommonBlock(), "").Key(&ServeCommonKnobs::arrival);
  const Json* obj = Unwrap(json, key, error);
  ArrivalProcess process;
  if (obj == nullptr || !ReadArrival(*obj, key + " file", process, error)) {
    return std::nullopt;
  }
  return process;
}

std::optional<AutoscalerKnobs> ParseAutoscalerKnobs(const Json& json, std::string* error) {
  return ParseKnobFile(json, AutoscalerBlock(), &ServeCommonKnobs::autoscaler, error);
}

std::optional<FaultKnobs> ParseFaultKnobs(const Json& json, std::string* error) {
  return ParseKnobFile(json, FaultBlock(), &ServeCommonKnobs::faults, error);
}

bool operator==(const Scenario& a, const Scenario& b) {
  return ScenarioToJson(a) == ScenarioToJson(b);
}

namespace {

// Accepts one scenario object, a top-level array, or {"scenarios": [...]}.
std::optional<std::vector<Scenario>> ScenariosFromJson(const Json& json,
                                                       std::string* error) {
  const Json* list = nullptr;
  if (json.is_array()) {
    list = &json;
  } else if (json.is_object() && json.Find("scenarios") != nullptr) {
    if (!CheckKeys(json, {"scenarios"}, "scenario batch", error)) {
      return std::nullopt;
    }
    list = json.Find("scenarios");
    if (!list->is_array()) {
      Fail(error, "'scenarios' must be an array");
      return std::nullopt;
    }
  }

  std::vector<Scenario> scenarios;
  if (list == nullptr) {
    auto one = ScenarioFromJson(json, error);
    if (!one) {
      return std::nullopt;
    }
    scenarios.push_back(std::move(*one));
  } else {
    for (const Json& entry : list->elements()) {
      auto one = ScenarioFromJson(entry, error);
      if (!one) {
        return std::nullopt;
      }
      scenarios.push_back(std::move(*one));
    }
  }
  if (scenarios.empty()) {
    Fail(error, "no scenarios in input");
    return std::nullopt;
  }
  return scenarios;
}

}  // namespace

std::optional<std::vector<Scenario>> ParseScenarios(const std::string& text,
                                                    std::string* error) {
  auto json = Json::Parse(text, error);
  if (!json) {
    return std::nullopt;
  }
  return ScenariosFromJson(*json, error);
}

std::optional<std::vector<Scenario>> LoadScenarioFile(const std::string& path,
                                                      std::string* error) {
  auto json = Json::ParseFile(path, error);
  if (!json) {
    return std::nullopt;
  }
  return ScenariosFromJson(*json, error);
}

// --- builder ----------------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::Name(const std::string& name) {
  scenario_.name = name;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Model(const std::string& model) {
  scenario_.models.push_back(model);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Gpu(const std::string& gpu) {
  scenario_.gpus.push_back(gpu);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Baseline(const std::string& gpu) {
  scenario_.baseline_gpu = gpu;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::PromptTokens(int n) {
  scenario_.workload.prompt_tokens = n;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::OutputTokens(int n) {
  scenario_.workload.output_tokens = n;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::TtftSlo(double seconds) {
  scenario_.workload.ttft_slo_s = seconds;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::TbtSlo(double seconds) {
  scenario_.workload.tbt_slo_s = seconds;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::EnforceMemoryCapacity(bool on) {
  scenario_.workload.enforce_memory_capacity = on;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::KvPolicy(KvShardPolicy policy) {
  scenario_.kv_policy = policy;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::MaxBatch(int n) {
  scenario_.max_batch = n;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Threads(int n) {
  scenario_.exec.threads = n;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Design(const DesignKnobs& knobs) {
  scenario_.design = knobs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::McSim(const McSimKnobs& knobs) {
  scenario_.mcsim = knobs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Yield(const YieldKnobs& knobs) {
  scenario_.yield = knobs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Derive(const DeriveKnobs& knobs) {
  scenario_.derive = knobs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Serve(const ServeKnobs& knobs) {
  scenario_.serve = knobs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::ServeSweep(const ServeSweepKnobs& knobs) {
  scenario_.sweep = knobs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::Fleet(const FleetKnobs& knobs) {
  scenario_.fleet = knobs;
  return *this;
}

std::optional<Scenario> ScenarioBuilder::Build(std::string* error) const {
  std::string problem = scenario_.Validate();
  if (!problem.empty()) {
    Fail(error, problem);
    return std::nullopt;
  }
  return scenario_;
}

}  // namespace litegpu
