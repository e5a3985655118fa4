// perfbench: end-to-end and per-layer benchmark of the numaplace fleet
// simulator.
//
//   perfbench --workload steady|tiered --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// One run performs one cold set-up (important placements, one trained model
// per topology group, the workload's event trace), then repeats the same
// deterministic replay for S seconds. Every host-time metric is the fastest
// of those repeats: the replay is byte-deterministic, so repeats are
// identical work and the fastest one measures the program rather than a slow
// phase of a shared host. Set-up is timed once, cold, from process start.
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays through the
// benchmark's own instrumented loop (Step + per-machine SnapshotPerformance)
// and prints per-layer metrics, writing the recorded spans as a Chrome
// trace-event file into the output directory. Every run checks the
// program's outputs against independently computed values; any violation
// marks the run incorrect and all its operations failed.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/fleet.h"
#include "src/core/concern.h"
#include "src/core/important.h"
#include "src/model/pipeline.h"
#include "src/scheduler/events.h"
#include "src/sim/perf_model.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/metrics_observer.h"
#include "src/telemetry/snapshots.h"
#include "src/telemetry/spans.h"
#include "src/topology/machines.h"
#include "src/util/rng.h"
#include "src/workloads/profile.h"
#include "src/workloads/synth.h"
#include "src/workloads/trace.h"

namespace numaplace {
namespace {

using Clock = std::chrono::steady_clock;

// Initialized before main runs: the reference point of the cold set-up time.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSinceStart(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

constexpr int kVcpus = 8;
constexpr int kTrainingWorkloads = 72;  // as the CLI trains
constexpr int kMinRounds = 2;
constexpr double kSnapshotIntervalSeconds = 300.0;

// ---------------------------------------------------------------------------
// Workloads

enum class WorkloadKind { kSteady, kTiered };

struct WorkloadDef {
  WorkloadKind kind = WorkloadKind::kSteady;
  std::string name;
  std::vector<std::string> machines;  // machine kind per fleet slot
  FleetConfig fleet;
  TraceConfig trace;       // Poisson stream shape; tiered's baseline starts from it
  FlashCrowdConfig flash;  // tiered only
};

// Only tiered replays with the full telemetry chain attached.
bool HasTelemetry(const WorkloadDef& def) { return def.kind == WorkloadKind::kTiered; }

std::vector<std::string> RepeatingMachines(int count) {
  static const std::array<const char*, 4> kKinds = {"amd", "intel", "zen", "cod"};
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.emplace_back(kKinds[static_cast<size_t>(i) % kKinds.size()]);
  }
  return out;
}

std::optional<WorkloadDef> MakeWorkload(const std::string& name) {
  WorkloadDef def;
  def.name = name;
  def.trace.vcpus = kVcpus;
  def.trace.goal_fraction = 0.9;
  if (name == "steady") {
    // Light Poisson load over a large sharded fleet: nothing queues, so
    // replay time is almost all evaluation snapshots.
    def.kind = WorkloadKind::kSteady;
    def.machines = RepeatingMachines(128);
    def.fleet.dispatch = "sharded";
    def.trace.num_containers = 12;
    def.trace.mean_interarrival_seconds = 120.0;
    def.trace.mean_lifetime_seconds = 480.0;
    return def;
  }
  if (name == "tiered") {
    // A small racked fleet with spread dispatch behind the tiered admission
    // layer, replaying a flash-crowd trace with the full telemetry chain
    // attached: about a fifth of the arrivals are deferred or shed.
    def.kind = WorkloadKind::kTiered;
    def.machines = RepeatingMachines(32);
    def.fleet.dispatch = "best-predicted";
    def.fleet.domain_racks = 4;
    def.fleet.spread_weight = 2.0;
    def.fleet.admission = "tiered";
    def.flash.base = def.trace;
    def.flash.base.num_containers = 48;
    def.flash.base.mean_lifetime_seconds = 480.0;
    def.flash.base.mean_interarrival_seconds = 120.0;
    def.flash.bursts = 2;
    def.flash.burst_containers = 8;
    def.flash.burst_mean_interarrival_seconds = 5.0;
    def.flash.burst_mean_lifetime_seconds = 300.0;
    // Bursts carry no premium work: premium always lands, so premium burst
    // arrivals would queue in some seeds and not in others, and the
    // departure tail would then measure whether a seed queued.
    def.flash.burst_premium_fraction = 0.0;
    def.flash.burst_best_effort_fraction = 0.9;
    return def;
  }
  return std::nullopt;
}

Topology MakeMachine(const std::string& kind) {
  if (kind == "amd") {
    return AmdOpteron6272();
  }
  if (kind == "intel") {
    return IntelXeonE74830v3();
  }
  if (kind == "zen") {
    return AmdZenLike();
  }
  return HaswellClusterOnDie();
}

// ---------------------------------------------------------------------------
// Set-up: placement sets, trained models, the trace.

struct GroupAssets {
  explicit GroupAssets(Topology machine) : topo(std::move(machine)) {}
  std::string group;  // topology name
  Topology topo;
  int baseline_id = 1;
  bool use_interconnect = false;
  ImportantPlacementSet ips;
  TrainedPerfModel model;
};

struct SetupTimes {
  double placements_s = 0.0;
  long long placements = 0;
  double train_s = 0.0;       // TrainPerfAuto, all groups
  double final_fit_s = 0.0;   // TrainPerf on each chosen pair (traced runs)
  long long pairs_scored = 0;
  double trace_s = 0.0;
};

struct Setup {
  WorkloadDef def;
  std::vector<GroupAssets> groups;  // first-seen machine order
  EventStream trace;
  SetupTimes times;
  double setup_s = 0.0;
  int models_trained = 0;
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 29);
}

EventStream GenerateTrace(const WorkloadDef& def, uint64_t seed) {
  Rng rng(Mix(seed, 1));
  const int streams = static_cast<int>(def.machines.size());
  if (def.kind == WorkloadKind::kTiered) {
    return GenerateFlashCrowdTrace(def.flash, streams, rng);
  }
  return GenerateFleetTrace(def.trace, streams, rng);
}

Setup RunSetup(const WorkloadDef& def, uint64_t seed, bool traced) {
  Setup setup;
  setup.def = def;
  std::vector<std::string> seen;
  for (const std::string& kind : def.machines) {
    if (std::find(seen.begin(), seen.end(), kind) != seen.end()) {
      continue;
    }
    seen.push_back(kind);
    GroupAssets assets(MakeMachine(kind));
    assets.group = assets.topo.name();
    assets.baseline_id = kind == "intel" ? 2 : 1;
    assets.use_interconnect = InterconnectIsAsymmetric(assets.topo);

    auto start = Clock::now();
    assets.ips = GenerateImportantPlacements(assets.topo, kVcpus, assets.use_interconnect);
    setup.times.placements_s += SecondsSince(start);
    const long long n = static_cast<long long>(assets.ips.placements.size());
    setup.times.placements += n;
    setup.times.pairs_scored += n * (n - 1) / 2;

    const PerformanceModel sim(assets.topo, 0.015, 1);
    const ModelPipeline pipeline(assets.ips, sim, assets.baseline_id, 42);
    // The CLI's fixed training set: model accuracy is a property of the
    // program, not of the workload seed.
    Rng train_rng(7);
    const std::vector<WorkloadProfile> training =
        SampleTrainingWorkloads(kTrainingWorkloads, train_rng);
    const PerfModelConfig config;
    start = Clock::now();
    assets.model = pipeline.TrainPerfAuto(training, config);
    setup.times.train_s += SecondsSince(start);
    ++setup.models_trained;
    if (traced) {
      // The final fit on the chosen pair, timed on its own so the pair
      // search can be told apart from it (identical work, seeded forest).
      start = Clock::now();
      const TrainedPerfModel refit =
          pipeline.TrainPerf(training, assets.model.input_a, assets.model.input_b, config);
      setup.times.final_fit_s += SecondsSince(start);
      ++setup.models_trained;
      (void)refit;
    }
    setup.groups.push_back(std::move(assets));
  }
  const auto start = Clock::now();
  setup.trace = GenerateTrace(def, seed);
  setup.times.trace_s = SecondsSince(start);
  setup.setup_s = SecondsSince(kProcessStart);
  return setup;
}

const GroupAssets& AssetsFor(const Setup& setup, const std::string& kind) {
  const std::string group = MakeMachine(kind).name();
  for (const GroupAssets& assets : setup.groups) {
    if (assets.group == group) {
      return assets;
    }
  }
  std::fprintf(stderr, "no assets for machine kind %s\n", kind.c_str());
  std::exit(1);
}

std::unique_ptr<FleetScheduler> MakeFleet(const Setup& setup) {
  std::vector<MachineSpec> specs;
  for (const std::string& kind : setup.def.machines) {
    const GroupAssets& assets = AssetsFor(setup, kind);
    MachineSpec spec(assets.topo);
    spec.scheduler.policy = "model";
    spec.scheduler.baseline_id = assets.baseline_id;
    spec.scheduler.use_interconnect_concern = assets.use_interconnect;
    specs.push_back(std::move(spec));
  }
  auto fleet = std::make_unique<FleetScheduler>(std::move(specs), setup.def.fleet);
  for (const GroupAssets& assets : setup.groups) {
    fleet->GroupRegistry(assets.group).Register(assets.group, kVcpus, assets.model);
    fleet->ProvidePlacements(assets.group, assets.ips);
  }
  return fleet;
}

// ---------------------------------------------------------------------------
// Telemetry chain of the tiered workload: MetricsObserver behind a
// SpanCollector, plus the JSONL snapshot recorder, writing into `dir`.

struct TelemetryChain {
  TelemetryChain(const FleetScheduler& fleet, const std::filesystem::path& dir)
      : trace_path(dir / "spans.json"), snapshots_path(dir / "snapshots.jsonl") {
    metrics = std::make_unique<MetricsObserver>(&registry, nullptr, fleet.NumMachines());
    spans = std::make_unique<SpanCollector>(metrics.get());
    snapshots_out.open(snapshots_path);
    recorder = std::make_unique<FleetSnapshotRecorder>(fleet, kSnapshotIntervalSeconds,
                                                       snapshots_out);
  }

  // Closes open slices, writes the span file and flushes the snapshots;
  // returns the bytes of both artifacts.
  long long Finish(double end_seconds) {
    spans->Finish(end_seconds);
    {
      std::ofstream out(trace_path);
      spans->WriteChromeTrace(out);
    }
    snapshots_out.close();
    return static_cast<long long>(std::filesystem::file_size(trace_path) +
                                  std::filesystem::file_size(snapshots_path));
  }

  std::filesystem::path trace_path;
  std::filesystem::path snapshots_path;
  MetricsRegistry registry;
  std::unique_ptr<MetricsObserver> metrics;
  std::unique_ptr<SpanCollector> spans;
  std::ofstream snapshots_out;
  std::unique_ptr<FleetSnapshotRecorder> recorder;
};

// ---------------------------------------------------------------------------
// Output checks

struct Checks {
  std::vector<std::string> violations;

  void Require(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  }
  bool Ok() const { return violations.empty(); }
};

bool NearlyEqual(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({std::fabs(a), std::fabs(b), 1e-300});
}

// Every deterministic FleetStats field (host-time fields excluded).
std::vector<double> StatsKey(const FleetStats& s) {
  std::vector<double> key = {
      double(s.submitted),          double(s.dispatched_immediately),
      double(s.queued),             double(s.queue_admissions),
      s.queue_wait_seconds,         double(s.rebalance_moves),
      double(s.evacuations),        double(s.evacuation_moves),
      double(s.evacuation_requeues), double(s.drain_moves),
      double(s.failover_moves),     s.cross_machine_move_seconds,
      s.network_copy_seconds,       double(s.fleet_probe_runs),
      s.fleet_probe_seconds,        double(s.dispatch_previews),
      double(s.dispatch_decisions), double(s.rebalance_previews),
      double(s.rebalance_decisions), double(s.evac_previews),
      double(s.evac_decisions),     double(s.rebalance_passes),
      double(s.rebalance_passes_skipped)};
  for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
    key.insert(key.end(), {double(s.tier_arrivals[t]), double(s.tier_admitted[t]),
                           double(s.tier_deferred[t]), double(s.tier_rejected[t]),
                           double(s.tier_preempted[t])});
  }
  return key;
}

std::vector<double> ReportKey(const FleetReport& r) {
  std::vector<double> key = {r.goal_attainment, r.container_seconds_at_goal,
                             r.mean_utilization, r.mean_queue_wait_seconds,
                             double(r.decisions)};
  key.insert(key.end(), r.machine_utilizations.begin(), r.machine_utilizations.end());
  return key;
}

// Attainment recomputed apart from ReplayWithEvaluation: the live tenants of
// each machine are evaluated with the machine's multi-tenant model between
// events, and queued or unplaced containers attain nothing.
struct IndependentAttainment {
  double goal_attainment = 0.0;
  double container_seconds_at_goal = 0.0;
  double container_seconds = 0.0;
};

IndependentAttainment RecomputeAttainment(FleetScheduler& fleet, const EventStream& trace,
                                          long long* stepped) {
  double last_time = 0.0;
  double weight = 0.0;
  double at_goal = 0.0;
  double seconds = 0.0;
  for (const FleetEvent& event : trace) {
    const double dt = event.time_seconds - last_time;
    if (dt > 0.0) {
      for (int m = 0; m < fleet.NumMachines(); ++m) {
        const MachineScheduler& machine = fleet.machine(m);
        const std::vector<int> running = machine.RunningIds();
        std::vector<MultiTenantModel::Tenant> tenants;
        for (const int id : running) {
          const ManagedContainer* c = machine.Find(id);
          tenants.push_back({&c->request.workload, c->placement});
        }
        const std::vector<PerfResult> results =
            tenants.empty() ? std::vector<PerfResult>{}
                            : fleet.multi_model(m).Evaluate(tenants);
        for (size_t i = 0; i < running.size(); ++i) {
          const double goal = machine.Find(running[i])->goal_abs_throughput;
          const double ratio =
              goal > 0.0 ? std::min(1.0, results[i].throughput_ops / goal) : 1.0;
          weight += ratio * dt;
          at_goal += ratio >= 0.999 ? dt : 0.0;
          seconds += dt;
        }
        seconds += static_cast<double>(machine.PendingIds().size()) * dt;
      }
      seconds += static_cast<double>(fleet.UnplacedIds().size()) * dt;
      last_time = event.time_seconds;
    }
    fleet.Step(event, nullptr);
    ++*stepped;
  }
  IndependentAttainment out;
  out.container_seconds = seconds;
  out.goal_attainment = seconds > 0.0 ? weight / seconds : 1.0;
  out.container_seconds_at_goal = seconds > 0.0 ? at_goal / seconds : 1.0;
  return out;
}

// Container-seconds the trace alone implies: departure minus arrival.
double TraceContainerSeconds(const EventStream& trace) {
  std::map<int, double> arrived;
  double total = 0.0;
  for (const FleetEvent& event : trace) {
    if (const ContainerArrival* a = event.arrival()) {
      arrived[a->container_id] = event.time_seconds;
    } else if (const ContainerDeparture* d = event.departure()) {
      total += event.time_seconds - arrived.at(d->container_id);
    }
  }
  return total;
}

// Tier of an arrival from its `<tier>:` name prefix, as the trace writes it.
int TierFromName(const std::string& name) {
  const size_t colon = name.find(':');
  const std::string prefix = colon == std::string::npos ? "" : name.substr(0, colon);
  if (prefix == "premium") {
    return static_cast<int>(SloTier::kPremium);
  }
  if (prefix == "best-effort") {
    return static_cast<int>(SloTier::kBestEffort);
  }
  return static_cast<int>(SloTier::kStandard);
}

void CheckFinalState(const FleetScheduler& fleet, const FleetReport& report,
                     Checks* checks) {
  for (int m = 0; m < fleet.NumMachines(); ++m) {
    checks->Require(fleet.machine(m).RunningIds().empty() &&
                        fleet.machine(m).PendingIds().empty(),
                    "machine " + std::to_string(m) + " not empty at trace end");
  }
  checks->Require(fleet.UnplacedIds().empty(), "unplaced containers at trace end");
  for (const RebalanceMove& move : fleet.rebalance_log()) {
    checks->Require(move.predicted_gain_ops > move.modeled_cost_ops,
                    "move of container " + std::to_string(move.container_id) +
                        " does not beat its modeled cost");
  }
  for (size_t m = 0; m < report.machine_utilizations.size(); ++m) {
    const double u = report.machine_utilizations[m];
    checks->Require(u >= 0.0 && u <= 1.0,
                    "machine " + std::to_string(m) + " utilization outside [0, 1]");
  }
}

// ---------------------------------------------------------------------------
// Model accuracy on the paper's catalog (never in training).

struct ModelError {
  double model_mae = 0.0;  // mean |predicted - measured| relative performance
  double blind_mae = 0.0;  // the same for "every placement performs like baseline"
};

ModelError CatalogError(const Setup& setup) {
  const std::vector<WorkloadProfile> catalog = PaperWorkloads();
  ModelError total;
  for (const GroupAssets& assets : setup.groups) {
    const PerformanceModel sim(assets.topo, 0.015, 1);
    const ModelPipeline pipeline(assets.ips, sim, assets.baseline_id, 42);
    double model_sum = 0.0;
    double blind_sum = 0.0;
    long long terms = 0;
    for (const WorkloadProfile& w : catalog) {
      const PerformanceVector actual = pipeline.MeasureVector(w, 0);
      const std::vector<double> predicted = assets.model.Predict(
          pipeline.MeasureAbsolute(w, assets.model.input_a, 0),
          pipeline.MeasureAbsolute(w, assets.model.input_b, 0));
      for (size_t i = 0; i < assets.ips.placements.size(); ++i) {
        const int id = assets.ips.placements[i].id;
        const size_t out = static_cast<size_t>(
            std::find(assets.model.placement_ids.begin(), assets.model.placement_ids.end(),
                      id) -
            assets.model.placement_ids.begin());
        model_sum += std::fabs(predicted.at(out) - actual.relative[i]);
        blind_sum += std::fabs(1.0 - actual.relative[i]);
        ++terms;
      }
    }
    total.model_mae += model_sum / static_cast<double>(terms);
    total.blind_mae += blind_sum / static_cast<double>(terms);
  }
  total.model_mae /= static_cast<double>(setup.groups.size());
  total.blind_mae /= static_cast<double>(setup.groups.size());
  return total;
}

volatile double prediction_sink = 0.0;

// Fastest single-prediction time, microseconds, over the catalog's probes.
double PredictMicros(const Setup& setup) {
  const std::vector<WorkloadProfile> catalog = PaperWorkloads();
  double best = std::numeric_limits<double>::infinity();
  double sink = 0.0;
  for (const GroupAssets& assets : setup.groups) {
    const PerformanceModel sim(assets.topo, 0.015, 1);
    const ModelPipeline pipeline(assets.ips, sim, assets.baseline_id, 42);
    std::vector<std::pair<double, double>> probes;
    for (const WorkloadProfile& w : catalog) {
      probes.emplace_back(pipeline.MeasureAbsolute(w, assets.model.input_a, 41),
                          pipeline.MeasureAbsolute(w, assets.model.input_b, 42));
    }
    for (int rep = 0; rep < 20; ++rep) {
      const auto start = Clock::now();
      for (const auto& [a, b] : probes) {
        sink += assets.model.Predict(a, b).front();
      }
      best = std::min(best, SecondsSince(start) * 1e6 / static_cast<double>(probes.size()));
    }
  }
  prediction_sink = sink;  // keeps the timed predictions observable
  return best;
}

// ---------------------------------------------------------------------------
// Timed passes

struct RweResult {
  double seconds = 0.0;
  FleetReport report;
  FleetStats stats;
  long long artifact_bytes = 0;
};

RweResult TimedReplay(const Setup& setup, const std::filesystem::path& out_dir) {
  std::unique_ptr<FleetScheduler> fleet = MakeFleet(setup);
  std::unique_ptr<TelemetryChain> chain;
  if (HasTelemetry(setup.def)) {
    chain = std::make_unique<TelemetryChain>(*fleet, out_dir);
  }
  RweResult result;
  const auto start = Clock::now();
  result.report = fleet->ReplayWithEvaluation(
      setup.trace, chain ? static_cast<EventObserver*>(chain->spans.get()) : nullptr,
      chain ? chain->recorder.get() : nullptr);
  result.seconds = SecondsSince(start);
  result.stats = fleet->stats();
  if (chain) {
    result.artifact_bytes = chain->Finish(setup.trace.EndTime());
  }
  return result;
}

// Steps the trace with no evaluation, timing each event; keeps the per-event
// minimum in `best`.
FleetStats TimedSteps(const Setup& setup, const std::filesystem::path& out_dir,
                      std::vector<double>* best) {
  std::unique_ptr<FleetScheduler> fleet = MakeFleet(setup);
  std::unique_ptr<TelemetryChain> chain;
  if (HasTelemetry(setup.def)) {
    chain = std::make_unique<TelemetryChain>(*fleet, out_dir);
  }
  EventObserver* observer = chain ? chain->spans.get() : nullptr;
  const std::vector<FleetEvent>& events = setup.trace.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const auto start = Clock::now();
    fleet->Step(events[i], observer);
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    (*best)[i] = std::min((*best)[i], us);
  }
  return fleet->stats();
}

// ---------------------------------------------------------------------------
// Traced replay: the benchmark's own loop of Step plus per-machine
// SnapshotPerformance, with spans at every layer boundary.

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

struct LayerTimes {
  double total_s = 0.0;
  std::array<double, 3> step_self_s{};  // arrival, departure, machine event
  double snapshot_s = 0.0;
  long long machine_snapshots = 0;
  long long tenant_evals = 0;
  long long unchanged = 0;
  long long callbacks = 0;
  double observer_s = 0.0;
  double write_s = 0.0;
  double search_s = 0.0;
  long long artifact_bytes = 0;
  FleetStats stats;
  std::vector<SpanRecord> spans;
};

// Times every callback it forwards and records it as a child span of the
// Step in progress; turns each rebalance/evacuation OnTargetSearch into a
// span of the search it reports.
class TimingObserver final : public ForwardingObserver {
 public:
  TimingObserver(EventObserver* next, LayerTimes* times)
      : ForwardingObserver(next), times_(times) {}

  void BeginStep(int span) {
    step_span_ = span;
    child_s_ = 0.0;
  }
  double ChildSeconds() const { return child_s_; }

  void OnAdmission(int m, const ScheduleOutcome& o, double now) override {
    Timed("telemetry.OnAdmission", [&] { ForwardingObserver::OnAdmission(m, o, now); });
  }
  void OnQueued(int m, const ScheduleOutcome& o, double now) override {
    Timed("telemetry.OnQueued", [&] { ForwardingObserver::OnQueued(m, o, now); });
  }
  void OnDeparture(int m, int id, double now) override {
    Timed("telemetry.OnDeparture", [&] { ForwardingObserver::OnDeparture(m, id, now); });
  }
  void OnMove(const RebalanceMove& move, double now) override {
    Timed("telemetry.OnMove", [&] { ForwardingObserver::OnMove(move, now); });
  }
  void OnEvacuation(const EvacuationReport& r, double now) override {
    Timed("telemetry.OnEvacuation", [&] { ForwardingObserver::OnEvacuation(r, now); });
  }
  void OnMachineAvailability(int m, MachineAvailability a, double now) override {
    Timed("telemetry.OnMachineAvailability",
          [&] { ForwardingObserver::OnMachineAvailability(m, a, now); });
  }
  void OnAdmissionDecision(int id, int vcpus, SloTier tier, AdmissionDecision d,
                           double now) override {
    Timed("telemetry.OnAdmissionDecision",
          [&] { ForwardingObserver::OnAdmissionDecision(id, vcpus, tier, d, now); });
  }
  void OnTargetSearch(const TargetSearchStats& search, double now) override {
    if (search.kind != TargetSearchStats::Kind::kDispatch && search.host_seconds > 0.0) {
      const double end_us = MicrosSinceStart(Clock::now());
      times_->spans.push_back({search.kind == TargetSearchStats::Kind::kRebalance
                                   ? "cluster.rebalance_search"
                                   : "cluster.evac_search",
                               end_us - search.host_seconds * 1e6, end_us, step_span_});
      times_->search_s += search.host_seconds;
      child_s_ += search.host_seconds;
    }
    Timed("telemetry.OnTargetSearch",
          [&] { ForwardingObserver::OnTargetSearch(search, now); });
  }

 private:
  template <typename F>
  void Timed(const char* name, F&& forward) {
    const auto start = Clock::now();
    forward();
    const auto end = Clock::now();
    const double s = std::chrono::duration<double>(end - start).count();
    ++times_->callbacks;
    times_->observer_s += s;
    child_s_ += s;
    times_->spans.push_back({name, MicrosSinceStart(start), MicrosSinceStart(end), step_span_});
  }

  LayerTimes* times_;
  int step_span_ = -1;
  double child_s_ = 0.0;
};

int StepKindIndex(const FleetEvent& event) {
  if (event.arrival() != nullptr) {
    return 0;
  }
  if (event.departure() != nullptr) {
    return 1;
  }
  return 2;
}

LayerTimes TracedReplay(const Setup& setup, const std::filesystem::path& out_dir) {
  static const std::array<const char*, 3> kStepNames = {
      "cluster.arrival", "cluster.departure", "cluster.machine_event"};
  std::unique_ptr<FleetScheduler> fleet = MakeFleet(setup);
  std::unique_ptr<TelemetryChain> chain;
  if (HasTelemetry(setup.def)) {
    chain = std::make_unique<TelemetryChain>(*fleet, out_dir);
  }
  LayerTimes times;
  times.spans.reserve(setup.trace.size() * 4);
  TimingObserver timing(chain ? chain->spans.get() : nullptr, &times);
  // Per-machine (running id, hardware threads) of the previous snapshot.
  std::vector<std::vector<std::pair<int, std::vector<int>>>> previous(
      static_cast<size_t>(fleet->NumMachines()));
  double last_time = 0.0;
  double attainment = 0.0;
  double at_goal = 0.0;
  double container_seconds = 0.0;
  double next_sample = kSnapshotIntervalSeconds;

  const auto replay_start = Clock::now();
  const int root = static_cast<int>(times.spans.size());
  times.spans.push_back({"replay.traced", MicrosSinceStart(replay_start), 0.0, -1});
  for (const FleetEvent& event : setup.trace) {
    const double dt = event.time_seconds - last_time;
    if (dt > 0.0) {
      const auto eval_start = Clock::now();
      const double base_attainment = attainment;
      const double base_at_goal = at_goal;
      const double base_seconds = container_seconds;
      double ratio_rate = 0.0;
      double at_goal_rate = 0.0;
      double seconds_rate = 0.0;
      for (int m = 0; m < fleet->NumMachines(); ++m) {
        const MachineScheduler& machine = fleet->machine(m);
        const auto snap_start = Clock::now();
        const std::vector<MachineScheduler::TenantSnapshot> snaps =
            machine.SnapshotPerformance(fleet->multi_model(m));
        times.snapshot_s += SecondsSince(snap_start);
        ++times.machine_snapshots;
        times.tenant_evals += static_cast<long long>(snaps.size());
        std::vector<std::pair<int, std::vector<int>>> key;
        for (const MachineScheduler::TenantSnapshot& snap : snaps) {
          key.emplace_back(snap.container_id,
                           machine.Find(snap.container_id)->placement.hw_threads);
          const double ratio =
              snap.goal_abs_throughput > 0.0
                  ? std::min(1.0, snap.measured_abs_throughput / snap.goal_abs_throughput)
                  : 1.0;
          attainment += ratio * dt;
          ratio_rate += ratio;
          at_goal += ratio >= 0.999 ? dt : 0.0;
          at_goal_rate += ratio >= 0.999 ? 1.0 : 0.0;
          container_seconds += dt;
          seconds_rate += 1.0;
        }
        if (key == previous[static_cast<size_t>(m)]) {
          ++times.unchanged;
        }
        previous[static_cast<size_t>(m)] = std::move(key);
        const double pending = static_cast<double>(machine.PendingIds().size());
        container_seconds += pending * dt;
        seconds_rate += pending;
      }
      const double unplaced = static_cast<double>(fleet->UnplacedIds().size());
      container_seconds += unplaced * dt;
      seconds_rate += unplaced;
      const auto eval_end = Clock::now();
      times.spans.push_back(
          {"sim.evaluate", MicrosSinceStart(eval_start), MicrosSinceStart(eval_end), root});
      if (chain) {
        const auto write_start = Clock::now();
        while (next_sample <= event.time_seconds) {
          const double part = next_sample - last_time;
          const double cs = base_seconds + seconds_rate * part;
          chain->recorder->Sample(
              next_sample, cs > 0.0 ? (base_attainment + ratio_rate * part) / cs : 1.0,
              cs > 0.0 ? (base_at_goal + at_goal_rate * part) / cs : 1.0);
          next_sample += kSnapshotIntervalSeconds;
        }
        times.write_s += SecondsSince(write_start);
      }
      last_time = event.time_seconds;
    }
    const int kind = StepKindIndex(event);
    const int span = static_cast<int>(times.spans.size());
    const auto step_start = Clock::now();
    times.spans.push_back({kStepNames[static_cast<size_t>(kind)],
                           MicrosSinceStart(step_start), 0.0, root});
    timing.BeginStep(span);
    fleet->Step(event, &timing);
    const auto step_end = Clock::now();
    times.spans[static_cast<size_t>(span)].end_us = MicrosSinceStart(step_end);
    times.step_self_s[static_cast<size_t>(kind)] +=
        std::chrono::duration<double>(step_end - step_start).count() - timing.ChildSeconds();
  }
  if (chain) {
    const auto write_start = Clock::now();
    times.artifact_bytes = chain->Finish(setup.trace.EndTime());
    times.write_s += SecondsSince(write_start);
  }
  const auto replay_end = Clock::now();
  times.spans[static_cast<size_t>(root)].end_us = MicrosSinceStart(replay_end);
  times.total_s = std::chrono::duration<double>(replay_end - replay_start).count();
  times.stats = fleet->stats();
  return times;
}

void WriteSpans(const std::vector<SpanRecord>& spans, const std::filesystem::path& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us, i, s.parent,
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, long long attempted, long long failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  if (values.empty()) {
    return 0.0;
  }
  // Nearest rank.
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out_dir = ".bench_build/perfbench-out";
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload steady|tiered --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int Run(const Options& options) {
  const std::optional<WorkloadDef> def = MakeWorkload(options.workload);
  if (!def) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  const Setup setup = RunSetup(*def, options.seed, options.trace);
  const std::filesystem::path out_dir = options.out_dir / def->name;
  std::filesystem::create_directories(out_dir);
  std::fprintf(stderr, "[perfbench] %s seed %llu: %d machines, %zu events, set-up %.3f s\n",
               def->name.c_str(), static_cast<unsigned long long>(options.seed),
               static_cast<int>(def->machines.size()), setup.trace.size(), setup.setup_s);

  long long attempted = setup.models_trained;
  Checks checks;

  // Untimed independent pass: attainment recomputed from the simulator.
  const std::unique_ptr<FleetScheduler> checked = MakeFleet(setup);
  const IndependentAttainment independent =
      RecomputeAttainment(*checked, setup.trace, &attempted);
  const std::vector<double> reference_stats = StatsKey(checked->stats());

  const std::vector<FleetEvent>& events = setup.trace.events();
  std::vector<double> best_step(events.size(), std::numeric_limits<double>::infinity());
  std::optional<RweResult> first;
  double best_replay = std::numeric_limits<double>::infinity();
  std::optional<LayerTimes> best_traced;
  int rounds = 0;
  const auto measure_start = Clock::now();
  while (rounds < kMinRounds || SecondsSince(measure_start) < options.seconds) {
    RweResult rwe = TimedReplay(setup, out_dir);
    attempted += static_cast<long long>(events.size());
    best_replay = std::min(best_replay, rwe.seconds);
    checks.Require(StatsKey(rwe.stats) == reference_stats,
                   "replay repeat changed FleetStats");
    if (!first) {
      first = std::move(rwe);
    } else {
      checks.Require(ReportKey(rwe.report) == ReportKey(first->report),
                     "replay repeat changed the report");
    }
    if (options.trace) {
      LayerTimes traced = TracedReplay(setup, out_dir);
      attempted += static_cast<long long>(events.size());
      checks.Require(StatsKey(traced.stats) == reference_stats,
                     "traced replay changed FleetStats");
      if (!best_traced || traced.total_s < best_traced->total_s) {
        best_traced = std::move(traced);
      }
    } else {
      const FleetStats stats = TimedSteps(setup, out_dir, &best_step);
      attempted += static_cast<long long>(events.size());
      checks.Require(StatsKey(stats) == reference_stats, "step pass changed FleetStats");
    }
    ++rounds;
  }

  const FleetReport& report = first->report;
  checks.Require(NearlyEqual(independent.goal_attainment, report.goal_attainment),
                 "independent goal attainment differs from the replay's");
  checks.Require(
      NearlyEqual(independent.container_seconds_at_goal, report.container_seconds_at_goal),
      "independent at-goal share differs from the replay's");
  if (def->kind != WorkloadKind::kTiered) {
    checks.Require(NearlyEqual(independent.container_seconds,
                               TraceContainerSeconds(setup.trace)),
                   "container-seconds differ from the trace's departures minus arrivals");
  } else {
    std::array<long long, kNumSloTiers> arrivals{};
    for (const FleetEvent& event : setup.trace) {
      if (const ContainerArrival* a = event.arrival()) {
        ++arrivals[static_cast<size_t>(TierFromName(a->workload.name))];
      }
    }
    const FleetStats& s = first->stats;
    for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
      // A preempted victim was admitted or deferred on arrival and is
      // counted again as rejected when shed.
      checks.Require(arrivals[t] == s.tier_arrivals[t] &&
                         arrivals[t] == s.tier_admitted[t] + s.tier_deferred[t] +
                                            s.tier_rejected[t] - s.tier_preempted[t],
                     std::string("tier ") + ToString(static_cast<SloTier>(t)) +
                         " arrivals do not partition into admission decisions");
    }
    checks.Require(s.tier_rejected[static_cast<size_t>(SloTier::kPremium)] == 0,
                   "a premium container was rejected");
  }
  CheckFinalState(*checked, report, &checks);
  const ModelError error = CatalogError(setup);
  checks.Require(error.model_mae < error.blind_mae,
                 "model error not below the placement-blind predictor's");

  std::vector<double> arrival_us;
  std::vector<double> departure_us;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].arrival() != nullptr) {
      arrival_us.push_back(best_step[i]);
    } else if (events[i].departure() != nullptr) {
      departure_us.push_back(best_step[i]);
    }
  }

  const FleetStats& stats = first->stats;
  std::fprintf(stderr,
               "[perfbench] rounds %d, replay %.3f s, attainment %.4f%%, queued %d, "
               "moves %d, model MAE %.3f%% (blind %.3f%%), arrivals %zu, departures %zu\n",
               rounds, best_replay, 100.0 * report.goal_attainment, stats.queued,
               stats.rebalance_moves + stats.drain_moves + stats.failover_moves,
               100.0 * error.model_mae, 100.0 * error.blind_mae, arrival_us.size(),
               departure_us.size());
  if (def->kind == WorkloadKind::kTiered) {
    long long arrivals = 0;
    long long shed = 0;
    for (size_t t = 0; t < static_cast<size_t>(kNumSloTiers); ++t) {
      arrivals += stats.tier_arrivals[t];
      shed += stats.tier_deferred[t] + stats.tier_rejected[t] - stats.tier_preempted[t];
    }
    std::fprintf(stderr, "[perfbench] admission: %lld of %lld arrivals deferred or shed\n",
                 shed, arrivals);
  }
  for (const std::string& v : checks.violations) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", v.c_str());
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", setup.setup_s, "s"},
        {"replay_s", best_replay, "s"},
        {"arrival_us_p50", Percentile(arrival_us, 0.50), "us"},
        {"arrival_us_p99", Percentile(arrival_us, 0.99), "us"},
        {"departure_us_p50", Percentile(departure_us, 0.50), "us"},
        {"departure_us_p99", Percentile(departure_us, 0.99), "us"},
        {"goal_attainment_pct", 100.0 * report.goal_attainment, "%"},
        {"model_mae_pct", 100.0 * error.model_mae, "%"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const LayerTimes& t = *best_traced;
    long long probe_runs = 0;
    long long probe_reuses = 0;
    for (int m = 0; m < checked->NumMachines(); ++m) {
      probe_runs += checked->machine(m).stats().probe_runs;
      probe_reuses += checked->machine(m).stats().cached_probe_reuses;
    }
    const FleetStats& s = t.stats;
    long long admitted = 0;
    long long deferred = 0;
    long long rejected = 0;
    long long preempted = 0;
    for (size_t k = 0; k < static_cast<size_t>(kNumSloTiers); ++k) {
      admitted += s.tier_admitted[k];
      deferred += s.tier_deferred[k];
      rejected += s.tier_rejected[k];
      preempted += s.tier_preempted[k];
    }
    const auto count = [](long long v) { return static_cast<double>(v); };
    metrics = {
        {"workloads.trace_s", setup.times.trace_s, "s"},
        {"workloads.events", count(static_cast<long long>(events.size())), "count"},
        {"core.placements_s", setup.times.placements_s, "s"},
        {"core.placements", count(setup.times.placements), "count"},
        {"model.train_s", setup.times.train_s, "s"},
        {"model.pair_search_s", setup.times.train_s - setup.times.final_fit_s, "s"},
        {"model.final_fit_s", setup.times.final_fit_s, "s"},
        {"model.pairs_scored", count(setup.times.pairs_scored), "count"},
        {"model.probe_runs", count(probe_runs), "count"},
        {"model.probe_reuses", count(probe_reuses), "count"},
        {"model.predict_us", PredictMicros(setup), "us"},
        {"sim.snapshot_s", t.snapshot_s, "s"},
        {"sim.machine_snapshots", count(t.machine_snapshots), "count"},
        {"sim.tenant_evals", count(t.tenant_evals), "count"},
        {"sim.unchanged_share",
         t.machine_snapshots > 0 ? count(t.unchanged) / count(t.machine_snapshots) : 0.0,
         "ratio"},
        {"sim.snapshot_share_pct", 100.0 * t.snapshot_s / t.total_s, "%"},
        {"cluster.arrival_s", t.step_self_s[0], "s"},
        {"cluster.departure_s", t.step_self_s[1], "s"},
        {"cluster.machine_event_s", t.step_self_s[2], "s"},
        {"cluster.dispatch_decisions", count(s.dispatch_decisions), "count"},
        {"cluster.dispatch_previews", count(s.dispatch_previews), "count"},
        {"cluster.rebalance_passes", count(s.rebalance_passes), "count"},
        {"cluster.rebalance_passes_skipped", count(s.rebalance_passes_skipped), "count"},
        {"cluster.rebalance_decisions", count(s.rebalance_decisions), "count"},
        {"cluster.rebalance_previews", count(s.rebalance_previews), "count"},
        {"cluster.evac_decisions", count(s.evac_decisions), "count"},
        {"cluster.evac_previews", count(s.evac_previews), "count"},
        {"cluster.fleet_op_search_s", t.search_s, "s"},
        {"cluster.moves", count(s.rebalance_moves + s.drain_moves + s.failover_moves),
         "count"},
        {"cluster.queued", count(s.queued), "count"},
        {"admission.admitted", count(admitted), "count"},
        {"admission.deferred", count(deferred), "count"},
        {"admission.rejected", count(rejected), "count"},
        {"admission.preempted", count(preempted), "count"},
        {"telemetry.callbacks", count(t.callbacks), "count"},
        {"telemetry.observer_s", t.observer_s, "s"},
        {"telemetry.write_s", t.write_s, "s"},
        {"telemetry.artifact_bytes", count(t.artifact_bytes), "bytes"},
        {"trace.replay_s", t.total_s, "s"},
        {"trace.overhead_pct", 100.0 * (t.total_s / best_replay - 1.0), "%"},
    };
    WriteSpans(t.spans, out_dir / "perfbench_trace.json");
  }
  const bool correct = checks.Ok();
  PrintResult(correct, attempted, correct ? 0 : attempted, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace numaplace

int main(int argc, char** argv) {
  numaplace::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return numaplace::Usage();
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return numaplace::Usage();
      }
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return numaplace::Usage();
    }
    if (end != nullptr && *end != '\0') {
      return numaplace::Usage();
    }
  }
  if (!have_workload || !(options.seconds >= 0.0)) {
    return numaplace::Usage();
  }
  try {
    return numaplace::Run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
