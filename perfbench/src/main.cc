/**
 * @file
 * One benchmark cell, run once, reported as one JSON line.
 *
 *   perfbench_cell --workload NAME --seed N --mode plain|traced
 *                  [--trace-out PATH]
 *
 * `plain` is the timed end-to-end run: the factory objects go straight
 * into `Simulation`, with no wrapper and no telemetry sink. It reports
 * the CLOCK_MONOTONIC instant `Run()` was entered (the caller subtracts
 * its spawn instant to get set-up time from process start), the wall
 * time of `Run()` alone, peak RSS, the simulated statistics and, after
 * all of that, the time of a fixed host-speed probe.
 *
 * `traced` runs the same cell through the outside-in wrappers of
 * tracing.h with the latency-attribution and decision-audit sinks and
 * the invariant watchdog on, then replays the recorded streams through
 * each layer standalone (replay.h). Its simulated statistics must equal
 * the plain run's exactly; the caller checks that.
 *
 * Workloads are closed loops generated live in this one thread: the
 * simulator asks for op k+1 only after op k has completed in virtual
 * time.
 */

#include <cpuid.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "multitenant/tenant.h"
#include "obs/attribution.h"
#include "obs/audit.h"
#include "replay.h"
#include "tracing.h"
#include "workloads/factory.h"

namespace perfbench {
namespace {

using namespace hybridtier;

const char kFleetSpec[] =
    "fleet:300,zipf=0.9,fp=1024,fpskew=0.3,churn=poisson,duty=0.2,"
    "period=1e8,horizon=1e9,seed=7";
const char kFailoverTenants[] = "zipf,zipf:2,zipf";
const char kFailoverTopology[] = "cxl:(1,2,3),lat=124:180:180,bw=34:17:17";
const char kFailoverFaults[] = "faults:ep2@20ms=down";
constexpr TimeNs kFailoverFaultNs = 20 * kMillisecond;  // As in the spec.

/** The factory objects of one workload, plus what describes them. */
struct Cell {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TieringPolicy> policy;
  SimulationConfig config;
  std::string workload_spec;
  std::string policy_spec;
};

bool BuildCell(const std::string& name, uint64_t seed, Cell* cell) {
  SimulationConfig& config = cell->config;
  config.seed = seed;
  if (name == "cdn-hybridtier") {
    const double scale = DefaultWorkloadScale("cdn");
    cell->workload = MakeWorkload("cdn", scale, seed);
    cell->policy = MakePolicy("HybridTier");
    config.allocation = AllocationPolicyFor("HybridTier");
    char spec[48];
    std::snprintf(spec, sizeof(spec), "cdn scale=%g", scale);
    cell->workload_spec = spec;
    cell->policy_spec = "HybridTier";
  } else if (name == "bfs-tpp") {
    cell->workload = MakeWorkload("bfs-k", 2.0, seed);
    cell->policy = MakePolicy("TPP");
    config.allocation = AllocationPolicyFor("TPP");
    cell->workload_spec = "bfs-k scale=2";
    cell->policy_spec = "TPP";
  } else if (name == "fleet-fair") {
    auto mux = MakeMuxWorkload(ParseTenantList(kFleetSpec), seed);
    cell->policy = std::make_unique<FairSharePolicy>(
        MakePolicy("HybridTier"), mux->directory(), FairShareConfig{});
    cell->workload = std::move(mux);
    cell->workload_spec = kFleetSpec;
    cell->policy_spec = "FairShare(HybridTier) quota=marginal";
  } else if (name == "cxl-failover") {
    // bench/fig_failover's graceful cell, at this run's seed.
    auto mux = MakeMuxWorkload(ParseTenantList(kFailoverTenants), seed);
    FairShareConfig fair;
    fair.endpoint_aware = true;
    cell->policy = std::make_unique<FairSharePolicy>(
        MakePolicy("HybridTier"), mux->directory(), fair);
    cell->workload = std::move(mux);
    config.fast_tier_fraction = 0.4;
    config.max_accesses = UINT64_MAX;
    config.max_time_ns = 60 * kMillisecond;
    config.warmup_accesses = 200000;
    config.stats_interval_ns = 500 * kMicrosecond;
    config.topology = kFailoverTopology;
    config.perf.bounded_queue = true;
    config.faults = kFailoverFaults;
    config.fault_runtime.evacuate = true;
    config.fault_runtime.evac_batch = 4096;
    config.fault_runtime.spill_batch = 4096;
    cell->workload_spec = std::string(kFailoverTenants) + " " +
                          kFailoverTopology + " " + kFailoverFaults;
    cell->policy_spec =
        "FairShare(HybridTier) endpoint_aware evacuate ratio=2:5";
  } else {
    return false;
  }
  return true;
}

/** Minimal JSON object writer; doubles keep all 17 digits. */
class Json {
 public:
  Json& Key(const char* key) {
    Sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& U(const char* key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    fresh_ = false;
    return *this;
  }
  Json& D(const char* key, double value) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    fresh_ = false;
    return *this;
  }
  Json& S(const char* key, const std::string& value) {
    Key(key);
    out_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    fresh_ = false;
    return *this;
  }
  Json& B(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    fresh_ = false;
    return *this;
  }
  Json& Begin(const char* key) {
    if (key != nullptr) Key(key); else Sep();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  Json& End() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  Json& Array(const char* key, const std::vector<uint64_t>& values) {
    Key(key);
    out_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i) out_ += ',';
      out_ += std::to_string(values[i]);
    }
    out_ += ']';
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/** FNV-1a over raw bytes: a digest of series the JSON does not list. */
class Digest {
 public:
  template <class T>
  void Add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void Add(const TimeSeries& series) {
    Add(series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      Add(series.times_ns[i]);
      Add(series.values[i]);
    }
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Every simulated statistic of the run, exactly. */
void EmitSim(Json& json, const SimulationResult& r) {
  json.Begin("sim")
      .U("ops", r.ops)
      .U("accesses", r.accesses)
      .U("duration_ns", r.duration_ns)
      .U("warmup_end_ns", r.warmup_end_ns)
      .D("throughput_mops", r.throughput_mops)
      .D("median_latency_ns", r.median_latency_ns)
      .D("p99_latency_ns", r.p99_latency_ns)
      .D("mean_latency_ns", r.mean_latency_ns)
      .U("fast_mem_accesses", r.fast_mem_accesses)
      .U("slow_mem_accesses", r.slow_mem_accesses)
      .U("hint_faults", r.hint_faults)
      .U("promoted_pages", r.migration.promoted_pages)
      .U("demoted_pages", r.migration.demoted_pages)
      .U("promotion_batches", r.migration.promotion_batches)
      .U("demotion_batches", r.migration.demotion_batches)
      .U("failed_promotions", r.migration.failed_promotions)
      .U("failed_demotions", r.migration.failed_demotions)
      .U("migration_time_ns", r.migration.migration_time_ns)
      .U("fault_transitions", r.fault.transitions)
      .U("fault_endpoints_downed", r.fault.endpoints_downed)
      .U("fault_endpoints_recovered", r.fault.endpoints_recovered)
      .U("fault_stalled_accesses", r.fault.stalled_accesses)
      .U("fault_evacuated_pages", r.fault.evacuated_pages)
      .U("fault_spilled_pages", r.fault.spilled_pages)
      .U("fault_evac_retries", r.fault.evac_retries)
      .U("l1_app_misses", r.l1_app_misses)
      .U("l1_tiering_misses", r.l1_tiering_misses)
      .U("llc_app_misses", r.llc_app_misses)
      .U("llc_tiering_misses", r.llc_tiering_misses)
      .U("metadata_bytes", r.metadata_bytes)
      .U("samples_taken", r.samples_taken)
      .U("samples_dropped", r.samples_dropped)
      .U("stats_tenant_visits", r.stats_tenant_visits)
      .D("jain_fairness", r.jain_fairness)
      .D("weighted_jain_fairness", r.weighted_jain_fairness)
      .U("tenant_count", r.tenants.size());
  Digest timelines;
  timelines.Add(r.latency_timeline);
  timelines.Add(r.p99_timeline);
  timelines.Add(r.tiering_l1_share_timeline);
  timelines.Add(r.tiering_llc_share_timeline);
  timelines.Add(r.fast_used_timeline);
  timelines.Add(r.weighted_fairness_timeline);
  Digest tenants;
  for (const TenantResult& t : r.tenants) {
    tenants.Add(t.weight);
    tenants.Add(t.ops);
    tenants.Add(t.accesses);
    tenants.Add(t.fast_mem_accesses);
    tenants.Add(t.slow_mem_accesses);
    tenants.Add(t.fast_resident_units);
    tenants.Add(t.footprint_units);
    tenants.Add(t.throughput_mops);
    tenants.Add(t.mean_latency_ns);
    tenants.Add(t.median_latency_ns);
    tenants.Add(t.p99_latency_ns);
    tenants.Add(t.quota_units);
    tenants.Add(t.shadow_samples);
    tenants.Add(t.marginal_utility);
    tenants.Add(t.sample_period);
    tenants.Add(t.occupancy_timeline);
    tenants.Add(t.latency_timeline);
  }
  json.S("timelines_digest", timelines.Hex())
      .S("tenants_digest", tenants.Hex())
      .End();
}

/** Occupancy and residency the caller's output checks read. */
void EmitState(Json& json, const Simulation& sim, const SimulationResult& r) {
  double max_fill = 0.0;
  for (const double v : r.fast_used_timeline.values) {
    max_fill = std::max(max_fill, v);
  }
  std::vector<uint64_t> resident;
  for (uint32_t e = 0; e < sim.memory().endpoint_count(); ++e) {
    resident.push_back(sim.memory().EndpointResident(e));
  }
  uint64_t points_before_fault = 0, points_after_fault = 0;
  for (size_t i = 0; i < r.p99_timeline.size(); ++i) {
    if (r.p99_timeline.values[i] <= 0.0) continue;
    (r.p99_timeline.times_ns[i] <= kFailoverFaultNs ? points_before_fault
                                                    : points_after_fault)++;
  }
  json.Begin("state")
      .U("fast_used_units", sim.memory().UsedPages(Tier::kFast))
      .U("fast_capacity_units", sim.memory().Capacity(Tier::kFast))
      .D("fast_used_timeline_max", max_fill)
      .Array("endpoint_resident", resident)
      .U("p99_points_to_fault", points_before_fault)
      .U("p99_points_after_fault", points_after_fault)
      .End();
}

/** The CPU's brand string, read with CPUID (no file access). */
std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

/**
 * Wall ns of a fixed host-speed probe: random read-modify-writes over
 * 32 MiB, past the host's private caches, like the simulator's own state. Other work on the host slows the probe and the simulator alike,
 * so the caller divides the host's momentary slowdown out of the timed
 * run with it (see report.py).
 */
uint64_t HostProbeNs() {
  constexpr size_t kWords = size_t{32} << 17;  // 32 MiB of uint64_t.
  std::vector<uint64_t> buffer(kWords, 1);
  uint64_t x = 0x9e3779b97f4a7c15ULL, sum = 0;
  const uint64_t start = MonotonicNs();
  for (uint32_t i = 0; i < 4000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t slot = (x >> 32) & (kWords - 1);
    buffer[slot] += x;
    sum += buffer[(slot * 7) & (kWords - 1)] & 1;
  }
  const uint64_t elapsed = MonotonicNs() - start;
  if (sum == UINT64_MAX) std::fprintf(stderr, "unreachable\n");
  return elapsed;
}

uint64_t PeakRssKib() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

void EmitTraced(Json& json, const Tracer& tracer,
                const LatencyAttribution& attr, const DecisionAudit& audit,
                const ReplayResult& replay) {
  json.Begin("hooks");
  for (size_t h = 0; h < static_cast<size_t>(Hook::kCount); ++h) {
    const HookStats& s = tracer.stats()[h];
    json.Begin(HookName(static_cast<Hook>(h)))
        .U("calls", s.calls)
        .U("timed_calls", s.timed_calls)
        .U("timed_ns", s.timed_ns)
        .U("child_ns", s.child_ns)
        .U("items", s.items)
        .U("failed", s.failed)
        .End();
  }
  json.End();
  json.U("spans_kept", tracer.spans().size())
      .U("spans_dropped", tracer.dropped_spans());

  json.Begin("attr");
  for (uint32_t c = 0; c < static_cast<uint32_t>(LatencyComponent::kCount);
       ++c) {
    const auto component = static_cast<LatencyComponent>(c);
    json.U(LatencyComponentName(component), attr.component_ns(component));
  }
  json.U("component_sum_ns", attr.ComponentSumNs())
      .U("op_latency_ns", attr.op_latency_ns())
      .U("ops", attr.ops())
      .U("observed_op_latency_ns", tracer.observed_op_latency_ns())
      .U("observed_ops", tracer.observed_ops())
      .End();

  uint64_t demoted = 0;
  for (uint32_t r = 0; r < static_cast<uint32_t>(MigrationReason::kCount);
       ++r) {
    demoted += audit.demoted_pages(static_cast<MigrationReason>(r));
  }
  json.Begin("audit")
      .U("premature_demotions", audit.premature_demotions())
      .U("late_promotions", audit.late_promotions())
      .U("demoted_pages", demoted)
      .U("total_batches", audit.total_batches())
      .End();

  json.Begin("replay")
      .U("accesses", replay.accesses)
      .D("cache_ns_per_access", replay.cache_ns_per_access)
      .U("cache_memory_fills", replay.cache_memory_fills)
      .D("touch_ns_per_access", replay.touch_ns_per_access)
      .U("fills", replay.fills)
      .D("perf_ns_per_fill", replay.perf_ns_per_fill)
      .D("sampler_ns_per_access", replay.sampler_ns_per_access)
      .U("cbf_updates", replay.cbf_updates)
      .U("cbf_counters", replay.cbf_counters)
      .U("cbf_bytes", replay.cbf_bytes)
      .D("cbf_blocked_ns_per_update", replay.cbf_blocked_ns_per_update)
      .D("cbf_standard_ns_per_update", replay.cbf_standard_ns_per_update)
      .U("checksum", replay.checksum)
      .End();
}

int Main(int argc, char** argv) {
  std::string workload, mode = "plain", trace_out;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--mode") {
      mode = argv[i + 1];
    } else if (flag == "--trace-out") {
      trace_out = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || !have_seed || (mode != "plain" && mode != "traced")) {
    std::fprintf(stderr,
                 "usage: perfbench_cell --workload NAME --seed N "
                 "--mode plain|traced [--trace-out PATH]\n");
    return 2;
  }

  Cell cell;
  if (!BuildCell(workload, seed, &cell)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  Json json;
  json.Begin(nullptr)
      .S("workload", workload)
      .U("seed", seed)
      .S("mode", mode)
      .S("workload_spec", cell.workload_spec)
      .S("policy_spec", cell.policy_spec)
      .S("compiler", PERFBENCH_COMPILER)
      .S("flags", PERFBENCH_FLAGS)
      .S("cpu_model", CpuModel());

  if (mode == "plain") {
    Simulation sim(cell.config, cell.workload.get(), cell.policy.get());
    const uint64_t entered = MonotonicNs();
    const SimulationResult result = sim.Run();
    const uint64_t finished = MonotonicNs();
    json.U("run_entered_mono_ns", entered)
        .U("run_wall_ns", finished - entered)
        .U("peak_rss_kib", PeakRssKib())  // Before the probe's buffer.
        .U("host_probe_ns", HostProbeNs());
    EmitSim(json, result);
    EmitState(json, sim, result);
  } else {
    SimulationConfig config = cell.config;
    const bool bounded = config.max_accesses != UINT64_MAX;
    Tracer tracer(/*sample_every=*/8, /*span_cap=*/50000,
                  /*record_skip=*/bounded ? config.max_accesses / 4 : 0,
                  /*record_cap=*/2000000, /*sample_cap=*/1000000);
    std::unique_ptr<TracedWorkload> traced_workload =
        WrapWorkload(cell.workload.get(), &tracer);
    TracedPolicy traced_policy(cell.policy.get(), &tracer);
    LatencyAttribution attribution;
    DecisionAudit audit;
    config.telemetry.attribution = &attribution;
    config.telemetry.audit = &audit;
    config.watchdog = true;

    Simulation sim(config, traced_workload.get(), &traced_policy);
    const uint64_t entered = MonotonicNs();
    const SimulationResult result = sim.Run();
    const uint64_t finished = MonotonicNs();
    tracer.FinishRun(result.duration_ns);

    ReplayGeometry geometry;
    geometry.config = cell.config;
    geometry.footprint_units = sim.footprint_units();
    geometry.fast_capacity_units = sim.fast_capacity_units();
    if (const auto* tags =
            dynamic_cast<const TenantTagSource*>(cell.workload.get())) {
      geometry.tenants = tags->tenant_count();
    }
    const ReplayResult replay =
        ReplayLayers(tracer.streams(), geometry, /*reps=*/5);

    json.U("run_wall_ns", finished - entered)
        .U("peak_rss_kib", PeakRssKib())
        .U("clock_ns", CalibrateClockNs());
    EmitSim(json, result);
    EmitState(json, sim, result);
    EmitTraced(json, tracer, attribution, audit, replay);
    if (!trace_out.empty()) {
      json.B("trace_written", tracer.WriteChromeTrace(trace_out));
    }
  }
  json.End();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
