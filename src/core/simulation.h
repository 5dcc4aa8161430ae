#ifndef HYBRIDTIER_CORE_SIMULATION_H_
#define HYBRIDTIER_CORE_SIMULATION_H_

/**
 * @file
 * The end-to-end simulation harness.
 *
 * Drives a Workload's access stream through the cache hierarchy, the
 * tiered memory + timing model, and the PEBS-analogue sampler, while a
 * TieringPolicy observes the streams and migrates pages. Virtual time
 * advances by each access's modeled latency; an operation's latency is
 * the sum of its accesses (plus a fixed software overhead), which is the
 * metric the paper reports.
 *
 * The harness is deterministic: same config + workload seed => identical
 * results.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "common/percentile.h"
#include "common/units.h"
#include "fault/fault_runtime.h"
#include "fault/watchdog.h"
#include "mem/migration.h"
#include "mem/page.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "obs/telemetry.h"
#include "policies/policy.h"
#include "sampling/budgeted_sampler.h"
#include "sampling/sampler.h"
#include "workloads/tenant_tag.h"
#include "workloads/workload.h"

namespace hybridtier {

class TenantQuotaStatsSource;

/** All knobs of one simulation run. */
struct SimulationConfig {
  PageMode mode = PageMode::kRegular;   //!< Tracking/migration granularity.
  /** Fast-tier capacity as a fraction of the footprint; the paper's
   *  "1:N" configuration maps to 1.0 / N. */
  double fast_tier_fraction = 1.0 / 8;
  AllocationPolicy allocation = AllocationPolicy::kFastFirst;
  uint64_t max_accesses = 20000000;     //!< Stop after this many accesses.
  TimeNs max_time_ns = 0;               //!< 0 = unlimited.
  uint64_t warmup_accesses = 0;         //!< Reset measurement stats after.
  uint64_t sample_period = 61;          //!< PEBS period (accesses/sample).
  size_t sample_buffer = 8192;          //!< PEBS buffer depth.
  /**
   * Multi-tenant runs only: replace the single global sampler with the
   * per-tenant budgeted sampler (`BudgetedSampler`), which re-divides
   * the global sample budget equally among active tenants so a
   * high-access-rate tenant cannot crowd the sample stream that feeds
   * per-tenant demand estimators. Ignored for single-tenant workloads.
   *
   * On by default since the Fig 4-style single-hot-tenant sweep showed
   * per-tenant periods leave adaptation time unhurt (convergence within
   * the first 1 ms stats interval with the budget on and off, across
   * seeds) while the hot tenant's final occupancy and the weighted
   * fairness index come out equal or slightly better. Disable with
   * `ht_run --no-sampler-budget` / this flag for the legacy global
   * sampler.
   */
  bool tenant_sample_budget = true;
  /** Accesses between budgeted-sampler period re-adaptations. */
  uint64_t sample_adapt_window = 65536;
  TimeNs tick_interval_ns = 1 * kMillisecond;   //!< Policy maintenance.
  TimeNs stats_interval_ns = 20 * kMillisecond; //!< Timeline sampling.
  size_t latency_window = 4096;         //!< Window for timeline medians.
  /**
   * Capacity of each tenant's latency reservoir (whole-run percentile
   * estimate). The default matches the historical fixed size; fleet
   * benches shrink it — per-tenant state must stay a few KB when a
   * thousand tenants share one cell.
   */
  size_t tenant_reservoir = 16384;
  /**
   * Per-tenant metric probes are registered only for the K heaviest
   * tenants (ties broken by admission order); the rest roll up into a
   * single "tenant/other/" aggregate so `--metrics-out` stays readable
   * at fleet scale. 0 = no cap (a probe set per tenant, the historical
   * behavior). Only affects telemetry, never results or timelines.
   */
  uint32_t tenant_metrics_top_k = 16;
  HierarchyConfig cache;                //!< Cache geometry.
  PerfModelConfig perf;                 //!< Timing constants.
  /**
   * Slow-tier device topology spec (see mem/topology.h), e.g.
   * "cxl:(1,(2,3)),lat=124:180:180,bw=34:17:17,link=20". Empty (the
   * default) is `DefaultTopology()`: one endpoint with the paper-default
   * slow tier.
   */
  std::string topology;
  /**
   * Fault-injection schedule spec (see fault/fault_spec.h), e.g.
   * "faults:ep2@5s=down,ep1@2s-8s=degrade3x". Empty (the default)
   * constructs no fault runtime at all and keeps every run bit-identical
   * to the pre-fault code — the golden determinism tests gate on it.
   * Any `down`/`degrade` event force-enables `perf.bounded_queue` (with
   * a warning when it was off): an unbounded backlog integral across an
   * outage would model infinite recovery.
   */
  std::string faults;
  /**
   * Runs the invariant watchdog (fault/watchdog.h) at every stats
   * interval and at end of run; a violated invariant aborts the run
   * with the failed check's report. Pure observation — an enabled
   * watchdog never changes results, only whether a corrupt run is
   * allowed to finish.
   */
  bool watchdog = false;
  /** Failover behavior knobs (only read when `faults` is non-empty). */
  FaultRuntimeConfig fault_runtime;
  uint64_t seed = 1;                    //!< Sampler jitter seed.
  /**
   * Optional telemetry sinks (metrics registry, trace emitter, latency
   * attribution, decision audit), all non-owning and null by default.
   * Their content is keyed to virtual time and stays bit-identical
   * across reruns and sweep `--jobs` values.
   */
  Telemetry telemetry;
};

/**
 * Per-tenant slice of a multi-tenant run. Produced when the workload
 * implements `TenantTagSource` (e.g. `MuxWorkload`); attribution is by
 * the tenant that generated each operation.
 */
struct TenantResult {
  std::string name;
  double weight = 1.0;               //!< Fair-share weight.
  uint64_t ops = 0;
  uint64_t accesses = 0;
  uint64_t fast_mem_accesses = 0;  //!< Demand fills served by fast tier.
  uint64_t slow_mem_accesses = 0;
  uint64_t fast_resident_units = 0;  //!< End-of-run fast-tier occupancy.
  uint64_t footprint_units = 0;      //!< Tenant region size in units.
  double throughput_mops = 0.0;      //!< Tenant ops per virtual us.
  double median_latency_ns = 0.0;    //!< Post-warmup op latency median.
  double p99_latency_ns = 0.0;
  double mean_latency_ns = 0.0;

  // Quota-controller view (zero unless the policy manages per-tenant
  // quotas, i.e. implements TenantQuotaStatsSource).
  uint64_t quota_units = 0;        //!< End-of-run fast-tier quota.
  uint64_t shadow_samples = 0;     //!< Samples fed to the ghost estimate.
  double marginal_utility = 0.0;   //!< Hits/window of the next fast unit.
  /** Effective sampling period for this tenant's accesses (the global
   *  period unless the budgeted sampler is enabled). */
  uint64_t sample_period = 0;

  // Per-tenant adaptation timelines, sampled every stats_interval_ns.
  TimeSeries occupancy_timeline;  //!< Fast units / fast capacity.
  TimeSeries latency_timeline;    //!< Windowed median op latency.

  /** Fraction of this tenant's demand fills served by the fast tier. */
  double FastAccessFraction() const {
    const uint64_t total = fast_mem_accesses + slow_mem_accesses;
    return total == 0 ? 0.0
                      : static_cast<double>(fast_mem_accesses) /
                            static_cast<double>(total);
  }

  /** Fraction of this tenant's region resident in the fast tier. */
  double FastResidentFraction() const {
    return footprint_units == 0
               ? 0.0
               : static_cast<double>(fast_resident_units) /
                     static_cast<double>(footprint_units);
  }
};

/** Everything a run produces. */
struct SimulationResult {
  // Volume.
  uint64_t ops = 0;
  uint64_t accesses = 0;
  TimeNs duration_ns = 0;
  TimeNs warmup_end_ns = 0;  //!< Virtual time when warmup ended.

  /** Post-warmup runtime (== duration_ns when no warmup configured). */
  TimeNs SteadyDurationNs() const { return duration_ns - warmup_end_ns; }

  // Headline performance.
  double throughput_mops = 0.0;    //!< Operations per virtual us.
  double median_latency_ns = 0.0;  //!< Whole-run op latency median.
  double p99_latency_ns = 0.0;
  double mean_latency_ns = 0.0;

  // Timelines (sampled every stats_interval_ns).
  TimeSeries latency_timeline;          //!< Windowed median op latency.
  /** Windowed p99 op latency — the failover bench's recovery series. */
  TimeSeries p99_timeline;
  TimeSeries tiering_l1_share_timeline; //!< Per-interval tiering L1 share.
  TimeSeries tiering_llc_share_timeline;
  TimeSeries fast_used_timeline;        //!< Fast-tier occupancy fraction.

  // Memory system.
  uint64_t fast_mem_accesses = 0;  //!< Demand fills served by fast tier.
  uint64_t slow_mem_accesses = 0;
  uint64_t hint_faults = 0;
  MigrationStats migration;
  /** Fault-layer counters (all zero when no fault spec was given). */
  FaultStats fault;

  // Cache attribution (post warmup).
  uint64_t l1_app_misses = 0;
  uint64_t l1_tiering_misses = 0;
  uint64_t llc_app_misses = 0;
  uint64_t llc_tiering_misses = 0;

  // Tiering metadata.
  size_t metadata_bytes = 0;
  uint64_t samples_taken = 0;
  uint64_t samples_dropped = 0;

  /**
   * Tenants visited by per-interval timeline accounting over the whole
   * run: present tenants plus departed ones still draining. The
   * O(active) guard test asserts this scales with the tenants actually
   * present, not the fleet size.
   */
  uint64_t stats_tenant_visits = 0;

  // Multi-tenant attribution (empty unless the workload is a
  // TenantTagSource).
  std::vector<TenantResult> tenants;
  /**
   * Jain fairness index over per-tenant fast-tier occupancy: how
   * equitably the shared capacity is divided (fill rates are workload-
   * intrinsic; occupancy is what a tiering policy actually allocates).
   * 1.0 for single-tenant runs.
   */
  double jain_fairness = 1.0;
  /**
   * Weight-normalized Jain fairness over occupancy / weight, scoring a
   * weighted split ("a:4,b:1") as fair when occupancies track weights.
   * Computed over the tenants present at end of run (departed tenants
   * hold nothing and would otherwise pin the index low forever).
   */
  double weighted_jain_fairness = 1.0;
  /**
   * The weighted index sampled every stats_interval_ns over the tenants
   * present at each instant — the churn-adaptation series a bench plots
   * to measure quota reconvergence after an arrival or departure.
   */
  TimeSeries weighted_fairness_timeline;

  /** Fraction of demand fills served by the fast tier. */
  double FastAccessFraction() const {
    const uint64_t total = fast_mem_accesses + slow_mem_accesses;
    return total == 0 ? 0.0
                      : static_cast<double>(fast_mem_accesses) /
                            static_cast<double>(total);
  }

  /** Tiering share of all L1 misses. */
  double TieringL1MissShare() const {
    const uint64_t total = l1_app_misses + l1_tiering_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(l1_tiering_misses) /
                            static_cast<double>(total);
  }

  /** Tiering share of all LLC misses. */
  double TieringLlcMissShare() const {
    const uint64_t total = llc_app_misses + llc_tiering_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(llc_tiering_misses) /
                            static_cast<double>(total);
  }
};

/** One wired-up simulation run. */
class Simulation {
 public:
  /**
   * @param config run parameters.
   * @param workload access generator (not owned; consumed statefully).
   * @param policy  tiering policy (not owned; bound to this run).
   */
  Simulation(const SimulationConfig& config, Workload* workload,
             TieringPolicy* policy);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /** Executes the run to its budget and returns the results. */
  SimulationResult Run();

  /** Tiered memory view (valid during and after Run). */
  const TieredMemory& memory() const { return *memory_; }

  /** Timing-model view: per-endpoint traffic and backlog counters. */
  const PerfModel& perf_model() const { return *perf_; }

  /** Fast-tier capacity in tracking units for this run. */
  uint64_t fast_capacity_units() const { return fast_capacity_units_; }

  /** Footprint in tracking units. */
  uint64_t footprint_units() const { return footprint_units_; }

 private:
  /** Per-tenant accumulators while the run is in flight. */
  struct TenantState {
    uint64_t ops = 0;
    uint64_t accesses = 0;
    uint64_t fast_mem_accesses = 0;
    uint64_t slow_mem_accesses = 0;
    ReservoirSampler reservoir;
    WindowedPercentile window;      //!< Recent op latencies (timeline).
    TimeSeries occupancy_timeline;  //!< Fast units / fast capacity.
    TimeSeries latency_timeline;    //!< Windowed median op latency.

    TenantState(uint64_t seed, size_t latency_window,
                size_t reservoir_capacity)
        : reservoir(reservoir_capacity, seed), window(latency_window) {}
  };

  /** One scheduled presence change (from TenantTagSource windows). */
  struct PresenceEdge {
    TimeNs at = 0;
    uint32_t tenant = 0;
    bool arrival = false;
  };

  /**
   * Applies presence edges up to `at`: arrivals join `present_`,
   * departures move to `draining_` (their occupancy is still reported
   * until the policy finishes releasing the region). O(1) when no edge
   * is due, so per-interval accounting never scans the whole fleet.
   */
  void AdvancePresence(TimeNs at);

  /**
   * Captures one timeline point stamped at scheduled sample time `at`.
   * `idle` marks points inside an all-idle churn gap (no op latency).
   */
  void RecordTimelinePoint(TimeNs at, bool idle = false);

  /** Fills result_.tenants / jain_fairness from the tenant states. */
  void FinalizeTenantResults();

  /**
   * Executes one non-empty op end to end: the access loop (touch, cache
   * probes, timing, sampling) as a tight inlined loop, policy dispatch
   * per `access_interest_`, the sample drain, due maintenance ticks,
   * migration-stall charging, and the op's latency accounting.
   */
  void RunOp(const OpTrace& op, TenantState* tenant);

  /** Registers metric probes and trace tracks from config_.telemetry. */
  void SetupTelemetry();

  /** Emits period_adapt instants for tenants whose budgeted-sampler
   *  period changed since the last stats interval. */
  void EmitSamplerAdaptEvents(TimeNs at);

  /**
   * Replays metadata lines buffered in `metadata_counter_` into the
   * shared hierarchy, in report order, and clears the buffer. Called at
   * every boundary between policy execution and the next cache-state
   * observer (app access or stats read), so the modeled LLC sees the
   * same access sequence the legacy immediate-replay sink produced.
   */
  void FlushMetadataTraffic();

  SimulationConfig config_;
  Workload* workload_;
  TieringPolicy* policy_;
  TenantTagSource* tenant_source_ = nullptr;  //!< Null = single tenant.
  std::vector<TenantState> tenant_states_;

  uint64_t footprint_units_ = 0;
  uint64_t fast_capacity_units_ = 0;

  std::unique_ptr<TieredMemory> memory_;
  std::unique_ptr<PerfModel> perf_;
  std::unique_ptr<CacheHierarchy> hierarchy_;
  std::unique_ptr<MigrationEngine> migration_;
  std::unique_ptr<AccessSampler> sampler_;
  /** Replaces sampler_ when tenant_sample_budget is on (tenant runs). */
  std::unique_ptr<BudgetedSampler> budgeted_sampler_;
  /** Null unless config.faults is non-empty (the common case). */
  std::unique_ptr<FaultRuntime> fault_runtime_;
  /** Null unless config.watchdog (pure observation when present). */
  std::unique_ptr<InvariantWatchdog> watchdog_;
  /** Mirrors fault_runtime_ != nullptr; hot-loop guard. */
  bool faults_on_ = false;
  MetadataTrafficCounter metadata_counter_;

  // Run state.
  TimeNs now_ = 0;
  uint64_t ops_ = 0;
  uint64_t accesses_ = 0;
  SimulationResult result_;
  WindowedPercentile window_;
  ReservoirSampler reservoir_;
  /** The policy's declared dispatch mode, resolved once. */
  AccessInterest access_interest_ = AccessInterest::kInline;
  std::vector<TouchEvent> access_events_;   //!< Per-op batch buffer.
  std::vector<SampleRecord> sample_buffer_; //!< Per-op drain buffer.
  TimeNs next_tick_ = 0;
  TimeNs next_stats_ = 0;

  // O(active) per-tenant accounting: the presence schedule derived from
  // the workload's residency windows, the tenants currently present
  // (sorted by id, so floating-point reductions keep the historical
  // id-order evaluation), and departed tenants still draining.
  std::vector<PresenceEdge> presence_edges_;
  size_t presence_cursor_ = 0;
  std::vector<uint32_t> present_;   //!< Present tenant ids, ascending.
  std::vector<uint32_t> draining_;  //!< Departed, region not yet empty.
  std::vector<double> scratch_shares_;   //!< Per-interval, present-sized.
  std::vector<double> scratch_weights_;
  /** Copy buffer for every latency window's timeline quantiles (global
   *  and per tenant): one shared buffer, not one per window. */
  std::vector<double> quantile_scratch_;

  // Migration-stall accounting (TLB shootdowns hit the app cores).
  uint64_t last_migration_batches_ = 0;
  uint64_t last_migration_pages_ = 0;

  // Interval bookkeeping for miss-share timelines.
  uint64_t last_l1_app_misses_ = 0;
  uint64_t last_l1_tiering_misses_ = 0;
  uint64_t last_llc_app_misses_ = 0;
  uint64_t last_llc_tiering_misses_ = 0;

  // Telemetry (all null/empty when disabled; see SetupTelemetry).
  MetricRegistry* metrics_ = nullptr;
  TraceEmitter* trace_ = nullptr;
  LatencyAttribution* attr_ = nullptr;
  DecisionAudit* audit_ = nullptr;
  HistogramMetric* op_latency_hist_ = nullptr;  //!< Owned by metrics_.
  /** Per-endpoint slow-fill queue-delay histograms (owned by metrics_;
   *  empty when telemetry is off — one emptiness check per slow fill). */
  std::vector<HistogramMetric*> endpoint_queue_hist_;
  /** Quota-stats view of policy_, resolved once (also used by
   *  FinalizeTenantResults). */
  const TenantQuotaStatsSource* quota_stats_ = nullptr;
  TraceEmitter::TrackId sampler_track_ = 0;
  std::vector<uint64_t> last_periods_;  //!< Per-tenant, for adapt events.
};

/** Convenience wrapper: construct, run, return. */
SimulationResult RunSimulation(const SimulationConfig& config,
                               Workload* workload, TieringPolicy* policy);

}  // namespace hybridtier

#endif  // HYBRIDTIER_CORE_SIMULATION_H_
