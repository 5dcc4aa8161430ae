/**
 * @file
 * Determinism regression tests: the harness documents that same config +
 * seed produces identical results. These tests run the same cell twice
 * and require bit-identical headline metrics — single-tenant, huge-page,
 * and multi-tenant (per-tenant results included) — and hold fixed cells
 * to golden results and to golden counts of the work tiering does.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <memory>

#include "core/policy_factory.h"
#include "common/units.h"
#include "core/simulation.h"
#include "multitenant/fair_share_policy.h"
#include "multitenant/mux_workload.h"
#include "obs/metrics.h"
#include "workloads/factory.h"

namespace hybridtier {
namespace {

SimulationConfig TestConfig() {
  SimulationConfig config;
  config.max_accesses = 200000;
  config.seed = 11;
  return config;
}

/** Runs one (workload, policy) cell from scratch. */
SimulationResult RunCell(const std::string& workload_id,
                         const std::string& policy_name,
                         const SimulationConfig& config, uint64_t seed) {
  auto workload = MakeWorkload(workload_id, 0.05, seed);
  auto policy = MakePolicy(policy_name);
  return RunSimulation(config, workload.get(), policy.get());
}

void ExpectIdenticalHeadlines(const SimulationResult& a,
                              const SimulationResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.duration_ns, b.duration_ns);
  EXPECT_EQ(a.fast_mem_accesses, b.fast_mem_accesses);
  EXPECT_EQ(a.slow_mem_accesses, b.slow_mem_accesses);
  EXPECT_EQ(a.hint_faults, b.hint_faults);
  EXPECT_EQ(a.migration.promoted_pages, b.migration.promoted_pages);
  EXPECT_EQ(a.migration.demoted_pages, b.migration.demoted_pages);
  EXPECT_EQ(a.samples_taken, b.samples_taken);
  // Doubles must match bit-for-bit, not approximately.
  EXPECT_EQ(a.throughput_mops, b.throughput_mops);
  EXPECT_EQ(a.median_latency_ns, b.median_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns);
}

TEST(Determinism, SameSeedSameSingleTenantResults) {
  for (const char* policy : {"HybridTier", "Memtis", "TPP"}) {
    const SimulationResult a = RunCell("zipf", policy, TestConfig(), 11);
    const SimulationResult b = RunCell("zipf", policy, TestConfig(), 11);
    ExpectIdenticalHeadlines(a, b);
  }
}

TEST(Determinism, SameSeedSameResultsInHugePageMode) {
  SimulationConfig config = TestConfig();
  config.mode = PageMode::kHuge;
  const SimulationResult a = RunCell("cdn", "HybridTier", config, 11);
  const SimulationResult b = RunCell("cdn", "HybridTier", config, 11);
  ExpectIdenticalHeadlines(a, b);
}

TEST(Determinism, DifferentSeedsProduceDifferentRuns) {
  const SimulationResult a = RunCell("zipf", "HybridTier", TestConfig(), 11);
  const SimulationResult b = RunCell("zipf", "HybridTier", TestConfig(), 12);
  // The access stream itself depends on the seed, so at least the
  // virtual duration or the latency distribution must move.
  EXPECT_TRUE(a.duration_ns != b.duration_ns ||
              a.median_latency_ns != b.median_latency_ns ||
              a.migration.promoted_pages != b.migration.promoted_pages);
}

SimulationResult RunMultiTenantCell() {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,silo");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = TestConfig();
  config.max_accesses = 300000;
  return RunSimulation(config, mux.get(), fair.get());
}

TEST(Determinism, MultiTenantPerTenantResultsAreBitIdentical) {
  const SimulationResult a = RunMultiTenantCell();
  const SimulationResult b = RunMultiTenantCell();
  ExpectIdenticalHeadlines(a, b);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantResult& ta = a.tenants[t];
    const TenantResult& tb = b.tenants[t];
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.ops, tb.ops);
    EXPECT_EQ(ta.accesses, tb.accesses);
    EXPECT_EQ(ta.fast_mem_accesses, tb.fast_mem_accesses);
    EXPECT_EQ(ta.slow_mem_accesses, tb.slow_mem_accesses);
    EXPECT_EQ(ta.fast_resident_units, tb.fast_resident_units);
    EXPECT_EQ(ta.footprint_units, tb.footprint_units);
    EXPECT_EQ(ta.throughput_mops, tb.throughput_mops);
    EXPECT_EQ(ta.median_latency_ns, tb.median_latency_ns);
    EXPECT_EQ(ta.p99_latency_ns, tb.p99_latency_ns);
    EXPECT_EQ(ta.mean_latency_ns, tb.mean_latency_ns);
  }
}

/** Runs a cell with mid-run tenant churn (an arrival and a departure). */
SimulationResult RunChurnCell() {
  std::vector<TenantSpec> specs =
      ParseTenantList("zipf,cdn:2@0-5e7,zipf@3e7");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = TestConfig();
  config.max_accesses = 30000000;
  config.max_time_ns = 90 * kMillisecond;
  return RunSimulation(config, mux.get(), fair.get());
}

void ExpectIdenticalTimelines(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.times_ns[i], b.times_ns[i]);
    EXPECT_EQ(a.values[i], b.values[i]);  // Bit-for-bit.
  }
}

TEST(Determinism, ChurnTimelinesAreBitIdentical) {
  const SimulationResult a = RunChurnCell();
  const SimulationResult b = RunChurnCell();
  ExpectIdenticalHeadlines(a, b);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.weighted_jain_fairness, b.weighted_jain_fairness);
  ExpectIdenticalTimelines(a.weighted_fairness_timeline,
                           b.weighted_fairness_timeline);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].ops, b.tenants[t].ops);
    EXPECT_EQ(a.tenants[t].fast_resident_units,
              b.tenants[t].fast_resident_units);
    ExpectIdenticalTimelines(a.tenants[t].occupancy_timeline,
                             b.tenants[t].occupancy_timeline);
    ExpectIdenticalTimelines(a.tenants[t].latency_timeline,
                             b.tenants[t].latency_timeline);
  }
}

// Pre-refactor goldens: integer stats captured from the seed simulator
// (before the batched-execution / devirtualized-metadata / flat-state
// refactor) on this matrix. The refactored engine must reproduce every
// one bit-for-bit — the hot-path overhaul is a pure implementation
// change. If a *deliberate* semantic change ever lands, recapture these
// with the previous release.
// The trailing ARC and FirstTouch rows were captured later, from the
// last engine that still ran batched and per-access dispatch side by
// side and gated them bit-identical on exactly these cells.
struct GoldenCell {
  const char* workload;
  const char* policy;
  uint64_t ops, accesses, duration_ns;
  uint64_t fast_mem, slow_mem, hint_faults;
  uint64_t promoted, demoted, samples_taken;
  uint64_t l1_app, llc_app, l1_tier, llc_tier;
};

constexpr GoldenCell kPreRefactorGoldens[] = {
    {"zipf", "HybridTier", 100000ull, 400000ull, 39930826ull, 113233ull,
     186277ull, 0ull, 2461ull, 2461ull, 6564ull, 382878ull, 299510ull,
     13709ull, 11136ull},
    {"zipf", "Memtis", 100000ull, 400000ull, 39955106ull, 113427ull,
     186376ull, 0ull, 2461ull, 2461ull, 6564ull, 382878ull, 299803ull,
     14903ull, 14777ull},
    {"zipf", "TPP", 100000ull, 400000ull, 127787828ull, 70518ull,
     239508ull, 51721ull, 2783ull, 3034ull, 6564ull, 382878ull, 310026ull,
     136176ull, 125246ull},
    {"zipf", "AutoNUMA", 100000ull, 400000ull, 137888926ull, 86695ull,
     223784ull, 55001ull, 3309ull, 3309ull, 6564ull, 382878ull, 310479ull,
     147721ull, 126569ull},
    {"bfs-k", "HybridTier", 2359ull, 400080ull, 23945877ull, 142121ull,
     89749ull, 0ull, 717ull, 745ull, 6565ull, 313531ull, 231870ull,
     4366ull, 3088ull},
    {"bfs-k", "Memtis", 2359ull, 400080ull, 23944297ull, 142134ull,
     89727ull, 0ull, 717ull, 745ull, 6565ull, 313531ull, 231861ull,
     3752ull, 3186ull},
    {"bfs-k", "TPP", 2359ull, 400080ull, 35484585ull, 34831ull, 198793ull,
     3710ull, 246ull, 286ull, 6565ull, 313531ull, 233624ull, 11280ull,
     10921ull},
    {"bfs-k", "AutoNUMA", 2359ull, 400080ull, 37495645ull, 37484ull,
     196256ull, 4231ull, 417ull, 417ull, 6565ull, 313531ull, 233740ull,
     11820ull, 11308ull},
    {"pr-k", "HybridTier", 32783ull, 400001ull, 30019142ull, 115676ull,
     141433ull, 0ull, 1270ull, 1270ull, 6564ull, 322427ull, 257109ull,
     11250ull, 4562ull},
    {"pr-k", "Memtis", 32783ull, 400001ull, 29998574ull, 117010ull,
     140368ull, 0ull, 1271ull, 1309ull, 6564ull, 322427ull, 257378ull,
     8519ull, 5694ull},
    {"pr-k", "TPP", 32783ull, 400001ull, 43597824ull, 26997ull, 231325ull,
     5496ull, 309ull, 384ull, 6564ull, 322427ull, 258322ull, 13637ull,
     12384ull},
    {"pr-k", "AutoNUMA", 32783ull, 400001ull, 44182212ull, 29508ull,
     228795ull, 5496ull, 318ull, 355ull, 6564ull, 322427ull, 258303ull,
     13159ull, 12183ull},
    {"zipf", "ARC", 100000ull, 400000ull, 47573802ull, 35824ull,
     263376ull, 0ull, 0ull, 0ull, 6564ull, 382878ull, 299200ull,
     8984ull, 8975ull},
    {"zipf", "FirstTouch", 100000ull, 400000ull, 42444834ull, 35754ull,
     262517ull, 0ull, 0ull, 0ull, 6564ull, 382878ull, 298271ull, 0ull,
     0ull},
    {"bfs-k", "ARC", 2359ull, 400080ull, 31602269ull, 341ull, 232985ull,
     0ull, 1ull, 1ull, 6565ull, 313531ull, 233326ull, 9503ull, 9412ull},
    {"bfs-k", "FirstTouch", 2359ull, 400080ull, 29866217ull, 299ull,
     230852ull, 0ull, 0ull, 0ull, 6565ull, 313531ull, 231151ull, 0ull,
     0ull},
};

/** Runs one golden cell and checks every field of `golden`. */
void ExpectGoldenCell(const GoldenCell& golden, TieringPolicy* policy,
                      PageMode mode) {
  auto workload = MakeWorkload(
      golden.workload,
      std::string(golden.workload) == "zipf" ? 1.0 : 2.0, 11);
  SimulationConfig config;
  config.mode = mode;
  config.max_accesses = 400000;
  config.seed = 11;
  const SimulationResult r = RunSimulation(config, workload.get(), policy);
  EXPECT_EQ(r.ops, golden.ops);
  EXPECT_EQ(r.accesses, golden.accesses);
  EXPECT_EQ(r.duration_ns, golden.duration_ns);
  EXPECT_EQ(r.fast_mem_accesses, golden.fast_mem);
  EXPECT_EQ(r.slow_mem_accesses, golden.slow_mem);
  EXPECT_EQ(r.hint_faults, golden.hint_faults);
  EXPECT_EQ(r.migration.promoted_pages, golden.promoted);
  EXPECT_EQ(r.migration.demoted_pages, golden.demoted);
  EXPECT_EQ(r.samples_taken, golden.samples_taken);
  EXPECT_EQ(r.l1_app_misses, golden.l1_app);
  EXPECT_EQ(r.llc_app_misses, golden.llc_app);
  EXPECT_EQ(r.l1_tiering_misses, golden.l1_tier);
  EXPECT_EQ(r.llc_tiering_misses, golden.llc_tier);
}

TEST(Determinism, RefactoredEngineReproducesPreRefactorGoldens) {
  for (const GoldenCell& golden : kPreRefactorGoldens) {
    SCOPED_TRACE(std::string(golden.workload) + "/" + golden.policy);
    auto policy = MakePolicy(golden.policy);
    ExpectGoldenCell(golden, policy.get(), PageMode::kRegular);
  }
}

// The HybridTier ablation variants (Fig 14/15 estimators and the
// momentum-less tracker) and both histogram-threshold policies in
// huge-page mode (16-bit counters, Fig 12), with the end-of-run
// metadata footprint (Table 4 metric; HybridTier's includes the pending
// second-chance marks). Captured before HybridTier and Memtis were
// moved onto one histogram-threshold core, which reproduces them
// bit-for-bit.
struct VariantGolden {
  GoldenCell cell;
  PageMode mode;
  uint64_t metadata_bytes;
};

constexpr VariantGolden kVariantGoldens[] = {
    {{"zipf", "HybridTier-onlyFreq", 100000ull, 400000ull, 39902518ull,
      112960ull, 186190ull, 0ull, 2461ull, 2461ull, 6564ull, 382878ull,
      299150ull, 9032ull, 8151ull},
     PageMode::kRegular, 106784ull},
    {{"zipf", "HybridTier-CBF", 100000ull, 400000ull, 40129588ull,
      114672ull, 186832ull, 0ull, 2461ull, 2706ull, 6564ull, 382878ull,
      301504ull, 54805ull, 28400ull},
     PageMode::kRegular, 125912ull},
    {{"zipf", "HybridTier-exact", 100000ull, 400000ull, 39965222ull,
      113556ull, 186388ull, 0ull, 2461ull, 2461ull, 6564ull, 382878ull,
      299944ull, 16065ull, 15950ull},
     PageMode::kRegular, 1612640ull},
    {{"cdn", "HybridTier", 60662ull, 400006ull, 72779607ull, 97953ull,
      250914ull, 0ull, 257ull, 257ull, 6564ull, 382570ull, 348867ull,
      46706ull, 5579ull},
     PageMode::kHuge, 54800ull},
    {{"cdn", "Memtis", 60662ull, 400006ull, 82526685ull, 103385ull,
      245573ull, 0ull, 339ull, 349ull, 6564ull, 382570ull, 348958ull,
      11379ull, 6280ull},
     PageMode::kHuge, 34736ull},
};

TEST(Determinism, PolicyVariantsReproduceGoldens) {
  for (const VariantGolden& golden : kVariantGoldens) {
    SCOPED_TRACE(std::string(golden.cell.workload) + "/" +
                 golden.cell.policy +
                 (golden.mode == PageMode::kHuge ? "/huge" : ""));
    auto policy = MakePolicy(golden.cell.policy);
    ExpectGoldenCell(golden.cell, policy.get(), golden.mode);
    EXPECT_EQ(policy->MetadataBytes(), golden.metadata_bytes);
  }
}

// Multi-tenant golden: FairShare(HybridTier) over three tenants, the
// per-access quota hook path. Captured alongside the ARC/FirstTouch
// rows above, from the same dual-dispatch engine.
TEST(Determinism, FairShareReproducesGolden) {
  std::vector<TenantSpec> specs = ParseTenantList("zipf,cdn:2,silo");
  for (TenantSpec& spec : specs) spec.scale = 0.05;
  auto mux = MakeMuxWorkload(specs, 11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  SimulationConfig config = TestConfig();
  config.max_accesses = 300000;
  const SimulationResult r = RunSimulation(config, mux.get(), fair.get());
  EXPECT_EQ(r.ops, 55511u);
  EXPECT_EQ(r.accesses, 300001u);
  EXPECT_EQ(r.duration_ns, 24897633u);
  EXPECT_EQ(r.fast_mem_accesses, 51337u);
  EXPECT_EQ(r.slow_mem_accesses, 130521u);
  EXPECT_EQ(r.hint_faults, 0u);
  EXPECT_EQ(r.migration.promoted_pages, 496u);
  EXPECT_EQ(r.migration.demoted_pages, 1360u);
  EXPECT_EQ(r.samples_taken, 4913u);
  EXPECT_EQ(r.l1_app_misses, 256664u);
  EXPECT_EQ(r.llc_app_misses, 181858u);
  EXPECT_EQ(r.l1_tiering_misses, 5769u);
  EXPECT_EQ(r.llc_tiering_misses, 5389u);
  struct TenantGolden {
    uint64_t ops, fast_resident_units;
  };
  constexpr TenantGolden kTenants[] = {
      {18504u, 1360u}, {18504u, 2720u}, {18503u, 496u}};
  ASSERT_EQ(r.tenants.size(), std::size(kTenants));
  for (size_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE(r.tenants[t].name);
    EXPECT_EQ(r.tenants[t].ops, kTenants[t].ops);
    EXPECT_EQ(r.tenants[t].fast_resident_units,
              kTenants[t].fast_resident_units);
  }
}

// ----------------------------------------------------------------------
// Work goldens: the modeled work tiering costs on shortened copies of
// perfbench's four cells — policy metadata touches and the cache misses
// they cause, samples, migration batches, per-endpoint traffic, and the
// per-tenant maintenance visits of the engine and FairShare. Every value
// counts simulated events, so the gate is exact on any host: a policy
// pass that scans its metadata twice fails here by name, where a
// wall-clock floor would pass it.

/** One counter of a work golden, read from the final metric snapshot. */
struct WorkCount {
  const char* metric;
  uint64_t value;
};

void ExpectWork(const MetricRegistry& metrics,
                std::initializer_list<WorkCount> golden) {
  for (const WorkCount& count : golden) {
    const std::vector<double>* series = metrics.Series(count.metric);
    ASSERT_NE(series, nullptr) << count.metric;
    ASSERT_FALSE(series->empty()) << count.metric;
    EXPECT_EQ(static_cast<uint64_t>(series->back()), count.value)
        << count.metric;
  }
}

void ExpectFairShareWork(const FairSharePolicy& fair, uint64_t rebalance,
                         uint64_t enforce, uint64_t fill,
                         uint64_t churn_edges) {
  EXPECT_EQ(fair.rebalance_tenant_visits(), rebalance);
  EXPECT_EQ(fair.enforce_tenant_visits(), enforce);
  EXPECT_EQ(fair.fill_tenant_visits(), fill);
  EXPECT_EQ(fair.churn_edge_visits(), churn_edges);
}

/** Runs a single-workload cell the way perfbench builds it, shortened. */
SimulationResult RunWorkCell(const std::string& workload_id, double scale,
                             const std::string& policy_name,
                             MetricRegistry* metrics) {
  auto workload = MakeWorkload(workload_id, scale, 11);
  auto policy = MakePolicy(policy_name);
  SimulationConfig config = TestConfig();
  config.max_accesses = 400000;
  config.allocation = AllocationPolicyFor(policy_name);
  config.telemetry.metrics = metrics;
  return RunSimulation(config, workload.get(), policy.get());
}

TEST(Determinism, CdnHybridTierReproducesWorkGolden) {
  MetricRegistry metrics;
  const SimulationResult r = RunWorkCell(
      "cdn", DefaultWorkloadScale("cdn"), "HybridTier", &metrics);
  ExpectWork(metrics, {{"sim/accesses", 400000u},
                       {"policy/metadata_touches", 42073u},
                       {"cache/l1_tiering_misses", 18664u},
                       {"cache/llc_tiering_misses", 9923u},
                       {"sampler/samples_taken", 6564u},
                       {"migration/promotion_batches", 3u},
                       {"migration/promoted_pages", 3120u},
                       {"migration/demotion_batches", 7u},
                       {"migration/demoted_pages", 3387u},
                       {"migration/failed_promotions", 178u},
                       {"mem/endpoint0/accesses", 212724u}});
  EXPECT_EQ(r.stats_tenant_visits, 0u);
}

TEST(Determinism, BfsTppReproducesWorkGolden) {
  MetricRegistry metrics;
  const SimulationResult r = RunWorkCell("bfs-k", 2.0, "TPP", &metrics);
  ExpectWork(metrics, {{"sim/accesses", 400080u},
                       {"policy/metadata_touches", 19954u},
                       {"cache/l1_tiering_misses", 11280u},
                       {"cache/llc_tiering_misses", 10921u},
                       {"sampler/samples_taken", 6565u},
                       {"migration/promotion_batches", 598u},
                       {"migration/promoted_pages", 246u},
                       {"migration/demotion_batches", 10u},
                       {"migration/demoted_pages", 286u},
                       {"migration/failed_promotions", 352u},
                       {"mem/endpoint0/accesses", 198793u}});
  EXPECT_EQ(r.stats_tenant_visits, 0u);
}

// perfbench's fleet-fair spec: 300 Poisson-churning tenants under
// FairShare(HybridTier) with the budgeted sampler. The only golden that
// runs the churn schedule, GhostMrc and marginal-utility rebalances at
// fleet scale.
TEST(Determinism, FleetFairShareReproducesWorkGolden) {
  auto mux = MakeMuxWorkload(
      ParseTenantList("fleet:300,zipf=0.9,fp=1024,fpskew=0.3,"
                      "churn=poisson,duty=0.2,period=1e8,horizon=1e9,"
                      "seed=7"),
      11);
  auto fair = std::make_unique<FairSharePolicy>(MakePolicy("HybridTier"),
                                                mux->directory());
  MetricRegistry metrics;
  SimulationConfig config = TestConfig();
  config.max_accesses = 1000000;
  config.telemetry.metrics = &metrics;
  const SimulationResult r = RunSimulation(config, mux.get(), fair.get());
  ExpectWork(metrics, {{"sim/accesses", 1000000u},
                       {"policy/metadata_touches", 824469u},
                       {"cache/l1_tiering_misses", 185002u},
                       {"cache/llc_tiering_misses", 171507u},
                       {"sampler/samples_taken", 35041u},
                       {"migration/promotion_batches", 439u},
                       {"migration/promoted_pages", 681u},
                       {"migration/demotion_batches", 898u},
                       {"migration/demoted_pages", 190371u},
                       {"migration/failed_promotions", 6u},
                       {"mem/endpoint0/accesses", 73115u}});
  EXPECT_EQ(r.stats_tenant_visits, 615u);
  ExpectFairShareWork(*fair, 259u, 6311u, 6311u, 748u);
}

// Endpoint-aware failover golden: a shortened copy of fig_failover's
// graceful cell (three interleaved expanders, ep2 lost mid-run, paced
// evacuation on). It is the one golden that runs FairShare's
// endpoint-aware victim ranking — the hotness-then-endpoint-cost key
// over every fast-resident unit — and the failed demotions onto the
// downed device that ranking keeps picking.
TEST(Determinism, EndpointAwareFailoverReproducesGolden) {
  auto mux = MakeMuxWorkload(ParseTenantList("zipf,zipf:2,zipf"), 42);
  FairShareConfig fair_config;
  fair_config.endpoint_aware = true;
  auto fair = std::make_unique<FairSharePolicy>(
      MakePolicy("HybridTier"), mux->directory(), fair_config);
  SimulationConfig config;
  config.fast_tier_fraction = 0.4;
  config.max_accesses = UINT64_MAX;
  config.max_time_ns = 16 * kMillisecond;
  config.warmup_accesses = 200000;
  config.seed = 42;
  config.topology = "cxl:(1,2,3),lat=124:180:180,bw=34:17:17";
  config.perf.bounded_queue = true;
  config.faults = "faults:ep2@8ms=down";
  config.fault_runtime.evacuate = true;
  config.fault_runtime.evac_batch = 4096;
  config.fault_runtime.spill_batch = 4096;
  MetricRegistry metrics;
  config.telemetry.metrics = &metrics;
  const SimulationResult r = RunSimulation(config, mux.get(), fair.get());
  EXPECT_EQ(r.ops, 8659u);
  EXPECT_EQ(r.accesses, 34636u);
  EXPECT_EQ(r.duration_ns, 16428221u);
  EXPECT_EQ(r.fast_mem_accesses, 14429u);
  EXPECT_EQ(r.slow_mem_accesses, 17655u);
  EXPECT_EQ(r.migration.promoted_pages, 35810u);
  EXPECT_EQ(r.migration.demoted_pages, 39176u);
  EXPECT_EQ(r.migration.failed_promotions, 0u);
  EXPECT_EQ(r.migration.failed_demotions, 33055u);
  EXPECT_EQ(r.fault.evacuated_pages, 35581u);
  EXPECT_EQ(r.fault.spilled_pages, 0u);
  EXPECT_EQ(r.fault.stalled_accesses, 256u);
  EXPECT_EQ(r.samples_taken, 561u);
  struct TenantGolden {
    uint64_t ops, fast_resident_units, quota_units;
  };
  constexpr TenantGolden kTenants[] = {{2887u, 16437u, 11356u},
                                       {2886u, 22712u, 22712u},
                                       {2886u, 16467u, 11355u}};
  ASSERT_EQ(r.tenants.size(), std::size(kTenants));
  for (size_t t = 0; t < r.tenants.size(); ++t) {
    SCOPED_TRACE(r.tenants[t].name);
    EXPECT_EQ(r.tenants[t].ops, kTenants[t].ops);
    EXPECT_EQ(r.tenants[t].fast_resident_units,
              kTenants[t].fast_resident_units);
    EXPECT_EQ(r.tenants[t].quota_units, kTenants[t].quota_units);
  }
  // Its work golden: the three endpoints' traffic, and the enforcement
  // passes that keep ranking victims on the downed ep2.
  ExpectWork(metrics, {{"sim/accesses", 34636u},
                       {"policy/metadata_touches", 482180u},
                       {"cache/l1_tiering_misses", 113740u},
                       {"cache/llc_tiering_misses", 113739u},
                       {"sampler/samples_taken", 561u},
                       {"migration/promotion_batches", 28u},
                       {"migration/promoted_pages", 35810u},
                       {"migration/demotion_batches", 19u},
                       {"migration/demoted_pages", 39176u},
                       {"migration/failed_promotions", 0u},
                       {"migration/failed_demotions", 33055u},
                       {"mem/endpoint0/accesses", 6864u},
                       {"mem/endpoint1/accesses", 5848u},
                       {"mem/endpoint2/accesses", 4687u}});
  EXPECT_EQ(r.stats_tenant_visits, 0u);
  ExpectFairShareWork(*fair, 3u, 48u, 48u, 0u);
}

}  // namespace
}  // namespace hybridtier
