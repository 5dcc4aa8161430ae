/**
 * @file
 * Unit tests for src/core: access trackers, the HybridTier policy
 * (Table 1 migration matrix, second chance, thresholds), the policy
 * factory, and the simulation harness.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/units.h"
#include "core/hybridtier_policy.h"
#include "core/policy_factory.h"
#include "core/simulation.h"
#include "core/trackers.h"
#include "mem/migration.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "workloads/cachelib.h"
#include "workloads/factory.h"

namespace hybridtier {
namespace {

// Metadata traffic is counted (and line-buffered) by the concrete
// MetadataTrafficCounter directly; no test-local sink subclass needed.
using CountingSink = MetadataTrafficCounter;

/** Policy harness mirroring the one in test_policies.cc. */
class CoreHarness {
 public:
  CoreHarness(uint64_t footprint, uint64_t fast_capacity,
              AllocationPolicy allocation = AllocationPolicy::kFastFirst)
      : memory_(footprint, fast_capacity, footprint, allocation),
        perf_(PerfModelConfig{}, DefaultFastTier(fast_capacity),
              DefaultSlowTier(footprint)),
        engine_(&memory_, &perf_) {
    context_.memory = &memory_;
    context_.migration = &engine_;
    context_.metadata_sink = &sink_;
    context_.footprint_units = footprint;
    context_.fast_capacity_units = fast_capacity;
  }

  void Bind(TieringPolicy* policy) { policy->Bind(context_); }
  void TouchAll(uint64_t n) {
    for (PageId page = 0; page < n; ++page) memory_.Touch(page, 0);
  }
  SampleRecord Sample(PageId page, TimeNs now) {
    return SampleRecord{.page = page,
                        .tier = memory_.TierOf(page),
                        .time_ns = now};
  }

  TieredMemory& memory() { return memory_; }
  MigrationEngine& engine() { return engine_; }
  MetadataTrafficCounter& sink() { return sink_; }

 private:
  TieredMemory memory_;
  PerfModel perf_;
  MigrationEngine engine_;
  MetadataTrafficCounter sink_;
  PolicyContext context_;
};

// ----------------------------------------------------- AccessTracker --

TEST(AccessTracker, CountsAndCools) {
  TrackerConfig config;
  config.sizing = FrequencyCbfSizing(1024);
  config.cooling_period_samples = 100;
  AccessTracker tracker(config);
  CountingSink sink;
  for (int i = 0; i < 50; ++i) tracker.RecordAccess(7, sink);
  EXPECT_EQ(tracker.Get(7), 15u);  // Saturated 4-bit counter.
  for (int i = 0; i < 50; ++i) tracker.RecordAccess(8, sink);
  // The 100th sample triggered cooling.
  EXPECT_EQ(tracker.coolings(), 1u);
  EXPECT_LE(tracker.Get(7), 8u);
}

TEST(AccessTracker, RecordAccessReturnsPostCoolingCount) {
  TrackerConfig config;
  config.sizing = FrequencyCbfSizing(1024);
  config.cooling_period_samples = 10;
  AccessTracker tracker(config);
  CountingSink sink;
  uint32_t returned = 0;
  for (int i = 0; i < 10; ++i) returned = tracker.RecordAccess(7, sink);
  ASSERT_TRUE(tracker.cooled_on_last_record());
  // The 10th record raised the count to 10 and then cooling halved the
  // filter. The caller thresholds on the returned value, so it must be
  // the post-cooling estimate — not the ~2x-stale pre-cooling one.
  EXPECT_EQ(returned, tracker.Get(7));
  EXPECT_EQ(returned, 5u);
}

TEST(AccessTracker, BlockedCbfTouchesOneLinePerUpdate) {
  TrackerConfig config;
  config.kind = EstimatorKind::kBlockedCbf;
  config.sizing = FrequencyCbfSizing(4096);
  AccessTracker tracker(config);
  CountingSink sink;
  tracker.RecordAccess(42, sink);
  EXPECT_EQ(sink.touches(), 1u);
  EXPECT_GE(sink.lines().back(), config.metadata_base);
}

TEST(AccessTracker, StandardCbfTouchesMoreLines) {
  TrackerConfig blocked_config;
  blocked_config.kind = EstimatorKind::kBlockedCbf;
  blocked_config.sizing = FrequencyCbfSizing(1 << 16);
  TrackerConfig standard_config = blocked_config;
  standard_config.kind = EstimatorKind::kStandardCbf;

  AccessTracker blocked(blocked_config);
  AccessTracker standard(standard_config);
  CountingSink blocked_sink, standard_sink;
  for (PageId page = 0; page < 500; ++page) {
    blocked.RecordAccess(page, blocked_sink);
    standard.RecordAccess(page, standard_sink);
  }
  // The locality claim behind Fig 14: standard CBF touches ~k lines per
  // update, blocked CBF exactly one.
  EXPECT_EQ(blocked_sink.touches(), 500u);
  EXPECT_GT(standard_sink.touches(), 1500u);
}

TEST(AccessTracker, CoolingTouchesWholeFilter) {
  TrackerConfig config;
  config.sizing = FrequencyCbfSizing(4096);
  config.cooling_period_samples = 10;
  AccessTracker tracker(config);
  CountingSink sink;
  for (int i = 0; i < 10; ++i) tracker.RecordAccess(i, sink);
  EXPECT_TRUE(tracker.cooled_on_last_record());
  const uint64_t filter_lines = tracker.memory_bytes() / kCacheLineSize;
  EXPECT_GE(sink.touches(), filter_lines);
}

TEST(AccessTracker, ExactKindUsesTable) {
  TrackerConfig config;
  config.kind = EstimatorKind::kExact;
  config.exact_units = 1000;
  config.sizing.counter_bits = 4;
  AccessTracker tracker(config);
  CountingSink sink;
  for (int i = 0; i < 7; ++i) tracker.RecordAccess(3, sink);
  EXPECT_EQ(tracker.Get(3), 7u);
  EXPECT_EQ(tracker.memory_bytes(), 1000u * 16u);
}

TEST(AccessTracker, EstimatorKindNames) {
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kBlockedCbf),
               "blocked-cbf");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kStandardCbf),
               "standard-cbf");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kExact), "exact");
}

// ------------------------------------------------- HybridTier policy --

HybridTierConfig FastTestConfig() {
  HybridTierConfig config;
  config.promo_batch_samples = 8;
  config.momentum_cooling_samples = 1000;
  config.freq_cooling_samples = 100000;
  config.second_chance_revisit_ns = 10 * kMillisecond;
  return config;
}

TEST(HybridTier, MomentumPromotesNewHotPages) {
  HybridTierConfig config = FastTestConfig();
  config.demote_trigger_frac = 0.1;
  config.demote_target_frac = 0.3;
  CoreHarness harness(1000, 100);
  HybridTierPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(1000);

  // Warm phase: 250 distinct pages sampled 5x each push the histogram-
  // derived frequency threshold well above the momentum threshold
  // (budget is only 100 fast pages).
  for (int round = 0; round < 5; ++round) {
    for (PageId page = 100; page < 350; ++page) {
      policy.OnSample(harness.Sample(page, page));
    }
  }
  // Let the warm pages' momentum cool (two cooling periods of samples
  // aimed at one fast-resident page), so they become demotable.
  for (int i = 0; i < 2100; ++i) {
    policy.OnSample(harness.Sample(50, kMillisecond + i));
  }
  policy.Tick(2 * kMillisecond);  // Watermark demotion frees headroom.
  ASSERT_GT(policy.threshold(), 4u);
  ASSERT_GT(harness.memory().FreePages(Tier::kFast), 0u);

  // A cold page suddenly becomes hot: momentum (threshold 3) catches it
  // before its frequency earns the histogram threshold.
  for (int i = 0; i < 16; ++i) {
    policy.OnSample(harness.Sample(500, 2 * kMillisecond + i * 1000));
  }
  EXPECT_EQ(harness.memory().TierOf(500), Tier::kFast);
  EXPECT_GT(policy.momentum_promotions(), 0u);
}

TEST(HybridTier, OnlyFreqVariantLacksMomentum) {
  HybridTierConfig config = FastTestConfig();
  config.use_momentum = false;
  CoreHarness harness(1000, 100);
  HybridTierPolicy policy(config);
  harness.Bind(&policy);
  EXPECT_EQ(policy.momentum_tracker(), nullptr);
  EXPECT_STREQ(policy.name(), "HybridTier-onlyFreq");
}

TEST(HybridTier, SecondChanceDefersThenDemotes) {
  HybridTierConfig config = FastTestConfig();
  config.demote_trigger_frac = 1.0;  // Demotion pressure always on.
  config.demote_target_frac = 1.0;
  CoreHarness harness(200, 100);
  HybridTierPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(200);

  // Make page 5 frequency-hot, then let its momentum go cold.
  for (int i = 0; i < 40; ++i) {
    policy.OnSample(harness.Sample(5, i));
  }
  // Cool momentum to zero with unrelated samples (the momentum counter
  // saturates at 15, so it takes >= 4 cooling periods to reach 0).
  for (int i = 0; i < 8000; ++i) {
    policy.OnSample(harness.Sample(150 + (i % 50), 1000 + i));
  }

  // First demotion scan: page 5 is high-freq/low-momentum -> marked.
  policy.Tick(kMillisecond);
  EXPECT_GT(policy.second_chance_pending(), 0u);

  // Revisit after the delay with no further accesses: demoted.
  for (int tick = 2; tick < 30; ++tick) {
    policy.Tick(tick * kMillisecond);
  }
  EXPECT_GT(policy.second_chance_demotions(), 0u);
}

TEST(HybridTier, LowLowDemotedImmediately) {
  HybridTierConfig config = FastTestConfig();
  config.demote_trigger_frac = 0.5;
  config.demote_target_frac = 0.6;
  CoreHarness harness(200, 100);
  HybridTierPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(200);  // Fast full of never-sampled (low/low) pages.
  policy.Tick(kMillisecond);
  EXPECT_GT(harness.engine().stats().demoted_pages, 0u);
  EXPECT_GE(harness.memory().FreePages(Tier::kFast), 50u);
}

TEST(HybridTier, DemotionScanChargesOnlyVisitedUnitsAtWrap) {
  HybridTierConfig config;
  config.scan_units_per_tick = 1024;
  config.demote_trigger_frac = 0.5;
  config.demote_target_frac = 0.5;
  HybridTierPolicy policy(config);
  CoreHarness harness(1500, 16);
  harness.Bind(&policy);
  harness.TouchAll(16);  // Fast tier full: the watermark demoter runs.

  // Make every fast page momentum-hot so the scan classifies but never
  // finds a victim — each phase must then burn its full scan budget.
  for (PageId page = 0; page < 16; ++page) {
    for (int i = 0; i < 3; ++i) {
      policy.OnSample(harness.Sample(page, 0));
    }
  }

  ASSERT_EQ(policy.scan_cursor(), 0u);
  policy.Tick(1 * kMillisecond);
  // Two phases x 1024 units over a 1500-unit footprint must advance the
  // cursor to 2048 mod 1500. Charging the clipped tail chunk at its
  // nominal 1024 would end the wrapped phase 548 units early instead.
  EXPECT_EQ(policy.scan_cursor(), (2u * 1024u) % 1500u);
  policy.Tick(2 * kMillisecond);
  EXPECT_EQ(policy.scan_cursor(), (4u * 1024u) % 1500u);
}

TEST(HybridTier, MetadataScalesWithFastTierNotFootprint) {
  CoreHarness small_fast(1u << 16, 1u << 10);
  CoreHarness large_fast(1u << 16, 1u << 14);
  HybridTierPolicy policy_small{HybridTierConfig{}};
  HybridTierPolicy policy_large{HybridTierConfig{}};
  small_fast.Bind(&policy_small);
  large_fast.Bind(&policy_large);
  // Same footprint, 16x fast tier => ~16x metadata (paper Table 4:
  // "HybridTier's metadata size scales with the size of fast-tier").
  const double ratio =
      static_cast<double>(policy_large.MetadataBytes()) /
      static_cast<double>(policy_small.MetadataBytes());
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 24.0);
}

TEST(HybridTier, MetadataFarSmallerThanMemtis) {
  const uint64_t footprint = 1u << 18;
  CoreHarness harness(footprint, footprint / 16);
  HybridTierPolicy hybrid{HybridTierConfig{}};
  harness.Bind(&hybrid);
  CoreHarness harness2(footprint, footprint / 16);
  auto memtis = MakePolicy("Memtis");
  harness2.Bind(memtis.get());
  // Paper Table 4 at 1:16: 7.8x less metadata; allow a broad band.
  const double reduction =
      static_cast<double>(memtis->MetadataBytes()) /
      static_cast<double>(hybrid.MetadataBytes());
  EXPECT_GT(reduction, 4.0);
}

TEST(HybridTier, HugePageModeUses16BitCounters) {
  CoreHarness harness(1 << 12, 1 << 8);
  HybridTierConfig config;
  HybridTierPolicy policy(config);
  PolicyContext context;
  TieredMemory memory(1 << 12, 1 << 8, 1 << 12);
  PerfModel perf(PerfModelConfig{}, DefaultFastTier(1 << 8),
                 DefaultSlowTier(1 << 12));
  MigrationEngine engine(&memory, &perf, PageMode::kHuge);
  MetadataTrafficCounter sink;
  sink.SetRecording(false);
  context.memory = &memory;
  context.migration = &engine;
  context.metadata_sink = &sink;
  context.mode = PageMode::kHuge;
  context.footprint_units = 1 << 12;
  context.fast_capacity_units = 1 << 8;
  policy.Bind(context);
  EXPECT_EQ(policy.frequency_tracker().max_count(), 65535u);
}

TEST(HybridTier, VariantNames) {
  HybridTierConfig config;
  EXPECT_STREQ(HybridTierPolicy(config).name(), "HybridTier");
  config.estimator = EstimatorKind::kStandardCbf;
  EXPECT_STREQ(HybridTierPolicy(config).name(), "HybridTier-CBF");
  config.estimator = EstimatorKind::kExact;
  EXPECT_STREQ(HybridTierPolicy(config).name(), "HybridTier-exact");
}

// ------------------------------------------------------ PolicyFactory --

TEST(PolicyFactory, AllNamesConstruct) {
  for (const char* name :
       {"TPP", "AutoNUMA", "Memtis", "ARC", "TwoQ", "HybridTier",
        "HybridTier-onlyFreq", "HybridTier-CBF", "HybridTier-exact",
        "AllFast", "FirstTouch"}) {
    SCOPED_TRACE(name);
    auto policy = MakePolicy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_TRUE(IsPolicyName(name));
  }
  EXPECT_FALSE(IsPolicyName("LRU-3000"));
}

TEST(PolicyFactory, StandardSixInPaperOrder) {
  const auto& names = StandardPolicyNames();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "TPP");
  EXPECT_EQ(names.back(), "HybridTier");
}

TEST(PolicyFactory, AllocationRules) {
  EXPECT_EQ(AllocationPolicyFor("ARC"), AllocationPolicy::kSlowOnly);
  EXPECT_EQ(AllocationPolicyFor("TwoQ"), AllocationPolicy::kSlowOnly);
  EXPECT_EQ(AllocationPolicyFor("Memtis"), AllocationPolicy::kFastFirst);
  EXPECT_DOUBLE_EQ(FastFractionFor("AllFast", 0.125), 1.0);
  EXPECT_DOUBLE_EQ(FastFractionFor("Memtis", 0.125), 0.125);
}

// --------------------------------------------------------- Simulation --

SimulationConfig SmallSimConfig() {
  SimulationConfig config;
  config.max_accesses = 300000;
  config.fast_tier_fraction = 1.0 / 8;
  return config;
}

TEST(Simulation, RunsToAccessBudget) {
  auto workload = MakeWorkload("silo", 0.05, 1);
  HybridTierPolicy policy;
  const SimulationResult result =
      RunSimulation(SmallSimConfig(), workload.get(), &policy);
  EXPECT_GE(result.accesses, 300000u);
  EXPECT_GT(result.ops, 0u);
  EXPECT_GT(result.duration_ns, 0u);
  EXPECT_GT(result.median_latency_ns, 0.0);
  EXPECT_GT(result.samples_taken, result.accesses / 100);
}

TEST(Simulation, DeterministicAcrossRuns) {
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 100000;
  auto w1 = MakeWorkload("silo", 0.05, 7);
  auto w2 = MakeWorkload("silo", 0.05, 7);
  HybridTierPolicy p1, p2;
  const SimulationResult r1 = RunSimulation(config, w1.get(), &p1);
  const SimulationResult r2 = RunSimulation(config, w2.get(), &p2);
  EXPECT_EQ(r1.duration_ns, r2.duration_ns);
  EXPECT_EQ(r1.ops, r2.ops);
  EXPECT_DOUBLE_EQ(r1.median_latency_ns, r2.median_latency_ns);
  EXPECT_EQ(r1.migration.promoted_pages, r2.migration.promoted_pages);
}

TEST(Simulation, AllFastIsFasterThanFirstTouch) {
  SimulationConfig config = SmallSimConfig();
  auto w1 = MakeWorkload("cdn", 0.05, 3);
  auto w2 = MakeWorkload("cdn", 0.05, 3);
  auto all_fast = MakePolicy("AllFast");
  auto first_touch = MakePolicy("FirstTouch");

  SimulationConfig fast_config = config;
  fast_config.fast_tier_fraction = FastFractionFor("AllFast", 0.125);
  const SimulationResult r_fast =
      RunSimulation(fast_config, w1.get(), all_fast.get());
  const SimulationResult r_static =
      RunSimulation(config, w2.get(), first_touch.get());
  // The all-fast upper bound must beat no-migration first touch.
  EXPECT_LT(r_fast.duration_ns, r_static.duration_ns);
  EXPECT_EQ(r_fast.slow_mem_accesses, 0u);
}

TEST(Simulation, HugePageModeShrinksUnits) {
  auto workload = MakeWorkload("cdn", 0.05, 3);
  HybridTierPolicy policy;
  SimulationConfig config = SmallSimConfig();
  config.mode = PageMode::kHuge;
  config.max_accesses = 50000;
  Simulation simulation(config, workload.get(), &policy);
  EXPECT_LT(simulation.footprint_units(),
            workload->footprint_pages() / 100);
  simulation.Run();
}

TEST(Simulation, TimelinesRecorded) {
  auto workload = MakeWorkload("silo", 0.05, 1);
  HybridTierPolicy policy;
  SimulationConfig config = SmallSimConfig();
  config.stats_interval_ns = 1 * kMillisecond;
  const SimulationResult result =
      RunSimulation(config, workload.get(), &policy);
  EXPECT_GT(result.latency_timeline.size(), 3u);
  EXPECT_EQ(result.latency_timeline.size(),
            result.tiering_llc_share_timeline.size());
}

TEST(Simulation, MetadataTrafficAttributed) {
  auto workload = MakeWorkload("silo", 0.05, 1);
  auto memtis = MakePolicy("Memtis");
  const SimulationResult result =
      RunSimulation(SmallSimConfig(), workload.get(), memtis.get());
  // Memtis metadata updates must show up as tiering-owned misses.
  EXPECT_GT(result.l1_tiering_misses, 0u);
  EXPECT_GT(result.llc_tiering_misses, 0u);
  EXPECT_GT(result.TieringLlcMissShare(), 0.0);
}

TEST(Simulation, WarmupResetsStats) {
  auto w1 = MakeWorkload("silo", 0.05, 1);
  auto w2 = MakeWorkload("silo", 0.05, 1);
  HybridTierPolicy p1, p2;
  SimulationConfig config = SmallSimConfig();
  config.max_accesses = 200000;
  const SimulationResult without =
      RunSimulation(config, w1.get(), &p1);
  config.warmup_accesses = 100000;
  const SimulationResult with_warmup =
      RunSimulation(config, w2.get(), &p2);
  EXPECT_LT(with_warmup.l1_app_misses, without.l1_app_misses);
}

}  // namespace
}  // namespace hybridtier
