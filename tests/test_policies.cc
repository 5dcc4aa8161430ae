/**
 * @file
 * Unit tests for src/policies: aging, LRU list, Memtis, the hint-fault
 * baselines (AutoNUMA, TPP), ARC, TwoQ, static policies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/policy_factory.h"
#include "mem/migration.h"
#include "mem/perf_model.h"
#include "mem/tiered_memory.h"
#include "policies/aging.h"
#include "policies/arc.h"
#include "policies/hint_fault.h"
#include "policies/lru_list.h"
#include "policies/memtis.h"
#include "policies/policy.h"
#include "policies/static_policy.h"
#include "policies/twoq.h"

namespace hybridtier {
namespace {

/** Minimal substrate for driving a policy by hand. */
class PolicyHarness {
 public:
  PolicyHarness(uint64_t footprint, uint64_t fast_capacity,
                AllocationPolicy allocation = AllocationPolicy::kFastFirst)
      : memory_(footprint, fast_capacity, footprint, allocation),
        perf_(PerfModelConfig{}, DefaultFastTier(fast_capacity),
              DefaultSlowTier(footprint)),
        engine_(&memory_, &perf_) {
    // The harness never replays metadata traffic; count without
    // buffering (the drop-in equivalent of the old null sink).
    sink_.SetRecording(false);
    context_.memory = &memory_;
    context_.migration = &engine_;
    context_.metadata_sink = &sink_;
    context_.footprint_units = footprint;
    context_.fast_capacity_units = fast_capacity;
  }

  void Bind(TieringPolicy* policy) { policy->Bind(context_); }

  /** Touches pages [0, n) to make them resident. */
  void TouchAll(uint64_t n, TimeNs now = 0) {
    for (PageId page = 0; page < n; ++page) memory_.Touch(page, now);
  }

  SampleRecord Sample(PageId page, TimeNs now) {
    return SampleRecord{.page = page,
                        .tier = memory_.TierOf(page),
                        .time_ns = now};
  }

  TieredMemory& memory() { return memory_; }
  MigrationEngine& engine() { return engine_; }

 private:
  TieredMemory memory_;
  PerfModel perf_;
  MigrationEngine engine_;
  MetadataTrafficCounter sink_;
  PolicyContext context_;
};

// -------------------------------------------------------------- Aging --

TEST(ClockAger, AgesUnaccessedPages) {
  ClockAger ager(10);
  ager.MarkAccessed(3);
  ager.Scan(0, 10);
  EXPECT_EQ(ager.AgeOf(3), 0u);
  EXPECT_EQ(ager.AgeOf(4), 1u);
  ager.Scan(0, 10);
  EXPECT_EQ(ager.AgeOf(3), 1u);  // No access since harvest.
  EXPECT_EQ(ager.AgeOf(4), 2u);
}

TEST(ClockAger, AccessResetsAge) {
  ClockAger ager(4);
  ager.Scan(0, 4);
  ager.Scan(0, 4);
  EXPECT_EQ(ager.AgeOf(1), 2u);
  ager.MarkAccessed(1);
  ager.Scan(0, 4);
  EXPECT_EQ(ager.AgeOf(1), 0u);
}

TEST(ClockAger, ScanClipsAtEnd) {
  ClockAger ager(4);
  EXPECT_EQ(ager.Scan(2, 100), 2u);
}

TEST(ClockAger, AgeSaturates) {
  ClockAger ager(1);
  for (int i = 0; i < 300; ++i) ager.Scan(0, 1);
  EXPECT_EQ(ager.AgeOf(0), 255u);
}

// ------------------------------------------------------------ LruList --

TEST(LruList, OrderAndMembership) {
  LruList list;
  list.PushMru(1);
  list.PushMru(2);
  list.PushMru(3);
  EXPECT_TRUE(list.Contains(2));
  EXPECT_EQ(list.PeekLru(), 1u);
  EXPECT_EQ(list.PopLru(), 1u);
  EXPECT_FALSE(list.Contains(1));
  EXPECT_EQ(list.size(), 2u);
}

TEST(LruList, MoveToMruChangesEvictionOrder) {
  LruList list;
  list.PushMru(1);
  list.PushMru(2);
  list.PushMru(3);
  EXPECT_TRUE(list.MoveToMru(1));
  EXPECT_EQ(list.PopLru(), 2u);
}

TEST(LruList, RemoveMiddle) {
  LruList list;
  list.PushMru(1);
  list.PushMru(2);
  list.PushMru(3);
  EXPECT_TRUE(list.Remove(2));
  EXPECT_FALSE(list.Remove(2));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.PopLru(), 1u);
  EXPECT_EQ(list.PopLru(), 3u);
}

TEST(LruList, MoveMissingReturnsFalse) {
  LruList list;
  EXPECT_FALSE(list.MoveToMru(9));
}

// ------------------------------------------------------ batched hotness --

TEST(HotnessOfBatch, MatchesPerUnitHotnessOf) {
  // HybridTier (blocked CBF) and Memtis (exact table) override the batch
  // read with their estimator's; TPP keeps the per-unit default.
  for (const char* name : {"HybridTier", "Memtis", "TPP"}) {
    SCOPED_TRACE(name);
    PolicyHarness harness(4096, 512);
    std::unique_ptr<TieringPolicy> policy = MakePolicy(name);
    harness.Bind(policy.get());
    harness.TouchAll(4096);
    Rng rng(9);
    for (int i = 0; i < 5000; ++i) {
      const PageId page = rng.NextBounded(1 + rng.NextBounded(4096));
      policy->OnSample(harness.Sample(page, i * 1000));
    }
    std::vector<PageId> units(700);
    for (PageId& unit : units) unit = rng.NextBounded(4096);
    std::vector<uint32_t> out(units.size());
    policy->HotnessOfBatch(units, out);
    for (size_t i = 0; i < units.size(); ++i) {
      EXPECT_EQ(out[i], policy->HotnessOf(units[i])) << "unit " << units[i];
    }
  }
}

// ------------------------------------------------------------- Memtis --

TEST(Memtis, PromotesHotSlowPages) {
  PolicyHarness harness(1000, 100);
  MemtisConfig config;
  config.promo_batch_samples = 8;
  MemtisPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(1000);  // Pages 100.. are in slow; fast is full.

  // Background watermark demotion must free headroom first (fast is
  // 100% full after first-touch allocation), as kswapd-style reclaim
  // does in the real system.
  policy.Tick(kMillisecond);
  ASSERT_GT(harness.memory().FreePages(Tier::kFast), 0u);

  // Hammer slow page 500 with samples.
  for (int i = 0; i < 64; ++i) {
    policy.OnSample(harness.Sample(500, i * 100));
  }
  EXPECT_EQ(harness.memory().TierOf(500), Tier::kFast);
  EXPECT_GT(harness.engine().stats().promoted_pages, 0u);
}

TEST(Memtis, ThresholdTracksBudget) {
  PolicyHarness harness(1000, 10);
  MemtisConfig config;
  config.promo_batch_samples = 1000000;  // No flushes during the test.
  MemtisPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(1000);
  // 100 distinct warm pages, 5 very hot pages.
  for (PageId page = 0; page < 100; ++page) {
    policy.OnSample(harness.Sample(page, 0));
  }
  for (int round = 0; round < 50; ++round) {
    for (PageId page = 0; page < 5; ++page) {
      policy.OnSample(harness.Sample(900 + page, 0));
    }
  }
  policy.Tick(kMillisecond);
  // Budget 10 < 100 warm pages: the threshold must exceed 1.
  EXPECT_GT(policy.threshold(), 1u);
}

TEST(Memtis, CoolingHalvesCounters) {
  PolicyHarness harness(100, 10);
  MemtisConfig config;
  config.cooling_period_samples = 50;
  config.promo_batch_samples = 1000000;
  MemtisPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);
  for (int i = 0; i < 120; ++i) policy.OnSample(harness.Sample(5, i));
  EXPECT_GE(policy.coolings(), 2u);
}

TEST(Memtis, WatermarkDemotionFreesSpace) {
  PolicyHarness harness(200, 50);
  MemtisConfig config;
  config.demote_trigger_frac = 0.1;
  config.demote_target_frac = 0.2;
  MemtisPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(200);  // Fast completely full.
  EXPECT_EQ(harness.memory().FreePages(Tier::kFast), 0u);
  policy.Tick(kMillisecond);
  EXPECT_GE(harness.memory().FreePages(Tier::kFast), 10u);
}

TEST(Memtis, MetadataIs16BytesPerPage) {
  PolicyHarness harness(1 << 16, 1 << 10);
  MemtisPolicy policy;
  harness.Bind(&policy);
  // 16 B per page over all pages (+ histogram): the 0.39% figure.
  EXPECT_GE(policy.MetadataBytes(), (1u << 16) * 16u);
  EXPECT_LT(policy.MetadataBytes(), (1u << 16) * 16u + 4096u);
}

// ----------------------------------------------------------- AutoNUMA --

TEST(AutoNuma, PromotesOnFastHintFault) {
  PolicyHarness harness(100, 10);
  HintFaultConfig config = HintFaultConfig::AutoNuma();
  config.window_ns = kMillisecond;
  HintFaultPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);
  // Make room in the fast tier (it filled up at first touch).
  ASSERT_TRUE(harness.memory().Migrate(0, Tier::kSlow));

  // Protect slow page 50, then fault it quickly.
  harness.memory().Protect(PageRange{50, 51}, 1000);
  const TouchResult touch = harness.memory().Touch(50, 2000);
  ASSERT_TRUE(touch.hint_fault);
  policy.OnAccess(50, touch, 2000);
  EXPECT_EQ(policy.hint_faults(), 1u);
  EXPECT_EQ(policy.fault_promotions(), 1u);
  EXPECT_EQ(harness.memory().TierOf(50), Tier::kFast);
}

TEST(AutoNuma, IgnoresSlowFaults) {
  PolicyHarness harness(100, 10);
  HintFaultConfig config = HintFaultConfig::AutoNuma();
  config.window_ns = kMillisecond;
  HintFaultPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);

  harness.memory().Protect(PageRange{60, 61}, 0);
  const TouchResult touch = harness.memory().Touch(60, 10 * kMillisecond);
  ASSERT_TRUE(touch.hint_fault);
  policy.OnAccess(60, touch, 10 * kMillisecond);
  EXPECT_EQ(policy.fault_promotions(), 0u);
  EXPECT_EQ(harness.memory().TierOf(60), Tier::kSlow);
}

TEST(AutoNuma, TickProtectsChunks) {
  PolicyHarness harness(100, 100);
  HintFaultConfig config = HintFaultConfig::AutoNuma();
  config.scan_chunk_units = 10;
  HintFaultPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);
  policy.Tick(0);
  uint64_t protected_count = 0;
  for (PageId page = 0; page < 100; ++page) {
    protected_count += harness.memory().IsProtected(page);
  }
  EXPECT_EQ(protected_count, 10u);
}

TEST(AutoNuma, DemotesAgedPagesUnderPressure) {
  PolicyHarness harness(100, 50);
  HintFaultConfig config = HintFaultConfig::AutoNuma();
  config.demote_trigger_frac = 0.1;
  config.demote_target_frac = 0.2;
  HintFaultPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);  // Fast full (50 pages).
  // Two ticks age every page (no accesses in between).
  policy.Tick(kMillisecond);
  policy.Tick(2 * kMillisecond);
  EXPECT_GE(harness.memory().FreePages(Tier::kFast), 5u);
}

// ---------------------------------------------------------------- TPP --

TEST(Tpp, SecondFaultWithinWindowPromotes) {
  PolicyHarness harness(100, 10);
  HintFaultConfig config = HintFaultConfig::Tpp();
  config.window_ns = kSecond;
  HintFaultPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);
  // Make room in the fast tier (it filled up at first touch).
  ASSERT_TRUE(harness.memory().Migrate(0, Tier::kSlow));

  // First fault: remembered, not promoted.
  harness.memory().Protect(PageRange{50, 51}, 0);
  TouchResult touch = harness.memory().Touch(50, 1000);
  policy.OnAccess(50, touch, 1000);
  EXPECT_EQ(harness.memory().TierOf(50), Tier::kSlow);

  // Second fault within the window: promoted.
  harness.memory().Protect(PageRange{50, 51}, 2000);
  touch = harness.memory().Touch(50, 3000);
  policy.OnAccess(50, touch, 3000);
  EXPECT_EQ(policy.fault_promotions(), 1u);
  EXPECT_EQ(harness.memory().TierOf(50), Tier::kFast);
}

TEST(Tpp, SecondFaultOutsideWindowDoesNot) {
  PolicyHarness harness(100, 10);
  HintFaultConfig config = HintFaultConfig::Tpp();
  config.window_ns = kMillisecond;
  HintFaultPolicy policy(config);
  harness.Bind(&policy);
  harness.TouchAll(100);

  harness.memory().Protect(PageRange{50, 51}, 0);
  TouchResult touch = harness.memory().Touch(50, 1000);
  policy.OnAccess(50, touch, 1000);
  harness.memory().Protect(PageRange{50, 51}, 2000);
  touch = harness.memory().Touch(50, 10 * kMillisecond);
  policy.OnAccess(50, touch, 10 * kMillisecond);
  EXPECT_EQ(policy.fault_promotions(), 0u);
  EXPECT_EQ(harness.memory().TierOf(50), Tier::kSlow);
}

TEST(HintFault, PresetsKeepTheirNamesAndMetadataBytes) {
  // Accessed-bit + age bytes (2 B/unit), plus TPP's 8 B last-fault time
  // or AutoNUMA's 4 B scan state per unit. bfs-tpp's metadata_kib
  // reads this.
  PolicyHarness harness(4096, 512);
  auto tpp = MakePolicy("TPP");
  auto autonuma = MakePolicy("AutoNUMA");
  harness.Bind(tpp.get());
  harness.Bind(autonuma.get());
  EXPECT_STREQ(tpp->name(), "TPP");
  EXPECT_STREQ(autonuma->name(), "AutoNUMA");
  EXPECT_EQ(tpp->MetadataBytes(), 40960u);
  EXPECT_EQ(autonuma->MetadataBytes(), 24576u);
}

// ---------------------------------------------------------------- ARC --

TEST(Arc, AdmitsOnMissAndCachesInFast) {
  PolicyHarness harness(100, 10, AllocationPolicy::kSlowOnly);
  ArcPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);  // All pages in slow.

  policy.OnSample(harness.Sample(7, 0));
  EXPECT_EQ(harness.memory().TierOf(7), Tier::kFast);
  EXPECT_EQ(policy.t1_size(), 1u);
}

TEST(Arc, SecondAccessMovesToT2) {
  PolicyHarness harness(100, 10, AllocationPolicy::kSlowOnly);
  ArcPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);
  policy.OnSample(harness.Sample(7, 0));
  policy.OnSample(harness.Sample(7, 1));
  EXPECT_EQ(policy.t1_size(), 0u);
  EXPECT_EQ(policy.t2_size(), 1u);
}

TEST(Arc, EvictsWhenFull) {
  PolicyHarness harness(100, 4, AllocationPolicy::kSlowOnly);
  ArcPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);
  // Pages 0..3 fill T1; re-referencing page 0 moves it to T2, so later
  // misses evict through REPLACE (which records ghosts in B1).
  for (PageId page = 0; page < 4; ++page) {
    policy.OnSample(harness.Sample(page, page));
  }
  policy.OnSample(harness.Sample(0, 10));
  for (PageId page = 10; page < 20; ++page) {
    policy.OnSample(harness.Sample(page, page));
  }
  // The fast tier never exceeds its capacity.
  EXPECT_LE(harness.memory().UsedPages(Tier::kFast), 4u);
  EXPECT_GT(harness.engine().stats().demoted_pages, 0u);
  // Ghost lists remember evicted pages.
  EXPECT_GT(policy.b1_size(), 0u);
}

TEST(Arc, GhostHitAdaptsTarget) {
  PolicyHarness harness(100, 4, AllocationPolicy::kSlowOnly);
  ArcPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);
  // Build up T2 traffic so REPLACE pushes T1 victims into the B1 ghost
  // list (a pure cold-miss stream never populates ghosts in ARC).
  for (PageId page = 0; page < 4; ++page) {
    policy.OnSample(harness.Sample(page, page));
  }
  policy.OnSample(harness.Sample(0, 10));
  // One miss: REPLACE pops T1's LRU (page 1) into the B1 ghost list.
  policy.OnSample(harness.Sample(10, 20));
  ASSERT_GT(policy.b1_size(), 0u);
  // Re-reference the ghost: p must grow (recency favored).
  const uint64_t p_before = policy.target_p();
  policy.OnSample(harness.Sample(1, 100));
  EXPECT_GT(policy.target_p(), p_before);
}

TEST(Arc, CachedListsBounded) {
  PolicyHarness harness(200, 8, AllocationPolicy::kSlowOnly);
  ArcPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(200);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    policy.OnSample(harness.Sample(rng.NextBounded(200), i));
  }
  EXPECT_LE(policy.t1_size() + policy.t2_size(), 8u);
  EXPECT_LE(policy.b1_size() + policy.b2_size(), 2 * 8u + 1u);
}

// --------------------------------------------------------------- TwoQ --

TEST(TwoQ, AdmitsToA1inFirst) {
  PolicyHarness harness(100, 8, AllocationPolicy::kSlowOnly);
  TwoQPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);
  policy.OnSample(harness.Sample(3, 0));
  EXPECT_EQ(policy.a1in_size(), 1u);
  EXPECT_EQ(policy.am_size(), 0u);
  EXPECT_EQ(harness.memory().TierOf(3), Tier::kFast);
}

TEST(TwoQ, GhostHitEntersAm) {
  PolicyHarness harness(100, 8, AllocationPolicy::kSlowOnly);
  TwoQPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);
  // Overflow the cache (capacity 8): evictions go through A1in's FIFO
  // tail into the A1out ghost queue.
  for (PageId page = 0; page < 12; ++page) {
    policy.OnSample(harness.Sample(page, page));
  }
  ASSERT_GT(policy.a1out_size(), 0u);
  // Page 0 fell out of A1in into A1out; re-access promotes it to Am.
  policy.OnSample(harness.Sample(0, 100));
  EXPECT_EQ(policy.am_size(), 1u);
  EXPECT_EQ(harness.memory().TierOf(0), Tier::kFast);
}

TEST(TwoQ, CapacityRespected) {
  PolicyHarness harness(200, 8, AllocationPolicy::kSlowOnly);
  TwoQPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(200);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    policy.OnSample(harness.Sample(rng.NextBounded(200), i));
  }
  EXPECT_LE(harness.memory().UsedPages(Tier::kFast), 8u);
  EXPECT_LE(policy.a1out_size(), 4u);  // Kout = c/2.
}

TEST(TwoQ, A1inHitLeavesOrderUnchanged) {
  PolicyHarness harness(100, 8, AllocationPolicy::kSlowOnly);
  TwoQPolicy policy;
  harness.Bind(&policy);
  harness.TouchAll(100);
  policy.OnSample(harness.Sample(1, 0));
  policy.OnSample(harness.Sample(1, 1));  // Correlated re-reference.
  EXPECT_EQ(policy.a1in_size(), 1u);
  EXPECT_EQ(policy.am_size(), 0u);
}

// ------------------------------------------------------------- Static --

TEST(Static, NamesAndNoMigration) {
  StaticPolicy all_fast(StaticKind::kAllFast);
  StaticPolicy first_touch(StaticKind::kFirstTouch);
  EXPECT_STREQ(all_fast.name(), "AllFast");
  EXPECT_STREQ(first_touch.name(), "FirstTouch");
  EXPECT_EQ(all_fast.MetadataBytes(), 0u);

  PolicyHarness harness(100, 100);
  harness.Bind(&all_fast);
  harness.TouchAll(100);
  all_fast.OnSample(harness.Sample(5, 0));
  all_fast.Tick(kMillisecond);
  EXPECT_EQ(harness.engine().stats().promoted_pages, 0u);
  EXPECT_EQ(harness.engine().stats().demoted_pages, 0u);
}

}  // namespace
}  // namespace hybridtier
