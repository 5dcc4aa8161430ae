#include "replay.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "mem/perf_model.h"
#include "mem/tier.h"
#include "mem/tiered_memory.h"
#include "mem/topology.h"
#include "probstruct/blocked_cbf.h"
#include "probstruct/cbf.h"
#include "probstruct/sizing.h"
#include "sampling/budgeted_sampler.h"
#include "sampling/sampler.h"

namespace perfbench {
namespace {

using namespace hybridtier;

/** A demand fill as the engine would hand it to PerfModel. */
struct Fill {
  Tier tier;
  uint32_t endpoint;
  TimeNs op_now;
};

/**
 * Runs `body` `reps` times; returns the fastest wall ns of one run.
 * Interference from other work on the host only ever adds time, so the
 * fastest repetition is the steadiest estimate of the layer's own cost.
 */
template <class Body>
double BestNs(int reps, Body&& body) {
  uint64_t best = UINT64_MAX;
  for (int r = 0; r < reps; ++r) {
    const uint64_t start = MonotonicNs();
    body();
    best = std::min(best, MonotonicNs() - start);
  }
  return static_cast<double>(best);
}

std::unique_ptr<TieredMemory> MakeMemory(const ReplayGeometry& g) {
  uint32_t endpoints = 1;
  uint64_t interleave = 1;
  if (!g.config.topology.empty()) {
    const Topology topology = ParseTopologySpec(g.config.topology);
    endpoints = topology.endpoint_count();
    interleave = topology.interleave_units;
  }
  auto memory = std::make_unique<TieredMemory>(
      g.footprint_units, g.fast_capacity_units, g.footprint_units,
      g.config.allocation, endpoints, interleave);
  // Address-ordered first touch, as the simulation's prefault does.
  for (PageId unit = 0; unit < g.footprint_units; ++unit) {
    memory->Touch(unit, 0);
  }
  return memory;
}

std::unique_ptr<PerfModel> MakePerf(const ReplayGeometry& g) {
  const TierConfig fast = DefaultFastTier(g.fast_capacity_units);
  const TierConfig slow = DefaultSlowTier(g.footprint_units);
  if (g.config.topology.empty()) {
    return std::make_unique<PerfModel>(g.config.perf, fast, slow);
  }
  return std::make_unique<PerfModel>(g.config.perf, fast, slow,
                                     ParseTopologySpec(g.config.topology));
}

}  // namespace

ReplayResult ReplayLayers(const RecordedStreams& streams,
                          const ReplayGeometry& g, int reps) {
  ReplayResult out;
  const std::vector<uint64_t>& addrs = streams.addrs;
  const size_t n = addrs.size();
  out.accesses = n;
  if (n == 0) return out;
  const PageMode mode = g.config.mode;
  uint64_t checksum = 0;

  // Cache hierarchy: app lines only (metadata traffic is the policy's).
  std::vector<uint8_t> levels(n);
  const double cache_ns = BestNs(reps, [&] {
    CacheHierarchy hierarchy(g.config.cache);
    for (size_t i = 0; i < n; ++i) {
      levels[i] = static_cast<uint8_t>(
          hierarchy.Access(addrs[i], AccessOwner::kApp));
    }
  });
  out.cache_ns_per_access = cache_ns / static_cast<double>(n);
  for (const uint8_t level : levels) {
    out.cache_memory_fills += level == static_cast<uint8_t>(HitLevel::kMemory);
  }

  // TieredMemory::Touch over the recorded units, op by op.
  std::vector<TouchResult> touches(n);
  std::vector<TimeNs> op_now(n);
  for (size_t o = 0; o < streams.ops.size(); ++o) {
    const size_t end = o + 1 < streams.ops.size()
                           ? streams.ops[o + 1].first_access
                           : n;
    for (size_t i = streams.ops[o].first_access; i < end; ++i) {
      op_now[i] = streams.ops[o].now;
    }
  }
  std::vector<std::unique_ptr<TieredMemory>> memories;
  for (int r = 0; r < reps; ++r) memories.push_back(MakeMemory(g));
  int memory_rep = 0;
  const double touch_ns = BestNs(reps, [&] {
    TieredMemory& memory = *memories[static_cast<size_t>(memory_rep++)];
    for (size_t i = 0; i < n; ++i) {
      touches[i] = memory.Touch(TrackingUnitOfAddr(addrs[i], mode), op_now[i]);
    }
  });
  out.touch_ns_per_access = touch_ns / static_cast<double>(n);

  // PerfModel on the fills the replayed cache let through, with the
  // replayed placement; virtual time advances by each fill's latency.
  std::vector<Fill> fills;
  for (size_t i = 0; i < n; ++i) {
    if (levels[i] == static_cast<uint8_t>(HitLevel::kMemory)) {
      fills.push_back(Fill{touches[i].tier, touches[i].endpoint, op_now[i]});
    }
  }
  out.fills = fills.size();
  if (!fills.empty()) {
    const double perf_ns = BestNs(reps, [&] {
      std::unique_ptr<PerfModel> perf = MakePerf(g);
      TimeNs now = 0;
      for (const Fill& fill : fills) {
        now = std::max(now, fill.op_now);
        now += perf->MemoryAccess(fill.tier, fill.endpoint, now);
      }
      checksum += now;
    });
    out.perf_ns_per_fill = perf_ns / static_cast<double>(fills.size());
  }

  // The sampler the run used (budgeted per tenant, or the global one),
  // drained once per op like the engine does.
  const double sampler_ns = BestNs(reps, [&] {
    std::vector<SampleRecord> drained;
    drained.reserve(1024);
    std::unique_ptr<AccessSampler> global;
    std::unique_ptr<BudgetedSampler> budgeted;
    if (g.tenants > 0 && g.config.tenant_sample_budget) {
      BudgetedSamplerConfig config;
      config.base_period = g.config.sample_period;
      config.buffer_capacity = g.config.sample_buffer;
      config.adapt_window_accesses = g.config.sample_adapt_window;
      config.seed = g.config.seed;
      budgeted = std::make_unique<BudgetedSampler>(config, g.tenants);
    } else {
      global = std::make_unique<AccessSampler>(
          g.config.sample_period, g.config.sample_buffer, g.config.seed);
    }
    for (size_t o = 0; o < streams.ops.size(); ++o) {
      const RecordedOp& op = streams.ops[o];
      const size_t end = o + 1 < streams.ops.size()
                             ? streams.ops[o + 1].first_access
                             : n;
      for (size_t i = op.first_access; i < end; ++i) {
        const PageId unit = TrackingUnitOfAddr(addrs[i], mode);
        if (budgeted) {
          budgeted->OnAccess(op.tenant, unit, touches[i].tier, op.now);
        } else {
          global->OnAccess(unit, touches[i].tier, op.now);
        }
      }
      drained.clear();
      if (budgeted) {
        budgeted->Drain(&drained, drained.capacity());
      } else {
        global->Drain(&drained, drained.capacity());
      }
      checksum += drained.size();
    }
  });
  out.sampler_ns_per_access = sampler_ns / static_cast<double>(n);

  // Blocked vs standard CBF on the recorded sample pages, at the size
  // HybridTier's frequency tracker uses for this fast tier.
  const std::vector<PageId>& pages = streams.sample_pages;
  if (!pages.empty()) {
    const uint32_t counter_bits = mode == PageMode::kHuge ? 16 : 4;
    const CbfSizing sizing = FrequencyCbfSizing(
        std::max<uint64_t>(g.fast_capacity_units, 16), counter_bits);
    out.cbf_counters = sizing.num_counters;
    // At least ~2M updates per timing, so each timing is long enough.
    const size_t passes = std::max<size_t>(1, 2000000 / pages.size());
    out.cbf_updates = passes * pages.size();
    const auto run = [&](FrequencyEstimator& filter) {
      uint32_t old_count = 0;
      for (size_t p = 0; p < passes; ++p) {
        for (const PageId page : pages) {
          checksum += filter.IncrementWithOld(page, &old_count) + old_count;
        }
        filter.CoolByHalving();
      }
    };
    const double blocked_ns = BestNs(reps, [&] {
      BlockedCountingBloomFilter filter(sizing, 3);
      out.cbf_bytes = filter.memory_bytes();
      run(filter);
    });
    const double standard_ns = BestNs(reps, [&] {
      CountingBloomFilter filter(sizing, 3);
      run(filter);
    });
    out.cbf_blocked_ns_per_update =
        blocked_ns / static_cast<double>(out.cbf_updates);
    out.cbf_standard_ns_per_update =
        standard_ns / static_cast<double>(out.cbf_updates);
  }
  for (const uint8_t level : levels) checksum += level;
  out.checksum = checksum;
  return out;
}

}  // namespace perfbench
