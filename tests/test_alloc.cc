/**
 * @file
 * Steady-state allocation gates for the op-generation hot path.
 *
 * The workload generators reuse the caller's OpTrace buffer (Clear
 * keeps capacity, Reserve grows it once to the worst-case op shape), so
 * after a warmup phase has sized every internal buffer, NextOp must not
 * allocate at all. This file replaces global operator new/delete with
 * counting forwarders to assert exactly that; each gtest case runs in
 * its own process (ctest per-test discovery), so the counter never
 * observes unrelated tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/policy_factory.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/factory.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replacements pair new->malloc with delete->free consistently;
// GCC's conservative analyzer cannot see across the replacement
// boundary and warns anyway.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow variants must be replaced too: a buffer obtained from
// nothrow new (e.g. std::stable_sort's temporary buffer) is released
// through plain operator delete, so leaving the default nothrow new in
// place pairs an ASan-tracked allocation with our free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hybridtier {
namespace {

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

/** Generates `ops` operations into one reused OpTrace. */
void Generate(Workload& workload, OpTrace& op, uint64_t ops) {
  for (uint64_t i = 0; i < ops; ++i) {
    if (!workload.NextOp(0, &op)) break;
  }
}

TEST(SteadyStateAllocation, GeneratorsAreAllocationFreeAfterWarmup) {
  // (id, scale, warmup ops): warmup must cover every internal buffer's
  // high-water mark — for the graph kernels that means several full
  // trials so frontier/state vectors have peaked.
  struct Case {
    const char* id;
    double scale;
    uint64_t warmup_ops;
  };
  const Case cases[] = {
      {"zipf", 0.25, 1024},   {"cc-k", 0.25, 30000},
      {"pr-k", 0.25, 30000},  {"bfs-k", 0.25, 30000},
      {"silo", 0.05, 1024},   {"cdn", 0.05, 4096},
      {"bwaves", 0.05, 1024}, {"xgboost", 0.05, 4096},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.id);
    auto workload = MakeWorkload(c.id, c.scale, 42);
    OpTrace op;
    Generate(*workload, op, c.warmup_ops);
    const uint64_t before = AllocationCount();
    Generate(*workload, op, 2048);
    EXPECT_EQ(AllocationCount() - before, 0u)
        << c.id << " allocated during steady-state op generation";
  }
}

TEST(SteadyStateAllocation, MetricHandlesAreAllocationFree) {
  // Registration allocates; pushing values through the resolved handles
  // afterwards must not — that is the whole point of handle resolution.
  MetricRegistry registry;
  Counter* counter = registry.AddCounter("c");
  Gauge* gauge = registry.AddGauge("g");
  HistogramMetric* hist = registry.AddHistogram("h");
  const uint64_t before = AllocationCount();
  for (uint64_t i = 0; i < 100000; ++i) {
    counter->Inc();
    gauge->Set(static_cast<double>(i));
    hist->Observe(i);
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
}

TEST(SteadyStateAllocation, TraceEmissionIsAllocationFreeAfterReserve) {
  TraceEmitter emitter(1, "cell");
  const TraceEmitter::TrackId track = emitter.Track("t");
  const char* name = emitter.Intern("steady-event");
  emitter.Reserve(4096);
  emitter.set_max_events(2048);  // The drop path must not allocate either.
  const uint64_t before = AllocationCount();
  for (uint64_t i = 0; i < 4096; ++i) {
    emitter.Instant(track, name, i, {{"v", 1.0}});
    emitter.Span(track, name, i, i + 10, {{"v", 2.0}});
  }
  EXPECT_EQ(AllocationCount() - before, 0u);
  EXPECT_EQ(emitter.event_count(), 2048u);
  EXPECT_EQ(emitter.dropped_events(), 8192u - 2048u);
}

TEST(SteadyStateAllocation, DisabledTelemetryRunAllocatesDeterministically) {
  // With telemetry disabled (the default null pointers), the engine's
  // telemetry branches are dead `if (ptr)` checks. Two identical runs
  // must allocate the identical amount — a nondeterministic or growing
  // count here would mean a hidden per-access telemetry allocation.
  const auto measure = [] {
    auto workload = MakeWorkload("zipf", 0.1, 42);
    auto policy = MakePolicy("HybridTier");
    SimulationConfig config;
    config.max_accesses = 100000;
    config.seed = 42;
    const uint64_t before = AllocationCount();
    RunSimulation(config, workload.get(), policy.get());
    return AllocationCount() - before;
  };
  const uint64_t first = measure();
  const uint64_t second = measure();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hybridtier
