#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

/**
 * @file
 * Outside-in tracing for the benchmark's traced run.
 *
 * The simulator is observed only through its public interfaces: a
 * `Workload` wrapper times `NextOp`, a forwarding `TieringPolicy` times
 * the policy hooks, and a forwarding `MigrationEngine` (handed to the
 * policy in `Bind`) times `Promote`/`Demote`. Every call is counted;
 * clock reads are taken on one op in `sample_every` for the per-access
 * hooks (generation and `OnAccess`) and on every call for the rarer ones
 * (`OnSample`, `Tick`, migrations). Migration spans are children of the
 * policy-hook span that issued them, so hook self time excludes them.
 *
 * Spans stay in memory (up to a cap) and are written as a Chrome trace
 * when the run ends. The wrappers also record the boundary streams the
 * standalone layer replays need (app addresses, sample pages).
 *
 * The untimed end-to-end run uses none of this: it hands `Simulation`
 * the factory objects directly.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/watchdog.h"
#include "mem/migration.h"
#include "multitenant/tenant_stats.h"
#include "policies/policy.h"
#include "workloads/tenant_tag.h"
#include "workloads/workload.h"

namespace perfbench {

using hybridtier::PageId;
using hybridtier::TimeNs;

/** CLOCK_MONOTONIC in ns (the same clock Python's time.monotonic_ns reads). */
uint64_t MonotonicNs();

/**
 * Median cost of one span with nothing inside it (two back-to-back clock
 * reads). The caller subtracts it per timed call so hook times are not
 * inflated by the clock itself.
 */
uint64_t CalibrateClockNs();

/** The layer boundaries a span can sit on. */
enum class Hook : uint8_t {
  kGen = 0,   //!< Workload::NextOp.
  kAccess,    //!< TieringPolicy::OnAccess / OnAccessBatch.
  kSample,    //!< TieringPolicy::OnSample.
  kTick,      //!< TieringPolicy::Tick.
  kHealth,    //!< TieringPolicy::OnEndpointHealth / OnExternalMigration.
  kMigrate,   //!< MigrationEngine::Promote / Demote.
  kCount,
};

const char* HookName(Hook hook);

/** Per-hook aggregate over the whole run. */
struct HookStats {
  uint64_t calls = 0;        //!< Every call, timed or not.
  uint64_t timed_calls = 0;  //!< Calls that read the clock.
  uint64_t timed_ns = 0;     //!< Inclusive ns over timed calls.
  uint64_t child_ns = 0;     //!< Migration ns nested in timed calls.
  uint64_t items = 0;        //!< Pages requested (migrate only).
  uint64_t failed = 0;       //!< Pages the engine skipped (migrate only).
};

/** One recorded span. `parent` indexes `spans()`; -1 = root. */
struct Span {
  Hook hook = Hook::kGen;
  int32_t parent = -1;
  uint64_t op = 0;  //!< Request identifier: the op that was in flight.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/** One recorded op of the app-address stream. */
struct RecordedOp {
  uint64_t first_access = 0;  //!< Index into RecordedStreams::addrs.
  TimeNs now = 0;             //!< Virtual time the op was issued.
  uint32_t tenant = 0;
};

/** Boundary streams kept for the standalone layer replays. */
struct RecordedStreams {
  std::vector<uint64_t> addrs;
  std::vector<RecordedOp> ops;
  std::vector<PageId> sample_pages;
};

/** Span store, hook aggregates and the recorded streams of one run. */
class Tracer {
 public:
  /**
   * @param sample_every  clock reads on one op in this many.
   * @param span_cap      spans kept in memory (aggregates never stop).
   * @param record_skip   app accesses to let pass before recording.
   * @param record_cap    app accesses recorded for replay.
   * @param sample_cap    sample pages recorded for replay.
   */
  Tracer(uint32_t sample_every, size_t span_cap, uint64_t record_skip,
         size_t record_cap, size_t sample_cap);

  /** Starts the next op; returns whether its per-access hooks are timed. */
  bool BeginOp() {
    timed_op_ = ops_ % sample_every_ == 0;
    ++ops_;
    return timed_op_;
  }
  bool timed_op() const { return timed_op_; }

  /**
   * Opens a span on `hook`; returns its handle for End. Policy hooks
   * never nest (the engine calls them one after another), so at most one
   * policy span is open and migration spans nest under it.
   */
  struct Open {
    uint64_t start_ns = 0;
    int32_t index = -1;
    bool timed = false;
  };
  Open Begin(Hook hook, bool timed);
  void End(Hook hook, const Open& open, uint64_t items = 0,
           uint64_t failed = 0);

  const std::array<HookStats, static_cast<size_t>(Hook::kCount)>& stats()
      const {
    return stats_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }

  // Stream recording (called by the wrappers, outside timed spans).
  void RecordOp(const hybridtier::OpTrace& op, TimeNs now, uint32_t tenant);
  void RecordSample(PageId page) {
    if (streams_.sample_pages.size() < sample_cap_) {
      streams_.sample_pages.push_back(page);
    }
  }
  const RecordedStreams& streams() const { return streams_; }

  /**
   * Virtual-time op latency observed from outside: the closed loop
   * issues op k+1 exactly when op k completes, so op k took
   * now(k+1) - now(k) - think(k). Idle gaps (empty ops) are not ops.
   */
  void ObserveIssue(TimeNs now, const hybridtier::OpTrace& op);
  /** Closes the last op at the run's final virtual time. */
  void FinishRun(TimeNs end_ns);
  uint64_t observed_op_latency_ns() const { return observed_latency_ns_; }
  uint64_t observed_ops() const { return observed_ops_; }

  /** Writes the kept spans as Chrome trace-event JSON. */
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const uint32_t sample_every_;
  const size_t span_cap_;
  const uint64_t record_skip_;
  const size_t record_cap_;
  const size_t sample_cap_;

  uint64_t ops_ = 0;
  bool timed_op_ = false;
  std::array<HookStats, static_cast<size_t>(Hook::kCount)> stats_{};
  std::vector<Span> spans_;
  uint64_t dropped_spans_ = 0;
  // The open timed policy-hook span, if any: migrations nest under it.
  bool parent_open_ = false;
  int32_t open_parent_ = -1;  //!< Its index in spans_, -1 if not kept.
  uint64_t open_child_ns_ = 0;

  RecordedStreams streams_;
  uint64_t accesses_seen_ = 0;

  bool have_prev_ = false;
  TimeNs prev_now_ = 0;
  TimeNs prev_think_ = 0;
  uint64_t observed_latency_ns_ = 0;
  uint64_t observed_ops_ = 0;
};

/** Times NextOp and records the app stream; single-tenant form. */
class TracedWorkload : public hybridtier::Workload {
 public:
  TracedWorkload(hybridtier::Workload* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  bool NextOp(TimeNs now, hybridtier::OpTrace* op) override;
  uint64_t footprint_pages() const override {
    return inner_->footprint_pages();
  }
  const char* name() const override { return inner_->name(); }
  bool time_invariant() const override { return inner_->time_invariant(); }

 protected:
  virtual uint32_t CurrentTenant() const { return 0; }

  hybridtier::Workload* inner_;
  Tracer* tracer_;
};

/**
 * Multi-tenant form: `Simulation` finds per-op attribution through a
 * `dynamic_cast` to `TenantTagSource`, so the wrapper re-exposes it.
 */
class TracedTenantWorkload : public TracedWorkload,
                             public hybridtier::TenantTagSource {
 public:
  TracedTenantWorkload(hybridtier::Workload* inner,
                       hybridtier::TenantTagSource* tags, Tracer* tracer)
      : TracedWorkload(inner, tracer), tags_(tags) {}

  uint32_t tenant_count() const override { return tags_->tenant_count(); }
  uint32_t last_tenant() const override { return tags_->last_tenant(); }
  const std::string& tenant_name(uint32_t tenant) const override {
    return tags_->tenant_name(tenant);
  }
  hybridtier::PageRange tenant_units(
      uint32_t tenant, hybridtier::PageMode mode) const override {
    return tags_->tenant_units(tenant, mode);
  }
  bool tenant_active_at(uint32_t tenant, TimeNs now) const override {
    return tags_->tenant_active_at(tenant, now);
  }
  double tenant_weight(uint32_t tenant) const override {
    return tags_->tenant_weight(tenant);
  }
  std::vector<std::pair<TimeNs, TimeNs>> tenant_windows(
      uint32_t tenant) const override {
    return tags_->tenant_windows(tenant);
  }

 protected:
  uint32_t CurrentTenant() const override { return tags_->last_tenant(); }

 private:
  hybridtier::TenantTagSource* tags_;
};

/** Wraps `inner` in the tenant-aware form when it is a tag source. */
std::unique_ptr<TracedWorkload> WrapWorkload(hybridtier::Workload* inner,
                                             Tracer* tracer);

/** Times Promote/Demote and forwards them to the engine it wraps. */
class TimedMigrationEngine : public hybridtier::MigrationEngine {
 public:
  TimedMigrationEngine(hybridtier::MigrationEngine* inner, Tracer* tracer)
      : MigrationEngine(inner->memory(), inner->perf_model(), inner->mode()),
        inner_(inner),
        tracer_(tracer) {}

  TimeNs Promote(std::span<const PageId> pages, TimeNs now,
                 hybridtier::MigrationReason reason) override;
  TimeNs Demote(std::span<const PageId> pages, TimeNs now,
                hybridtier::MigrationReason reason) override;
  hybridtier::DecisionAudit* audit() const override {
    return inner_->audit();
  }

 private:
  uint64_t Failed() const {
    return inner_->stats().failed_promotions +
           inner_->stats().failed_demotions;
  }

  hybridtier::MigrationEngine* inner_;
  Tracer* tracer_;
};

/**
 * Forwards every hook to `inner`, timing each. `Simulation` resolves
 * quota statistics and watchdog sources with `dynamic_cast`, so both
 * interfaces are re-exposed and forwarded when `inner` has them.
 */
class TracedPolicy : public hybridtier::TieringPolicy,
                     public hybridtier::TenantQuotaStatsSource,
                     public hybridtier::InvariantSource {
 public:
  TracedPolicy(hybridtier::TieringPolicy* inner, Tracer* tracer);

  void Bind(const hybridtier::PolicyContext& context) override;
  hybridtier::AccessInterest access_interest() const override {
    return inner_->access_interest();
  }
  void OnAccess(PageId unit, const hybridtier::TouchResult& touch,
                TimeNs now) override;
  void OnSample(const hybridtier::SampleRecord& sample) override;
  void Tick(TimeNs now) override;
  void OnEndpointHealth(uint32_t endpoint, hybridtier::EndpointHealth state,
                        TimeNs now) override;
  void OnExternalMigration(TimeNs now) override;
  uint32_t HotnessOf(PageId unit) const override {
    return inner_->HotnessOf(unit);
  }
  size_t MetadataBytes() const override { return inner_->MetadataBytes(); }
  const char* name() const override { return inner_->name(); }

  bool GetTenantQuotaStats(uint32_t tenant,
                           hybridtier::TenantQuotaStats* out) const override {
    return quota_ != nullptr && quota_->GetTenantQuotaStats(tenant, out);
  }
  bool CheckInvariants(std::string* error) const override {
    return invariants_ == nullptr || invariants_->CheckInvariants(error);
  }

 protected:
  void OnAccessBatchImpl(
      std::span<const hybridtier::TouchEvent> events) override;

 private:
  hybridtier::TieringPolicy* inner_;
  Tracer* tracer_;
  const hybridtier::TenantQuotaStatsSource* quota_;
  const hybridtier::InvariantSource* invariants_;
  std::unique_ptr<TimedMigrationEngine> engine_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
