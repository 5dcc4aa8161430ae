#ifndef HYBRIDTIER_POLICIES_HISTOGRAM_POLICY_H_
#define HYBRIDTIER_POLICIES_HISTOGRAM_POLICY_H_

/**
 * @file
 * The histogram-threshold core shared by Memtis and HybridTier (paper
 * §2.3.1, §3.1). Both keep a histogram of their per-unit counter values
 * and derive from it the hotness threshold that just fills the fast
 * tier; both queue sampled slow-tier units at or above it and promote
 * them in batches; both demote through a budgeted scan of the fast tier
 * under a free-page watermark. They differ only in what feeds the
 * histogram (Memtis: an exact 16 B-per-page counter; HybridTier: the
 * frequency CBF) and in which scanned unit is a demotion victim
 * (Memtis: a count below the bar; HybridTier: the Table 1 matrix with
 * second chance).
 *
 * The core is a CRTP base: it calls the policy's hooks statically, so
 * neither the per-sample nor the per-scanned-unit path adds a virtual
 * call. A policy `P` derives from `HistogramThresholdPolicy<P>`, befriends
 * it, and provides:
 *  - `void RecordSample(const SampleRecord&)`: its estimator and
 *    histogram update, calling `QueuePromotion` for candidates;
 *  - `void TouchScanMetadata(PageId)`: the metadata lines the demotion
 *    scan reads for every scanned unit;
 *  - `bool IsDemotionVictim(PageId, uint32_t bar, TimeNs)`: its
 *    per-unit demotion test, asked only while the batch still has room.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "policies/policy.h"
#include "policies/scan_util.h"

namespace hybridtier {

/** Tunables every histogram-threshold policy has. */
struct HistogramPolicyConfig {
  /** Promotion batch: flush after this many samples (paper: 100k). */
  uint64_t promo_batch_samples = 2048;
  /** Demote when fast free fraction falls below this (PROMO_WMARK). */
  double demote_trigger_frac = 0.02;
  /** Demote until fast free fraction reaches this (DEMOTE_WMARK). */
  double demote_target_frac = 0.04;
  /** VA-scan units examined per maintenance tick. */
  uint64_t scan_units_per_tick = 8192;
};

/** Histogram threshold, batched promotion and watermark demotion. */
template <typename Derived>
class HistogramThresholdPolicy : public TieringPolicy {
 public:
  /** Counts the sample, lets the policy record it, and flushes the
   *  promotion batch once it is due. */
  void OnSample(const SampleRecord& sample) override {
    ++samples_seen_;
    static_cast<Derived&>(*this).RecordSample(sample);
    if (samples_seen_ - samples_at_last_flush_ >=
        core_config_.promo_batch_samples) {
      FlushPromotions(sample.time_ns);
    }
  }

  /** Threshold update, then watermark demotion. */
  void Tick(TimeNs now) override {
    UpdateThreshold();
    const uint64_t needed =
        WatermarkDeficit(memory(), core_config_.demote_trigger_frac,
                         core_config_.demote_target_frac);
    if (needed > 0) DemoteColdPages(needed, now, MigrationReason::kWatermark);
  }

  /** Sample-driven: never observes the demand stream (OnAccess stays
   *  the inherited no-op), so per-access dispatch is skipped. */
  AccessInterest access_interest() const override {
    return AccessInterest::kNone;
  }

  /** Current histogram-derived hotness threshold. */
  uint32_t threshold() const { return threshold_; }

  /** Demotion VA-scan cursor, in tracking units (observability/tests). */
  PageId scan_cursor() const { return scan_cursor_; }

 protected:
  /** `track_name` names the trace track cooling events land on. */
  HistogramThresholdPolicy(const HistogramPolicyConfig& config,
                           const char* track_name)
      : core_config_(config), track_name_(track_name) {
    HT_ASSERT(config.demote_target_frac >= config.demote_trigger_frac,
              "demotion target watermark below trigger watermark");
  }

  /** Completes Bind: a fresh histogram over 0..max_value, threshold 1,
   *  and the cooling track. Call after TieringPolicy::Bind. */
  void BindHistogram(uint32_t max_value) {
    histogram_ = std::make_unique<Histogram>(max_value);
    threshold_ = 1;
    if (context().trace != nullptr) {
      cooling_track_ = context().trace->Track(track_name_);
    }
  }

  /** The threshold fills the fast tier with the hottest units; never
   *  below 1, so untouched units are not "hot". */
  void UpdateThreshold() {
    threshold_ = std::max<uint32_t>(
        1, histogram_->ThresholdForBudget(context().fast_capacity_units));
  }

  /** Adds a sampled unit to the pending promotion batch. */
  void QueuePromotion(PageId unit) { pending_promotions_.push_back(unit); }

  /** A cooling pass: halves the histogram, counts the pass in the audit
   *  and marks it on the trace with the policy's cooling count. */
  void CoolHistogram(TimeNs now, uint64_t coolings) {
    histogram_->CoolByHalving();
    if (DecisionAudit* audit = migration().audit()) audit->RecordCooling();
    if (context().trace != nullptr) {
      context().trace->Instant(
          cooling_track_, "cooling", now,
          {{"coolings", static_cast<double>(coolings)}});
    }
  }

  /** Samples consumed so far. */
  uint64_t samples_seen() const { return samples_seen_; }

  /** The histogram's share of MetadataBytes (8 B per bucket). */
  size_t HistogramBytes() const {
    return histogram_->buckets().size() * sizeof(uint64_t);
  }

  std::unique_ptr<Histogram> histogram_;

 private:
  /**
   * Demotion hysteresis: the strict scan pass takes only units below
   * threshold / this, so warm residents do not swap with equally-warm
   * candidates across the admission threshold after every cooling.
   */
  static constexpr uint32_t kDemoteHysteresisDivisor = 2;

  void FlushPromotions(TimeNs now) {
    samples_at_last_flush_ = samples_seen_;
    UpdateThreshold();
    if (pending_promotions_.empty()) return;
    // A hot page is sampled many times per batch; migrate it once.
    std::sort(pending_promotions_.begin(), pending_promotions_.end());
    pending_promotions_.erase(
        std::unique(pending_promotions_.begin(), pending_promotions_.end()),
        pending_promotions_.end());
    // Demand demotion: make room for the batch first, as the runtime's
    // demotion path does when the fast tier is under allocation pressure.
    const uint64_t free_pages = memory().FreePages(Tier::kFast);
    if (free_pages < pending_promotions_.size()) {
      DemoteColdPages(pending_promotions_.size() - free_pages, now,
                      MigrationReason::kCapacityDemand);
    }
    // One batched move_pages syscall for the whole batch (paper §4.3).
    migration().Promote(pending_promotions_, now,
                        MigrationReason::kHotnessRank);
    pending_promotions_.clear();
  }

  /**
   * Scans the fast tier until `needed` victims were found or the scan
   * budget is spent, and demotes them in one batch stamped `reason`.
   * The strict pass asks the policy's test against the hysteresis bar;
   * if that starves the caller, a relaxed pass asks it against the
   * threshold itself.
   */
  void DemoteColdPages(uint64_t needed, TimeNs now, MigrationReason reason) {
    Derived& self = static_cast<Derived&>(*this);
    std::vector<PageId> victims;
    const uint32_t demote_below =
        std::max<uint32_t>(1, threshold_ / kDemoteHysteresisDivisor);
    for (const uint32_t bar : {demote_below, threshold_}) {
      BudgetedResidentScan(
          memory(), &scan_cursor_, context().footprint_units,
          core_config_.scan_units_per_tick, Tier::kFast,
          [&] { return victims.size() >= needed; },
          [&](PageId unit) {
            self.TouchScanMetadata(unit);
            if (victims.size() < needed &&
                self.IsDemotionVictim(unit, bar, now)) {
              victims.push_back(unit);
            }
          });
      if (victims.size() >= needed) break;
    }
    // The relaxed pass can rescan a wrapped cursor range; demote once.
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    if (!victims.empty()) migration().Demote(victims, now, reason);
  }

  HistogramPolicyConfig core_config_;
  const char* track_name_;
  std::vector<PageId> pending_promotions_;
  uint64_t samples_seen_ = 0;
  uint64_t samples_at_last_flush_ = 0;
  uint32_t threshold_ = 1;
  PageId scan_cursor_ = 0;
  TraceEmitter::TrackId cooling_track_ = 0;  //!< Cooling-event track.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_HISTOGRAM_POLICY_H_
