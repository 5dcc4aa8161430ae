#ifndef HYBRIDTIER_CORE_HYBRIDTIER_POLICY_H_
#define HYBRIDTIER_CORE_HYBRIDTIER_POLICY_H_

/**
 * @file
 * The HybridTier tiering policy — the paper's core contribution.
 *
 * Two probabilistic trackers estimate each page's long-term *frequency*
 * (high cooling period) and short-term *momentum* (low cooling period,
 * 128x smaller filter). The migration matrix (paper Table 1):
 *
 *                       high momentum     low momentum
 *   high frequency      promote/none      promote/none
 *   low  frequency      promote/none      none/demote
 *
 * Promotion: a sampled slow-tier page is promoted when its frequency is
 * at or above the histogram-derived threshold (auto-adjusted to fill
 * the fast tier, as in Memtis) OR its momentum is at or above the fixed
 * momentum threshold (default 3, §6.4.3). Promotions are batched into a
 * single syscall (paper: 100k samples per batch).
 *
 * Demotion: when fast-tier free space falls under the watermark, a
 * linear VA scan classifies fast-tier pages: low/low pages are demoted
 * immediately; high-frequency/low-momentum pages are *marked* with
 * their current frequency and demoted at a later revisit only if the
 * frequency did not advance (the second-chance policy, §4.3).
 *
 * The threshold, the promotion batch and the watermark scan are the
 * histogram-threshold core it shares with Memtis
 * (policies/histogram_policy.h); this class adds the two trackers and
 * the Table-1 demotion test.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "core/trackers.h"
#include "policies/histogram_policy.h"

namespace hybridtier {

/** Tunables for HybridTier (paper defaults, time-scaled; batching and
 *  watermarks are in HistogramPolicyConfig). */
struct HybridTierConfig : HistogramPolicyConfig {
  /** Estimator implementation (ablations: standard CBF, exact table). */
  EstimatorKind estimator = EstimatorKind::kBlockedCbf;
  /** Track momentum at all (false = "HybridTier-onlyFreq", Fig 15). */
  bool use_momentum = true;
  /** Momentum hotness threshold (paper default 3, Fig 17 sweep). */
  uint32_t momentum_threshold = 3;
  /** Frequency tracker cooling period, in samples (high C). */
  uint64_t freq_cooling_samples = 600000;
  /** Momentum tracker cooling period, in samples (low C). */
  uint64_t momentum_cooling_samples = 8000;
  /** Second-chance revisit delay (paper: 1 minute, time-scaled). */
  TimeNs second_chance_revisit_ns = 300 * kMillisecond;
};

/** The HybridTier policy. */
class HybridTierPolicy : public HistogramThresholdPolicy<HybridTierPolicy> {
 public:
  explicit HybridTierPolicy(
      const HybridTierConfig& config = HybridTierConfig{});

  void Bind(const PolicyContext& context) override;
  size_t MetadataBytes() const override;
  const char* name() const override;

  /** Long-term frequency estimate (the demotion-ordering signal). */
  uint32_t HotnessOf(PageId unit) const override {
    return freq_->Get(unit);
  }
  void HotnessOfBatch(std::span<const PageId> units,
                      std::span<uint32_t> out) const override {
    freq_->GetBatch(units, out);
  }

  /** Frequency tracker (for tests/accuracy studies). */
  const AccessTracker& frequency_tracker() const { return *freq_; }

  /** Momentum tracker; null when momentum is disabled. */
  const AccessTracker* momentum_tracker() const { return momentum_.get(); }

  /** Pages currently marked for a second chance. */
  size_t second_chance_pending() const { return second_chance_pending_; }

  /** Promotions triggered by momentum (not frequency). */
  uint64_t momentum_promotions() const { return momentum_promotions_; }

  /** Pages demoted after failing their second chance. */
  uint64_t second_chance_demotions() const {
    return second_chance_demotions_;
  }

 private:
  friend class HistogramThresholdPolicy<HybridTierPolicy>;

  /** No-mark sentinel: counter estimates never reach UINT32_MAX. */
  static constexpr uint32_t kNoMark = UINT32_MAX;

  struct SecondChanceMark {
    uint32_t freq_at_mark = kNoMark;  //!< kNoMark = unit not marked.
    TimeNs mark_time_ns = 0;
  };

  /** Clears `unit`'s second-chance mark if present. */
  void ClearMark(PageId unit) {
    SecondChanceMark& mark = second_chance_[unit];
    if (mark.freq_at_mark != kNoMark) {
      mark.freq_at_mark = kNoMark;
      --second_chance_pending_;
    }
  }

  /** Updates both trackers and the histogram; queues a slow-tier unit
   *  that is frequency- or momentum-hot. */
  void RecordSample(const SampleRecord& sample);

  /** The scan reads the unit's pagemap entry. */
  void TouchScanMetadata(PageId unit);

  /** The Table-1 demotion rules, with `bar` the low-frequency bar. */
  bool IsDemotionVictim(PageId unit, uint32_t bar, TimeNs now);

  HybridTierConfig config_;
  std::unique_ptr<AccessTracker> freq_;
  std::unique_ptr<AccessTracker> momentum_;
  /**
   * Second-chance marks, dense by PageId (sized at Bind, when the
   * footprint is known). The legacy unordered_map cost a hash probe per
   * sample and per demotion-scan unit on the hottest policy paths; the
   * flat array is one indexed load. `second_chance_pending_` tracks the
   * marked-unit count the map's size() used to provide.
   */
  std::vector<SecondChanceMark> second_chance_;
  size_t second_chance_pending_ = 0;
  uint64_t momentum_promotions_ = 0;
  uint64_t second_chance_demotions_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_CORE_HYBRIDTIER_POLICY_H_
