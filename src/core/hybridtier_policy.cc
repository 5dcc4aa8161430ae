#include "core/hybridtier_policy.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"

namespace hybridtier {

namespace {
constexpr uint64_t kFreqBase = 1ULL << 44;     // Frequency CBF lines.
constexpr uint64_t kMomBase = 1ULL << 45;      // Momentum CBF lines.
constexpr uint64_t kHistBase = 1ULL << 46;     // Histogram lines.
constexpr uint64_t kPagemapBase = 1ULL << 47;  // Demotion scan pagemap.
constexpr uint64_t kTrackerSeed = 3;           // Tracker hash seed.
}  // namespace

HybridTierPolicy::HybridTierPolicy(const HybridTierConfig& config)
    : HistogramThresholdPolicy(config, "policy/HybridTier"),
      config_(config) {
  HT_ASSERT(config.momentum_threshold >= 1,
            "momentum threshold must be >= 1");
}

const char* HybridTierPolicy::name() const {
  if (!config_.use_momentum) return "HybridTier-onlyFreq";
  switch (config_.estimator) {
    case EstimatorKind::kBlockedCbf:
      return "HybridTier";
    case EstimatorKind::kStandardCbf:
      return "HybridTier-CBF";
    case EstimatorKind::kExact:
      return "HybridTier-exact";
  }
  return "HybridTier";
}

void HybridTierPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  const uint64_t fast_units = std::max<uint64_t>(
      context.fast_capacity_units, 16);
  // Huge pages accumulate 512x the accesses, so counters widen to 16 bit
  // (paper §4.4); regular pages use 4-bit counters capped at 15 (§3.2).
  // Both filters use the paper's k = 4 hashes and p = 0.001.
  const uint32_t counter_bits =
      context.mode == PageMode::kHuge ? 16 : 4;

  TrackerConfig freq_config;
  freq_config.kind = config_.estimator;
  freq_config.sizing = FrequencyCbfSizing(fast_units, counter_bits);
  freq_config.exact_units = context.footprint_units;
  freq_config.cooling_period_samples = config_.freq_cooling_samples;
  freq_config.metadata_base = kFreqBase;
  freq_config.seed = kTrackerSeed;
  freq_ = std::make_unique<AccessTracker>(freq_config);

  if (config_.use_momentum) {
    TrackerConfig mom_config;
    mom_config.kind = config_.estimator;
    mom_config.sizing = MomentumCbfSizing(fast_units, counter_bits);
    mom_config.exact_units = context.footprint_units;
    mom_config.cooling_period_samples = config_.momentum_cooling_samples;
    mom_config.metadata_base = kMomBase;
    mom_config.seed = kTrackerSeed ^ 0x5eedULL;
    momentum_ = std::make_unique<AccessTracker>(mom_config);
  }

  // The histogram needs one bucket per distinct counter value that can
  // matter for thresholding; cap at 255 so huge-page mode (16-bit
  // counters) does not inflate it.
  BindHistogram(std::min<uint32_t>(freq_->max_count(), 255));

  // Dense second-chance state: the footprint is known here, so the
  // marks live in a flat PageId-indexed array instead of a hash map.
  second_chance_.assign(context.footprint_units, SecondChanceMark{});
  second_chance_pending_ = 0;
}

void HybridTierPolicy::RecordSample(const SampleRecord& sample) {
  const PageId unit = sample.page;

  // Frequency update (+ histogram bookkeeping on actual increments).
  // The pre-update estimate comes out of the same filter walk as the
  // increment — one CBF lookup per sample, not two.
  uint32_t old_freq = 0;
  const uint32_t new_freq = freq_->RecordAccess(unit, sink(), &old_freq);
  if (freq_->cooled_on_last_record()) {
    CoolHistogram(sample.time_ns, freq_->coolings());
    // The halved histogram carries this unit at old_freq/2 — the
    // increment that triggered the cooling never reached it. Re-seat the
    // unit at its post-cooling estimate so the increment is not lost.
    // (A unit that was tracked at all stays tracked through halving,
    // even in bucket 0, so the Remove guard is on old_freq itself.)
    if (new_freq > old_freq / 2) {
      if (old_freq > 0) histogram_->Remove(old_freq / 2);
      histogram_->Add(new_freq);
      sink().Touch(kHistBase + (new_freq / 8) * kCacheLineSize);
    }
  } else if (new_freq > old_freq) {
    if (old_freq > 0) histogram_->Remove(old_freq);
    histogram_->Add(new_freq);
    sink().Touch(kHistBase + (new_freq / 8) * kCacheLineSize);
  }

  // Momentum update.
  uint32_t new_momentum = 0;
  if (momentum_) new_momentum = momentum_->RecordAccess(unit, sink());

  // Promotion rule: high frequency OR high momentum (paper Table 1).
  if (sample.tier == Tier::kSlow) {
    const bool freq_hot = new_freq >= threshold();
    const bool momentum_hot =
        momentum_ && new_momentum >= config_.momentum_threshold;
    if (freq_hot || momentum_hot) {
      QueuePromotion(unit);
      if (!freq_hot && momentum_hot) ++momentum_promotions_;
    }
  }

  // A promoted-and-rehot page should not be demoted by a stale mark.
  // The sample that triggers cooling also counts: the unit was
  // incremented before the halving, even though the returned estimate
  // is now below old_freq.
  if (second_chance_pending_ != 0 &&
      (new_freq > old_freq || freq_->cooled_on_last_record())) {
    ClearMark(unit);
  }
}

void HybridTierPolicy::TouchScanMetadata(PageId unit) {
  sink().Touch(kPagemapBase + (unit / 8) * kCacheLineSize);
}

bool HybridTierPolicy::IsDemotionVictim(PageId unit, uint32_t bar,
                                        TimeNs now) {
  const uint32_t freq = freq_->GetTracked(unit, sink());
  const uint32_t momentum =
      momentum_ ? momentum_->GetTracked(unit, sink()) : 0;
  const bool freq_hot = freq >= threshold();
  const bool momentum_hot =
      momentum_ && momentum >= config_.momentum_threshold;

  if (momentum_hot) {
    // High momentum: recently promoted or actively heating — keep.
    ClearMark(unit);
    return false;
  }
  if (!freq_hot) {
    // Low/low: demote (Table 1 bottom-right) once below the bar — the
    // hysteresis bar in the strict pass, the threshold in the relaxed.
    if (freq >= bar) return false;
    ClearMark(unit);
    return true;
  }
  // High frequency, low momentum: second chance (Table 1 top-right).
  // Demote at revisit only if the page was not accessed since the
  // mark: with saturating counters "frequency did not grow" cannot
  // distinguish idle from still-saturated-hot, so the momentum
  // tracker provides the accessed-since-mark signal.
  SecondChanceMark& mark = second_chance_[unit];
  if (mark.freq_at_mark == kNoMark) {
    mark.freq_at_mark = freq;
    mark.mark_time_ns = now;
    ++second_chance_pending_;
    return false;
  }
  if (now - mark.mark_time_ns < config_.second_chance_revisit_ns) {
    return false;
  }
  const bool accessed_since_mark =
      momentum > 0 || freq > mark.freq_at_mark;
  if (!accessed_since_mark && freq <= mark.freq_at_mark) {
    mark.freq_at_mark = kNoMark;
    --second_chance_pending_;
    ++second_chance_demotions_;
    return true;
  }
  // Refresh the mark so the next revisit measures a fresh window.
  mark.freq_at_mark = freq;
  mark.mark_time_ns = now;
  return false;
}

size_t HybridTierPolicy::MetadataBytes() const {
  size_t bytes = freq_->memory_bytes();
  if (momentum_) bytes += momentum_->memory_bytes();
  bytes += HistogramBytes();
  // The design's second-chance list holds one record per *marked* page
  // (the dense array is a simulator-side layout choice, not metadata
  // the real system would allocate), so the Table-4 metric charges the
  // marked count at the legacy per-entry size.
  bytes += second_chance_pending_ * 24;
  return bytes;
}

}  // namespace hybridtier
