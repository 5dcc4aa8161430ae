#ifndef HYBRIDTIER_POLICIES_MEMTIS_H_
#define HYBRIDTIER_POLICIES_MEMTIS_H_

/**
 * @file
 * Memtis baseline (Lee et al., SOSP'23), reimplemented from the paper's
 * description (§2.3, §3.2-3.3 of the HybridTier paper).
 *
 * Memtis is the state-of-the-art *frequency-based* tiering system:
 *  - PEBS samples increment a dedicated 16-byte-per-page counter record
 *    reached through the page table (the multi-level walk is why its
 *    metadata updates touch several cache lines);
 *  - a global hotness histogram over the counters yields the dynamic
 *    hotness threshold that exactly fills the fast tier;
 *  - all counters are cooled (halved) every cooling period C samples —
 *    the EMA freshness mechanism whose lag the paper analyzes in Fig 3;
 *  - pages whose counter crosses the threshold are promoted in batches;
 *    background watermark demotion scans evict sub-threshold pages.
 *
 * The threshold, batching and watermark scan are the histogram-threshold
 * core it shares with HybridTier (policies/histogram_policy.h); this
 * class adds the counter table, its metadata lines and the cooling.
 */

#include <cstdint>
#include <memory>

#include "policies/histogram_policy.h"
#include "probstruct/exact_table.h"

namespace hybridtier {

/** Tunables for the Memtis baseline (batching and watermarks are in
 *  HistogramPolicyConfig). */
struct MemtisConfig : HistogramPolicyConfig {
  /** Halve all counters every this many samples (the paper's C). */
  uint64_t cooling_period_samples = 150000;
};

/** Frequency-histogram tiering baseline. */
class MemtisPolicy : public HistogramThresholdPolicy<MemtisPolicy> {
 public:
  explicit MemtisPolicy(const MemtisConfig& config = MemtisConfig{});

  void Bind(const PolicyContext& context) override;
  size_t MetadataBytes() const override;
  const char* name() const override { return "Memtis"; }

  /** Per-page access-count estimate (the demotion-ordering signal). */
  uint32_t HotnessOf(PageId unit) const override {
    return counters_->Get(unit);
  }
  void HotnessOfBatch(std::span<const PageId> units,
                      std::span<uint32_t> out) const override {
    counters_->GetBatch(units, out);
  }

  /** Cooling passes performed. */
  uint64_t coolings() const { return coolings_; }

 private:
  friend class HistogramThresholdPolicy<MemtisPolicy>;

  /** Histogram cap for counter values. */
  static constexpr uint32_t kHistMax = 127;

  /** Counts the sample, queues a hot slow-tier page, cools on period. */
  void RecordSample(const SampleRecord& sample);

  /** The scan reads the pagemap entry and the counter record. */
  void TouchScanMetadata(PageId unit);

  /** A fast page is a victim when its count is below `bar`. */
  bool IsDemotionVictim(PageId unit, uint32_t bar, TimeNs now) const {
    (void)now;
    return counters_->RawCount(unit) < bar;
  }

  /** Emits the metadata lines one sampled update touches. */
  void TouchSampleMetadata(PageId unit, uint32_t bucket);

  MemtisConfig config_;
  std::unique_ptr<ExactCounterTable> counters_;
  uint64_t samples_at_last_cooling_ = 0;
  uint64_t coolings_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_MEMTIS_H_
