#include "policies/memtis.h"

#include <algorithm>

#include "common/logging.h"
#include "common/units.h"

namespace hybridtier {

namespace {
// Synthetic metadata address-space bases (beyond any app address).
constexpr uint64_t kPteBase = 1ULL << 44;      // PTE array lines.
constexpr uint64_t kPmdBase = 1ULL << 45;      // PMD level lines.
constexpr uint64_t kMetaBase = 1ULL << 46;     // 16 B/page counter records.
constexpr uint64_t kHistBase = 1ULL << 47;     // Histogram buckets.
constexpr uint64_t kPagemapBase = 1ULL << 48;  // Demotion scan pagemap.
}  // namespace

MemtisPolicy::MemtisPolicy(const MemtisConfig& config)
    : HistogramThresholdPolicy(config, "policy/Memtis"), config_(config) {
  HT_ASSERT(config.cooling_period_samples > 0, "cooling period must be > 0");
}

void MemtisPolicy::Bind(const PolicyContext& context) {
  TieringPolicy::Bind(context);
  counters_ = std::make_unique<ExactCounterTable>(context.footprint_units);
  BindHistogram(kHistMax);
}

void MemtisPolicy::TouchSampleMetadata(PageId unit, uint32_t bucket) {
  // Reaching the per-page record requires the multi-level page-table
  // walk (paper §3.3: "traversing the Linux multi-level page table,
  // potentially causing multiple cache misses"). The PTE level has one
  // 8 B entry per page (8 per line); the PMD level covers 512x more.
  sink().Touch(kPteBase + (unit / 8) * kCacheLineSize);
  sink().Touch(kPmdBase + (unit / (8 * 512)) * kCacheLineSize);
  // The 16 B metadata record itself (4 records per line).
  sink().Touch(kMetaBase + (unit / 4) * kCacheLineSize);
  // The histogram bucket update (8 B buckets, 8 per line).
  sink().Touch(kHistBase + (bucket / 8) * kCacheLineSize);
}

void MemtisPolicy::TouchScanMetadata(PageId unit) {
  sink().Touch(kPagemapBase + (unit / 8) * kCacheLineSize);
  sink().Touch(kMetaBase + (unit / 4) * kCacheLineSize);
}

void MemtisPolicy::RecordSample(const SampleRecord& sample) {
  const uint32_t old_count = std::min<uint32_t>(
      static_cast<uint32_t>(counters_->RawCount(sample.page)), kHistMax);
  counters_->Increment(sample.page);
  const uint32_t new_count = std::min(old_count + 1, kHistMax);
  if (new_count != old_count) {
    histogram_->Remove(old_count);
    histogram_->Add(new_count);
  }
  TouchSampleMetadata(sample.page, new_count);

  // Promotion candidate?
  if (sample.tier == Tier::kSlow && new_count >= threshold()) {
    QueuePromotion(sample.page);
  }

  // Periodic cooling: the EMA freshness mechanism.
  if (samples_seen() - samples_at_last_cooling_ >=
      config_.cooling_period_samples) {
    samples_at_last_cooling_ = samples_seen();
    counters_->CoolByHalving();
    CoolHistogram(sample.time_ns, ++coolings_);
    // Cooling rewrites every metadata record: a full sweep of the
    // counter array plus the histogram.
    const uint64_t meta_lines = counters_->memory_bytes() / kCacheLineSize;
    for (uint64_t line = 0; line < meta_lines; ++line) {
      sink().Touch(kMetaBase + line * kCacheLineSize);
    }
    UpdateThreshold();
  }
}

size_t MemtisPolicy::MetadataBytes() const {
  // 16 B per page over *all* memory (the paper's 0.39% figure) plus the
  // histogram.
  return counters_->memory_bytes() + HistogramBytes();
}

}  // namespace hybridtier
