#ifndef HYBRIDTIER_POLICIES_HINT_FAULT_H_
#define HYBRIDTIER_POLICIES_HINT_FAULT_H_

/**
 * @file
 * Hint-fault tiering baselines: AutoNUMA (Linux NUMA balancing with
 * MGLRU demotion) and TPP (Maruf et al., ASPLOS'23), reimplemented from
 * their papers and the HybridTier paper's characterization (§2.3.2,
 * §5.2, §8).
 *
 * Both are *recency-based* and share one mechanism:
 *  - a periodic scan unmaps ("protects") chunks of the application
 *    address space, so the next access to a page takes a hint fault;
 *  - a fault on a slow-tier page may promote it at once, rate limited
 *    per maintenance tick;
 *  - hardware accessed bits age pages in MGLRU-style generations, and a
 *    free-watermark scan demotes fast pages that went unaccessed.
 *
 * They differ only in which fault promotes:
 *  - **AutoNUMA** (`kFaultLatency`) promotes when the time from unmap
 *    to fault is within the window (1 second upstream), regardless of
 *    access history — which is why it mispromotes cold pages (paper
 *    Fig 4);
 *  - **TPP** (`kSecondFault`) adds an active-list filter: it promotes
 *    only on the second fault within the window, which cuts some
 *    one-touch mispromotions but still ignores long-term frequency. It
 *    keeps a per-unit last-fault time for that test and larger
 *    fast-tier headroom for allocation bursts.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "policies/aging.h"
#include "policies/policy.h"

namespace hybridtier {

/** Which hint fault promotes a slow-tier page. */
enum class PromotionTest : uint8_t {
  kFaultLatency,  //!< AutoNUMA: unmap-to-fault latency within the window.
  kSecondFault,   //!< TPP: second fault within the window of the first.
};

/** Tunables for a hint-fault baseline; defaults are the AutoNUMA preset. */
struct HintFaultConfig {
  PromotionTest promotion_test = PromotionTest::kFaultLatency;
  /** Window of the promotion test. */
  TimeNs window_ns = 20 * kMillisecond;
  /** Address-space units protected per maintenance tick. */
  uint64_t scan_chunk_units = 1024;
  /** Accessed-bit harvest chunk per tick (MGLRU aging). */
  uint64_t age_chunk_units = 2048;
  /** Demote when fast free fraction falls below this. */
  double demote_trigger_frac = 0.02;
  /** Demote until fast free fraction reaches this. */
  double demote_target_frac = 0.04;
  /** Minimum generations unaccessed for demotion eligibility. */
  uint8_t demote_min_age = 2;
  /** Fault-promotion rate limit, pages per maintenance tick (models
   *  Linux NUMA-balancing migration rate limiting). */
  uint64_t promotion_rate_per_tick = 48;

  /** The AutoNUMA preset. */
  static HintFaultConfig AutoNuma() { return HintFaultConfig{}; }

  /** The TPP preset: second-fault test, 100 ms window, 4%/8% headroom. */
  static HintFaultConfig Tpp() {
    HintFaultConfig config;
    config.promotion_test = PromotionTest::kSecondFault;
    config.window_ns = 100 * kMillisecond;
    config.demote_trigger_frac = 0.04;
    config.demote_target_frac = 0.08;
    return config;
  }
};

/** AutoNUMA / TPP tiering baseline. */
class HintFaultPolicy : public TieringPolicy {
 public:
  explicit HintFaultPolicy(const HintFaultConfig& config = HintFaultConfig{});

  void Bind(const PolicyContext& context) override;
  void OnAccess(PageId unit, const TouchResult& touch, TimeNs now) override;
  /** Promotes at fault time inside OnAccess, so later accesses of the
   *  same op must observe the migration: requires inline dispatch. */
  AccessInterest access_interest() const override {
    return AccessInterest::kInline;
  }

  void Tick(TimeNs now) override;
  size_t MetadataBytes() const override;
  /** "TPP" for the second-fault test, "AutoNUMA" otherwise. */
  const char* name() const override {
    return second_fault() ? "TPP" : "AutoNUMA";
  }

  /** Hint faults observed. */
  uint64_t hint_faults() const { return hint_faults_; }

  /** Faults that resulted in promotion. */
  uint64_t fault_promotions() const { return fault_promotions_; }

 private:
  bool second_fault() const {
    return config_.promotion_test == PromotionTest::kSecondFault;
  }
  void WatermarkDemotion(TimeNs now);

  HintFaultConfig config_;
  std::unique_ptr<ClockAger> ager_;
  std::vector<TimeNs> last_fault_time_;  //!< Per unit, TPP only; 0 = never.
  PageId protect_cursor_ = 0;
  PageId age_cursor_ = 0;
  PageId demote_cursor_ = 0;
  uint64_t hint_faults_ = 0;
  uint64_t fault_promotions_ = 0;
  uint64_t promotion_tokens_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_HINT_FAULT_H_
