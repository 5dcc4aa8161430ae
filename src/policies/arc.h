#ifndef HYBRIDTIER_POLICIES_ARC_H_
#define HYBRIDTIER_POLICIES_ARC_H_

/**
 * @file
 * ARC baseline (Megiddo & Modha, FAST'03) adapted to memory tiering,
 * per the paper's methodology (§5.2): the fast tier is the "cache",
 * sampled accesses are the reference stream, new pages are allocated in
 * the slow tier, and a miss admits (promotes) the page immediately —
 * the lenient admission the paper identifies as ARC's weakness for
 * tiering.
 *
 * Standard ARC state: T1 (recent, cached), T2 (frequent, cached),
 * B1/B2 (ghost histories), and the adaptive target p for |T1|.
 */

#include <cstdint>

#include "policies/lru_list.h"
#include "policies/policy.h"

namespace hybridtier {

/** ARC tiering baseline. */
class ArcPolicy : public TieringPolicy {
 public:
  ArcPolicy() = default;

  void Bind(const PolicyContext& context) override;
  void OnSample(const SampleRecord& sample) override;
  /** Sample-driven: never observes the demand stream (OnAccess stays
   *  the inherited no-op), so per-access dispatch is skipped. */
  AccessInterest access_interest() const override {
    return AccessInterest::kNone;
  }

  size_t MetadataBytes() const override;
  const char* name() const override { return "ARC"; }

  /** Current adaptive target for |T1|. */
  uint64_t target_p() const { return p_; }

  /** Sizes of the four ARC lists (T1, T2, B1, B2). */
  size_t t1_size() const { return t1_.size(); }
  size_t t2_size() const { return t2_.size(); }
  size_t b1_size() const { return b1_.size(); }
  size_t b2_size() const { return b2_.size(); }

 private:
  /** ARC's REPLACE: demotes from T1 or T2 into the ghost lists. */
  void Replace(PageId incoming, bool in_b2, TimeNs now);

  /** Demotes `unit` to the slow tier (single-page migration); every
   *  ARC demotion is a REPLACE eviction, so it carries kCapacityDemand. */
  void DemoteUnit(PageId unit, TimeNs now);

  /** Promotes `unit` to the fast tier (single-page admission,
   *  kHotnessRank). */
  void PromoteUnit(PageId unit, TimeNs now);

  /** Touches the scattered metadata lines of one list operation. */
  void TouchListMetadata(PageId unit);

  LruList t1_, t2_, b1_, b2_;
  uint64_t p_ = 0;         //!< Adaptive target size of T1.
  uint64_t capacity_ = 0;  //!< c = fast-tier units.
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_ARC_H_
