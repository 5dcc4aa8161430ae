#ifndef HYBRIDTIER_MULTITENANT_VICTIM_SELECT_H_
#define HYBRIDTIER_MULTITENANT_VICTIM_SELECT_H_

/**
 * @file
 * Coldest-first victim selection for FairShare's quota-enforcement pass
 * (multitenant/fair_share_policy.h).
 *
 * The pass ranks a tenant's fast-resident units, which arrive in address
 * order, by a key (hotness, or hotness then home-endpoint cost), and
 * demotes the `take` units with the smallest (key, unit). Most of a
 * tenant's units share one key, so instead of sorting, the selection
 * finds the cut key — the take-th smallest — and reads the tie class at
 * the cut off the address-ordered list.
 */

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mem/page.h"

namespace hybridtier {

/**
 * Rewrites `units[0, take)` to the `take` units with the smallest
 * (key, unit) pairs, in ascending (key, unit) order — exactly the prefix
 * of a full sort of the pairs, which are unique. `units` must ascend and
 * `keys[i]` ranks `units[i]` (lower leaves first). O(n):
 *  - the cut key K is the take-th smallest key: one min scan when the
 *    coldest key alone fills `take` (the common case), otherwise a radix
 *    select over fixed-size digit histograms;
 *  - the units with key < K come first, sorted (usually there are none);
 *  - then the lowest-address units with key == K until `take` is met.
 * `colder` is scratch for the key < K units (fewer than `take`).
 * Requires 0 < take < units.size() == keys.size(); units past `take`
 * are left unspecified.
 */
void SelectColdest(std::span<PageId> units, std::span<const uint64_t> keys,
                   uint64_t take,
                   std::vector<std::pair<uint64_t, PageId>>* colder);

}  // namespace hybridtier

#endif  // HYBRIDTIER_MULTITENANT_VICTIM_SELECT_H_
