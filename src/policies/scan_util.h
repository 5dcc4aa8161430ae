#ifndef HYBRIDTIER_POLICIES_SCAN_UTIL_H_
#define HYBRIDTIER_POLICIES_SCAN_UTIL_H_

/**
 * @file
 * The free-page watermark and the budgeted, wrapping resident-page scan
 * shared by the demotion paths of the tiering policies (HybridTier,
 * Memtis, TPP, AutoNUMA). Each policy demotes when the fast tier's free
 * fraction drops under a trigger watermark, walking the pagemap in
 * chunks against a per-tick unit budget; keeping the deficit, chunking
 * and cursor arithmetic in one place keeps the accounting (charge what
 * was visited, wrap at the footprint) from diverging.
 */

#include <algorithm>
#include <cstdint>

#include "mem/page.h"
#include "mem/tiered_memory.h"

namespace hybridtier {

/**
 * TPP-style watermark deficit: 0 while the fast tier's free fraction is
 * at or above `trigger_frac` (or the tier is empty); otherwise the pages
 * that must be freed to bring it up to `target_frac`.
 */
inline uint64_t WatermarkDeficit(const TieredMemory& memory,
                                 double trigger_frac, double target_frac) {
  const uint64_t capacity = memory.Capacity(Tier::kFast);
  if (capacity == 0) return 0;
  const uint64_t free_pages = memory.FreePages(Tier::kFast);
  if (static_cast<double>(free_pages) / static_cast<double>(capacity) >=
      trigger_frac) {
    return 0;
  }
  const uint64_t target_free =
      static_cast<uint64_t>(target_frac * static_cast<double>(capacity));
  return target_free > free_pages ? target_free - free_pages : 0;
}

/**
 * Scans resident pages of `tier` from `*cursor` in chunks of up to 1024
 * units, wrapping at `footprint`, until `budget` units were visited or
 * `done()` returns true (checked between chunks, as the real pagemap
 * walks batch their work). Charges only units actually visited — the
 * tail chunk is clipped at the footprint, and charging its nominal size
 * would under-scan passes near the wrap. Advances `*cursor` and returns
 * the units visited. Templated on both callbacks so the per-unit
 * classification inlines into the scan loop.
 */
template <typename DoneFn, typename UnitFn>
inline uint64_t BudgetedResidentScan(
    const TieredMemory& memory, PageId* cursor, uint64_t footprint,
    uint64_t budget, Tier tier, const DoneFn& done, const UnitFn& fn) {
  uint64_t scanned = 0;
  while (scanned < budget && !done()) {
    const uint64_t chunk = std::min<uint64_t>(1024, budget - scanned);
    const uint64_t visited = memory.ScanResident(*cursor, chunk, tier, fn);
    if (visited == 0) break;  // Defensive: never spin on an empty scan.
    scanned += visited;
    *cursor += visited;
    if (*cursor >= footprint) *cursor = 0;
  }
  return scanned;
}

}  // namespace hybridtier

#endif  // HYBRIDTIER_POLICIES_SCAN_UTIL_H_
