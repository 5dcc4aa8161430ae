#include "multitenant/victim_select.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace hybridtier {

namespace {

/** The cut of a selection: its key and how many keys lie below it. */
struct Cut {
  uint64_t key;
  uint64_t below;
};

/**
 * The rank-th smallest (0-based) of `keys`, all of which lie in
 * [lo, hi]. Radix select from the top: the bits above the highest one
 * where lo and hi differ are shared by every key, and each pass below
 * them fixes one 8-bit digit from a histogram of the keys that match
 * the digits fixed so far.
 */
Cut NthKey(std::span<const uint64_t> keys, uint64_t rank, uint64_t lo,
           uint64_t hi) {
  const uint64_t wanted = rank;
  uint32_t shift = (static_cast<uint32_t>(std::bit_width(lo ^ hi)) + 7) /
                   8 * 8;
  uint64_t prefix = shift >= 64 ? 0 : lo >> shift << shift;
  while (shift > 0) {
    shift -= 8;
    const uint32_t above = shift + 8;
    uint64_t counts[256] = {};
    for (const uint64_t key : keys) {
      if (above >= 64 || (key >> above) == (prefix >> above)) {
        ++counts[(key >> shift) & 0xff];
      }
    }
    uint64_t digit = 0;
    while (rank >= counts[digit]) rank -= counts[digit++];
    prefix |= digit << shift;
  }
  // `rank` is now the position among the keys equal to the cut.
  return {prefix, wanted - rank};
}

}  // namespace

void SelectColdest(std::span<PageId> units, std::span<const uint64_t> keys,
                   uint64_t take,
                   std::vector<std::pair<uint64_t, PageId>>* colder) {
  const size_t n = units.size();
  HT_ASSERT(keys.size() == n && take > 0 && take < n, "selecting ", take,
            " of ", n, " units with ", keys.size(), " keys");
  uint64_t lo = keys[0];
  uint64_t hi = keys[0];
  uint64_t at_lo = 0;
  for (const uint64_t key : keys) {
    if (key < lo) {
      lo = key;
      at_lo = 0;
    }
    if (key == lo) ++at_lo;
    if (key > hi) hi = key;
  }
  const Cut cut = at_lo >= take ? Cut{lo, 0} : NthKey(keys, take - 1, lo, hi);

  // One pass in address order, stopping once both classes are complete:
  // units below the cut go to `colder`, and the cut's tie class is
  // compacted to the front of `units` in address order (the write index
  // never passes the read index).
  const uint64_t tied_needed = take - cut.below;
  colder->clear();
  uint64_t tied = 0;
  for (size_t i = 0; tied < tied_needed || colder->size() < cut.below;
       ++i) {
    if (keys[i] < cut.key) {
      colder->emplace_back(keys[i], units[i]);
    } else if (keys[i] == cut.key && tied < tied_needed) {
      units[tied++] = units[i];
    }
  }
  if (cut.below > 0) {
    std::sort(colder->begin(), colder->end());
    std::move_backward(units.begin(), units.begin() + tied_needed,
                       units.begin() + take);
    for (size_t i = 0; i < cut.below; ++i) units[i] = (*colder)[i].second;
  }
}

}  // namespace hybridtier
