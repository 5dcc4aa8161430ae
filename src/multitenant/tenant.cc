#include "multitenant/tenant.h"

#include <algorithm>

#include "common/logging.h"
#include "multitenant/fleet.h"
#include "workloads/factory.h"

namespace hybridtier {

namespace {

/** Parses a non-negative virtual time like "0", "5e8" or "2.5e9". */
TimeNs ParseTimeNs(const std::string& text, const std::string& entry) {
  size_t parsed = 0;
  double value = -1.0;
  try {
    value = std::stod(text, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  // The upper bound keeps the double-to-uint64 cast defined (and
  // rejects NaN, which fails every comparison).
  constexpr double kMaxTime = 1.8e19;  // < 2^64 ns (~584 years).
  if (parsed != text.size() || !(value >= 0.0 && value < kMaxTime)) {
    HT_FATAL("bad time '", text, "' in tenant entry '", entry,
             "' (must be a non-negative ns count below 1.8e19, e.g. 5e8)");
  }
  return static_cast<TimeNs>(value);
}

}  // namespace

std::vector<TenantSpec> ParseTenantList(const std::string& list) {
  // A generator spec ("fleet:1000,zipf=0.9,...") expands to the whole
  // tenant population; it is never mixed with explicit entries.
  if (IsFleetSpec(list)) return MakeFleetSpecs(ParseFleetSpec(list));
  std::vector<TenantSpec> specs;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) {
      HT_FATAL("empty tenant entry in list '", list, "'");
    }

    TenantSpec spec;
    // Split off the optional "@window[+window...]" residency windows
    // first; what precedes them is the familiar "id[:weight]".
    const size_t at = entry.find('@');
    const std::string head = entry.substr(0, at);
    if (at != std::string::npos) {
      // Windows are '+'-separated (a '+' after 'e'/'E' is a
      // scientific-notation exponent sign, "1e+8", not a separator).
      const std::string window_list = entry.substr(at + 1);
      std::vector<std::string> window_texts;
      size_t window_start = 0;
      for (size_t i = 1; i <= window_list.size(); ++i) {
        const bool split =
            i == window_list.size() ||
            (window_list[i] == '+' && window_list[i - 1] != 'e' &&
             window_list[i - 1] != 'E');
        if (!split) continue;
        window_texts.push_back(
            window_list.substr(window_start, i - window_start));
        window_start = i + 1;
      }
      if (window_texts.empty()) {
        HT_FATAL("empty residency window in tenant entry '", entry, "'");
      }
      for (size_t w = 0; w < window_texts.size(); ++w) {
        const std::string& window = window_texts[w];
        // A '-' splits arrival from departure unless it is the sign of
        // a scientific-notation exponent ("1e-3").
        size_t dash = std::string::npos;
        for (size_t i = 1; i < window.size(); ++i) {
          if (window[i] == '-' && window[i - 1] != 'e' &&
              window[i - 1] != 'E') {
            dash = i;
            break;
          }
        }
        ResidencyWindow parsed;
        parsed.arrival_ns = ParseTimeNs(window.substr(0, dash), entry);
        if (dash != std::string::npos) {
          parsed.departure_ns = ParseTimeNs(window.substr(dash + 1), entry);
          if (parsed.departure_ns <= parsed.arrival_ns) {
            HT_FATAL("tenant window '", window, "' in entry '", entry,
                     "' must depart after it arrives");
          }
        } else if (w + 1 < window_texts.size()) {
          HT_FATAL("tenant window '", window, "' in entry '", entry,
                   "' needs a departure: only the last of several "
                   "windows may be open-ended");
        }
        if (!spec.windows.empty() &&
            parsed.arrival_ns <= spec.windows.back().departure_ns) {
          HT_FATAL("tenant windows in entry '", entry,
                   "' must be disjoint and in increasing order");
        }
        spec.windows.push_back(parsed);
      }
    }

    const size_t colon = head.find(':');
    spec.workload_id = head.substr(0, colon);
    if (colon != std::string::npos) {
      const std::string weight = head.substr(colon + 1);
      size_t parsed = 0;
      try {
        spec.weight = std::stod(weight, &parsed);
      } catch (const std::exception&) {
        parsed = 0;
      }
      if (parsed != weight.size() || spec.weight <= 0.0) {
        HT_FATAL("bad tenant weight '", weight, "' in entry '", entry,
                 "' (must be a positive number)");
      }
    }
    if (!IsWorkloadId(spec.workload_id)) {
      HT_FATAL("unknown workload id '", spec.workload_id,
               "' in tenant list '", list, "'");
    }
    specs.push_back(std::move(spec));
    if (comma == list.size()) break;
  }
  return specs;
}

double TenantDirectory::TotalWeight() const {
  double total = 0.0;
  for (const TenantRegion& region : regions) total += region.weight;
  return total;
}

void TenantDirectory::BuildUnitIndex() {
  for (const PageMode mode : {PageMode::kRegular, PageMode::kHuge}) {
    UnitIndex& index = unit_index_[static_cast<size_t>(mode)];
    index.begins.clear();
    index.ends.clear();
    for (const TenantRegion& region : regions) {
      const PageRange range = region.UnitRange(mode);
      index.begins.push_back(range.begin);
      index.ends.push_back(range.end);
    }
  }
}

uint32_t TenantDirectory::TenantOfUnit(PageId unit, PageMode mode) const {
  const UnitIndex& index = unit_index_[static_cast<size_t>(mode)];
  HT_ASSERT(index.begins.size() == regions.size(),
            "tenant directory unit index is stale: call BuildUnitIndex");
  // Regions are laid out contiguously in allocation order, so the owner
  // is the last region whose range begins at or before `unit`.
  const auto it =
      std::upper_bound(index.begins.begin(), index.begins.end(), unit);
  HT_ASSERT(it != index.begins.begin(), "unit ", unit,
            " precedes all tenants");
  const uint32_t tenant =
      static_cast<uint32_t>(std::distance(index.begins.begin(), it)) - 1;
  HT_ASSERT(unit < index.ends[tenant], "unit ", unit,
            " beyond the last tenant region");
  return tenant;
}

}  // namespace hybridtier
