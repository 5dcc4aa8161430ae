#include "obs/stage_profiler.h"

#include <cstdio>

namespace hybridtier {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kGeneration:
      return "generation";
    case Stage::kCache:
      return "cache";
    case Stage::kMigration:
      return "migration";
    case Stage::kAccounting:
      return "accounting";
    case Stage::kCount:
      break;
  }
  return "?";
}

uint64_t StageProfiler::OtherNs() const {
  uint64_t attributed = 0;
  for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
    attributed += stages_[i].ns;
  }
  return op_ns_ > attributed ? op_ns_ - attributed : 0;
}

std::string StageProfiler::Report() const {
  std::string report;
  char line[160];
  if (op_accesses_ == 0) return "  (no sampled ops)\n";
  const double per_access =
      static_cast<double>(op_ns_) / static_cast<double>(op_accesses_);
  std::snprintf(line, sizeof(line),
                "  sampled ops %llu, accesses %llu, %.1f ns/access total\n",
                static_cast<unsigned long long>(ops_),
                static_cast<unsigned long long>(op_accesses_), per_access);
  report += line;
  for (size_t i = 0; i < static_cast<size_t>(Stage::kCount); ++i) {
    const Stage stage = static_cast<Stage>(i);
    const StageTotals& totals = stages_[i];
    if (totals.events == 0) continue;
    const double ns = NsPerAccess(stage);
    std::snprintf(line, sizeof(line), "  %-11s %7.1f ns/access  (%4.1f%%)\n",
                  StageName(stage), ns,
                  per_access > 0.0 ? 100.0 * ns / per_access : 0.0);
    report += line;
  }
  const double other =
      static_cast<double>(OtherNs()) / static_cast<double>(op_accesses_);
  std::snprintf(line, sizeof(line), "  %-11s %7.1f ns/access  (%4.1f%%)\n",
                "other", other,
                per_access > 0.0 ? 100.0 * other / per_access : 0.0);
  report += line;
  return report;
}

}  // namespace hybridtier
