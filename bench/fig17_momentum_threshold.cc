/**
 * @file
 * Figure 17 — momentum-threshold sensitivity: CacheLib CDN and
 * social-graph performance (p50 + throughput) at thresholds 1..6,
 * normalized to the default threshold 3, at 1:8.
 *
 * The (workload x threshold) matrix runs as one parallel sweep; cells
 * pin the shared bench seed, and the threshold-3 cell doubles as the
 * normalization baseline (runs are deterministic, so a separate
 * baseline run would return identical numbers).
 *
 * Shape target: thresholds below 3 hurt (cold pages promoted on a few
 * touches); 3..6 is flat; social-graph is more sensitive than CDN
 * (larger hot set, scarcer fast tier).
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/table.h"

namespace hybridtier::bench {
namespace {

constexpr uint64_t kAccessBudget = 4000000;
constexpr uint64_t kWarmup = 1200000;
constexpr uint32_t kDefaultThreshold = 3;

SimulationResult RunThreshold(const std::string& workload_id,
                              uint32_t threshold) {
  RunSpec spec;
  spec.workload_id = workload_id;
  spec.workload_scale = DefaultWorkloadScale(workload_id);
  spec.policy_name = "HybridTier";
  spec.fast_fraction = 1.0 / 8;
  spec.max_accesses = kAccessBudget;
  spec.warmup_accesses = kWarmup;
  spec.policy_options.momentum_threshold = threshold;
  return RunCell(spec);
}

}  // namespace
}  // namespace hybridtier::bench

int main(int argc, char** argv) {
  using namespace hybridtier;
  using namespace hybridtier::bench;
  const BenchOptions options = ParseBenchArgs(argc, argv);
  Banner("fig17", "momentum-threshold sensitivity sweep (1..6, 1:8)");

  const std::vector<std::string> workloads = {"cdn", "social"};
  std::vector<std::string> thresholds;
  for (uint32_t threshold = 1; threshold <= 6; ++threshold) {
    thresholds.push_back(std::to_string(threshold));
  }
  SweepGrid grid;
  grid.AddAxis("workload", workloads);
  grid.AddAxis("threshold", thresholds);

  SweepRunner runner = MakeSweepRunner(options, "fig17");
  const std::vector<SimulationResult> results =
      runner.Run(grid, [](const SweepCell& cell) {
        return RunThreshold(
            cell.Get("workload"),
            static_cast<uint32_t>(std::stoul(cell.Get("threshold"))));
      });

  TablePrinter table({"threshold", "CDN p50 (norm.)", "CDN op/s (norm.)",
                      "social p50 (norm.)", "social op/s (norm.)"});
  table.SetTitle(
      "Figure 17: performance normalized to momentum threshold 3 "
      "(p50 normalized as baseline/measured; >1 is better)");

  for (size_t t = 0; t < thresholds.size(); ++t) {
    std::vector<std::string> row = {thresholds[t]};
    for (size_t w = 0; w < workloads.size(); ++w) {
      const SimulationResult& result = results[grid.FlatIndex({w, t})];
      const SimulationResult& base =
          results[grid.FlatIndex({w, kDefaultThreshold - 1})];
      row.push_back(FormatDouble(
          base.median_latency_ns / result.median_latency_ns, 3));
      row.push_back(FormatDouble(
          result.throughput_mops / base.throughput_mops, 3));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  table.WriteCsv(CsvPath("fig17_momentum_threshold"));
  std::cout << "paper shape: performance dips below threshold 3; flat "
               "from 3 to 6; social-graph more sensitive than CDN\n";
  return 0;
}
