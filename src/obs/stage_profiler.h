#ifndef HYBRIDTIER_OBS_STAGE_PROFILER_H_
#define HYBRIDTIER_OBS_STAGE_PROFILER_H_

/**
 * @file
 * Deterministic attribution of each op's simulated time to engine
 * stages.
 *
 * For every op the engine fills per-stage buckets with *simulated*
 * nanoseconds it has already computed: think time -> generation, the
 * op's access latencies -> cache, TLB stalls -> migration, op overhead
 * -> accounting. The profiler never reads a clock, so every bucket is a
 * pure function of the simulated event stream: profiled runs are
 * byte-identical across reruns and `--jobs` values, and with no idle
 * gaps `op_ns()` equals the run's modeled duration exactly.
 *
 * Host (wall-clock) cost per layer is measured from outside the engine
 * by the benchmark's tracer; see perfbench/NOTES.md.
 */

#include <cstdint>
#include <string>

namespace hybridtier {

/** Engine stages attributed by the profiler. */
enum class Stage : uint8_t {
  kGeneration = 0,  //!< Op think time.
  kCache,           //!< Access latencies (cache + memory service).
  kMigration,       //!< Migration (TLB-shootdown) stalls charged.
  kAccounting,      //!< Fixed per-op software overhead.
  kCount,
};

/** Human-readable stage name ("generation", "cache", ...). */
const char* StageName(Stage stage);

/** Accumulates per-stage simulated time for one simulation. */
class StageProfiler {
 public:
  /** One stage's accumulated totals. */
  struct StageTotals {
    uint64_t ns = 0;      //!< Simulated ns across ops.
    uint64_t events = 0;  //!< Ops that recorded this stage.
  };

  /** Adds one measurement of `stage`. */
  void Record(Stage stage, uint64_t ns) {
    StageTotals& totals = stages_[static_cast<size_t>(stage)];
    totals.ns += ns;
    ++totals.events;
  }

  /** Closes one op: its total simulated time and access count. */
  void RecordOp(uint64_t ns, uint64_t accesses) {
    op_ns_ += ns;
    op_accesses_ += accesses;
    ++ops_;
  }

  const StageTotals& totals(Stage stage) const {
    return stages_[static_cast<size_t>(stage)];
  }

  uint64_t ops() const { return ops_; }
  uint64_t accesses() const { return op_accesses_; }
  uint64_t op_ns() const { return op_ns_; }

  /** Mean ns per access spent in `stage`. */
  double NsPerAccess(Stage stage) const {
    return op_accesses_ == 0
               ? 0.0
               : static_cast<double>(totals(stage).ns) /
                     static_cast<double>(op_accesses_);
  }

  /** Op time not attributed to any stage. */
  uint64_t OtherNs() const;

  /** Multi-line per-stage table (ns/access). */
  std::string Report() const;

 private:
  StageTotals stages_[static_cast<size_t>(Stage::kCount)];
  uint64_t op_ns_ = 0;
  uint64_t op_accesses_ = 0;
  uint64_t ops_ = 0;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_STAGE_PROFILER_H_
