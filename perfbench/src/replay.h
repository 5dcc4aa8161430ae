#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

/**
 * @file
 * Standalone layer replays: each layer the engine loop drives per access
 * (cache hierarchy, `TieredMemory::Touch`, `PerfModel`, sampler) is fed
 * the traced run's own recorded app stream on its own, with one clock
 * read pair around the whole loop and none inside it. The CBF pair is
 * fed the run's recorded policy sample stream at the policy's actual
 * frequency-filter size.
 *
 * Replays run a layer without the others, so their sum is compared with
 * the engine's measured ns/access and the gap is reported, not hidden.
 */

#include <cstdint>
#include <string>

#include "core/simulation.h"
#include "tracing.h"

namespace perfbench {

/** Geometry of the run whose streams are replayed. */
struct ReplayGeometry {
  hybridtier::SimulationConfig config;
  uint64_t footprint_units = 0;
  uint64_t fast_capacity_units = 0;
  uint32_t tenants = 0;  //!< 0 = single tenant (global sampler).
};

struct ReplayResult {
  uint64_t accesses = 0;          //!< App accesses replayed.
  double cache_ns_per_access = 0;
  uint64_t cache_memory_fills = 0;  //!< Accesses that missed every level.
  double touch_ns_per_access = 0;
  uint64_t fills = 0;               //!< PerfModel calls replayed.
  double perf_ns_per_fill = 0;
  double sampler_ns_per_access = 0;
  uint64_t cbf_updates = 0;
  size_t cbf_counters = 0;
  size_t cbf_bytes = 0;
  double cbf_blocked_ns_per_update = 0;
  double cbf_standard_ns_per_update = 0;
  uint64_t checksum = 0;  //!< Folds every replayed result (keeps work live).
};

/** Replays each layer `reps` times and reports the fastest repetition. */
ReplayResult ReplayLayers(const RecordedStreams& streams,
                          const ReplayGeometry& geometry, int reps);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
