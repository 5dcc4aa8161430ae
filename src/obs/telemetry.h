#ifndef HYBRIDTIER_OBS_TELEMETRY_H_
#define HYBRIDTIER_OBS_TELEMETRY_H_

/**
 * @file
 * The telemetry bundle a simulation is configured with.
 *
 * `Telemetry` is four optional pointers — metrics, trace, latency
 * attribution, decision audit — carried by value in `SimulationConfig`.
 * The simulation does not own any of them: the driver (ht_run, a
 * bench, a test) creates whichever sinks it wants, points the config at
 * them, runs, and serializes afterwards. All-null (the default) is the disabled
 * state, and every instrumentation site guards on its pointer, so a
 * run without telemetry executes the exact pre-observability code
 * path.
 */

#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hybridtier {

/** Optional telemetry sinks for one simulation. Non-owning. */
struct Telemetry {
  MetricRegistry* metrics = nullptr;
  TraceEmitter* trace = nullptr;
  LatencyAttribution* attribution = nullptr;
  DecisionAudit* audit = nullptr;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_OBS_TELEMETRY_H_
