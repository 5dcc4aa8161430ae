#ifndef HYBRIDTIER_FAULT_WATCHDOG_H_
#define HYBRIDTIER_FAULT_WATCHDOG_H_

/**
 * @file
 * Opt-in runtime invariant checking.
 *
 * The simulator's accounting is all incremental — residency counters,
 * per-endpoint mirrors, region tallies, quota occupancy, the exact
 * latency decomposition — and a fault layer that migrates pages from
 * outside the policy is exactly the kind of code that desynchronizes
 * incremental mirrors. `InvariantWatchdog` recounts the ground truth
 * (an O(footprint) flag scan) and cross-checks every derived counter at
 * each stats interval, so a bookkeeping bug fails the run at the
 * interval it happens instead of surfacing as a subtly wrong figure.
 *
 * Built-in checks (all against a fresh recount of the page flags):
 *  - per-tier used counts and used <= capacity;
 *  - per-endpoint slow-resident and fast-resident-by-home mirrors;
 *  - per-region residency tallies (when regions are defined);
 *  - the attribution identity Σ components == Σ op latency (when a
 *    `LatencyAttribution` is attached).
 * Components can register extra checks: `RegisterCheck` for ad-hoc
 * lambdas, or implement `InvariantSource` (the fair-share policy does,
 * validating its quotas against the tier and the tenant spans) and
 * register that.
 *
 * Pure observation: checks read state, never mutate it, so an enabled
 * watchdog cannot change results — only abort on corruption.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "mem/tiered_memory.h"
#include "obs/attribution.h"

namespace hybridtier {

/**
 * Implemented by components with internal accounting worth validating.
 * Return false and fill `*error` with a human-readable description when
 * an invariant does not hold.
 */
struct InvariantSource {
  virtual ~InvariantSource() = default;
  virtual bool CheckInvariants(std::string* error) const = 0;
};

class InvariantWatchdog {
 public:
  /** `attribution` may be null (identity check skipped). */
  explicit InvariantWatchdog(const TieredMemory* memory,
                             const LatencyAttribution* attribution = nullptr);

  /** Adds a named ad-hoc check. */
  void RegisterCheck(const std::string& name,
                     std::function<bool(std::string*)> check);

  /** Adds every check of `source` under `name` (borrowed pointer). */
  void RegisterSource(const std::string& name, const InvariantSource* source);

  /**
   * Runs every check once at virtual time `now`. Returns true when all
   * invariants hold; on failure `last_error()` names the first violated
   * check and `violations()` counts all of them.
   */
  bool RunChecks(TimeNs now);

  /** Checks executed so far (across all RunChecks calls). */
  uint64_t checks_run() const { return checks_run_; }

  /** Failed checks so far. */
  uint64_t violations() const { return violations_; }

  /** Description of the most recent violation ("" when clean). */
  const std::string& last_error() const { return last_error_; }

 private:
  bool CheckMemoryAccounting(std::string* error) const;
  bool CheckAttributionIdentity(std::string* error) const;

  struct NamedCheck {
    std::string name;
    std::function<bool(std::string*)> check;
  };

  const TieredMemory* memory_;
  const LatencyAttribution* attribution_;
  std::vector<NamedCheck> checks_;
  uint64_t checks_run_ = 0;
  uint64_t violations_ = 0;
  std::string last_error_;
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_FAULT_WATCHDOG_H_
