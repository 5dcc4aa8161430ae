#ifndef HYBRIDTIER_CORE_POLICY_FACTORY_H_
#define HYBRIDTIER_CORE_POLICY_FACTORY_H_

/**
 * @file
 * Policy factory: builds any evaluated tiering system by name, with the
 * simulation-scaled defaults shared by tests, examples, and benches.
 *
 * Names: "TPP", "AutoNUMA", "Memtis", "ARC", "TwoQ", "HybridTier",
 * "HybridTier-onlyFreq", "HybridTier-CBF", "HybridTier-exact",
 * "AllFast", "FirstTouch".
 */

#include <memory>
#include <string>
#include <vector>

#include "core/hybridtier_policy.h"
#include "mem/tiered_memory.h"
#include "policies/hint_fault.h"
#include "policies/memtis.h"
#include "policies/policy.h"

namespace hybridtier {

/** Cross-policy scaled tunables (one knob set for a whole experiment). */
struct PolicyOptions {
  /** Memtis cooling period C in samples. */
  uint64_t memtis_cooling_samples = 150000;
  /** HybridTier frequency-tracker cooling period (high C). */
  uint64_t hybrid_freq_cooling_samples = 600000;
  /** HybridTier momentum-tracker cooling period (low C). */
  uint64_t hybrid_momentum_cooling_samples = 8000;
  /** HybridTier momentum threshold. */
  uint32_t momentum_threshold = 3;
  /** Second-chance revisit delay. */
  TimeNs second_chance_revisit_ns = 300 * kMillisecond;
  /** Promotion batch, in samples, for batched policies. */
  uint64_t promo_batch_samples = 2048;
};

/** The six systems compared in the paper's headline figures. */
const std::vector<std::string>& StandardPolicyNames();

/** True if `name` names a known policy. */
bool IsPolicyName(const std::string& name);

/** Builds the policy `name`; fatal on unknown names. */
std::unique_ptr<TieringPolicy> MakePolicy(
    const std::string& name, const PolicyOptions& options = PolicyOptions{});

/**
 * First-touch allocation rule for `name`: ARC and TwoQ start with an
 * empty "cache" and therefore allocate new pages in the slow tier
 * (paper §5.2); everyone else uses Linux fast-first allocation.
 */
AllocationPolicy AllocationPolicyFor(const std::string& name);

/**
 * Fast-tier fraction override for `name`: the AllFast upper bound gets
 * the whole footprint; returns `requested` otherwise.
 */
double FastFractionFor(const std::string& name, double requested);

}  // namespace hybridtier

#endif  // HYBRIDTIER_CORE_POLICY_FACTORY_H_
