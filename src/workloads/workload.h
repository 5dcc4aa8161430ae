#ifndef HYBRIDTIER_WORKLOADS_WORKLOAD_H_
#define HYBRIDTIER_WORKLOADS_WORKLOAD_H_

/**
 * @file
 * Workload interface: applications as memory-access generators.
 *
 * A workload models one of the paper's applications (Table 2) as a
 * generator of *operations*, each of which is a short, ordered burst of
 * byte-addressed memory accesses inside the workload's flat virtual
 * address space. The simulator executes each access through the cache
 * and tiered-memory models; the time an operation takes is the sum of
 * its access latencies, which is exactly the metric the paper reports
 * (op latency for CacheLib/Silo, total runtime for the rest).
 */

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "mem/page.h"

namespace hybridtier {

/** One memory access within an operation. */
struct MemoryAccess {
  uint64_t addr = 0;      //!< Byte address in the workload address space.
  bool is_write = false;  //!< Write access (affects nothing today beyond
                          //!< stats; kept for extension and realism).
};

/** One application operation: an ordered burst of accesses. */
struct OpTrace {
  std::vector<MemoryAccess> accesses;

  /**
   * Idle virtual time preceding the accesses: the CPU is stalled but no
   * memory traffic is generated. Composite workloads use this to skip
   * ahead over gaps where no tenant is runnable (e.g. before the first
   * arrival of a late tenant); an op with no accesses and a think time is
   * a pure idle gap that advances the clock without counting as work.
   */
  TimeNs think_time_ns = 0;

  /**
   * Clears the trace for reuse. Never releases capacity: the simulator
   * reuses one OpTrace for the whole run, so once the buffer has grown
   * to the largest op seen, steady-state generation is allocation-free.
   */
  void Clear() {
    accesses.clear();
    think_time_ns = 0;
  }

  /** Grows the access buffer to at least `n` slots (never shrinks). */
  void Reserve(size_t n) {
    if (accesses.capacity() < n) accesses.reserve(n);
  }

  /** Appends a read access. */
  void Read(uint64_t addr) { accesses.push_back({addr, false}); }

  /** Appends a write access. */
  void Write(uint64_t addr) { accesses.push_back({addr, true}); }

  /** Number of accesses in this operation. */
  size_t size() const { return accesses.size(); }
};

/** Abstract application workload. */
class Workload {
 public:
  virtual ~Workload() = default;

  /**
   * Produces the next operation at virtual time `now`. Returns false if
   * the workload has run to natural completion (endless workloads always
   * return true). `op` is cleared and refilled.
   */
  virtual bool NextOp(TimeNs now, OpTrace* op) = 0;

  /** Total footprint of the workload's address space, in 4 KiB pages. */
  virtual uint64_t footprint_pages() const = 0;

  /** Short workload name (e.g. "cachelib-cdn"). */
  virtual const char* name() const = 0;

  /**
   * True when NextOp ignores the `now` argument, i.e. the op stream is
   * a pure function of the generator's own state and seed, so a
   * recording of it replays with bit-identical simulation results.
   * Wrapping workloads forward it (perfbench's tracing wrapper does).
   * Workloads that schedule events in virtual time (tenant churn,
   * CacheLib hot-set churn) must return false.
   */
  virtual bool time_invariant() const { return false; }
};

}  // namespace hybridtier

#endif  // HYBRIDTIER_WORKLOADS_WORKLOAD_H_
