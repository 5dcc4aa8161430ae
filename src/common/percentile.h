#ifndef HYBRIDTIER_COMMON_PERCENTILE_H_
#define HYBRIDTIER_COMMON_PERCENTILE_H_

/**
 * @file
 * Latency percentile tracking.
 *
 * `WindowedPercentile` keeps the most recent N observations in a ring and
 * answers quantile queries over that window — this is how the paper's
 * "median latency over time" series (Fig 4) are produced.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hybridtier {

/** Ring buffer of recent observations with quantile queries. */
class WindowedPercentile {
 public:
  /** Creates a window holding the last `capacity` observations. */
  explicit WindowedPercentile(size_t capacity = 4096);

  /** Records one observation. */
  void Add(double value);

  /**
   * Returns the q-quantile (q in [0,1]) of the current window using the
   * nearest-rank method. Returns 0 when empty.
   */
  double Quantile(double q) const;

  /** Convenience: the median of the current window. */
  double Median() const { return Quantile(0.5); }

  /**
   * The `qa`- and `qb`-quantiles of the current window, equal to
   * {Quantile(qa), Quantile(qb)}, from a single copy into `scratch`.
   * The caller owns `scratch` and reuses it across calls (and windows),
   * so steady-state queries allocate nothing. {0, 0} when empty.
   */
  std::pair<double, double> Quantiles(double qa, double qb,
                                      std::vector<double>* scratch) const;

  /** Number of observations currently in the window. */
  size_t size() const { return count_ < capacity_ ? count_ : capacity_; }

  /** Total observations ever recorded. */
  uint64_t total_added() const { return count_; }

  /** Drops all recorded observations. */
  void Reset();

 private:
  size_t capacity_;
  uint64_t count_ = 0;
  size_t next_ = 0;
  std::vector<double> ring_;
};

/**
 * Uniform reservoir sampler for whole-run quantiles: keeps a fixed-size
 * uniform random sample of everything ever added (Vitter's Algorithm R),
 * so end-of-run quantiles reflect the entire run, not just its tail.
 */
class ReservoirSampler {
 public:
  /** @param capacity reservoir size; @param seed replacement RNG seed. */
  explicit ReservoirSampler(size_t capacity = 65536, uint64_t seed = 99);

  /** Records one observation. */
  void Add(double value);

  /** Returns the q-quantile of the sampled distribution; 0 when empty. */
  double Quantile(double q) const;

  /** Mean of all observations ever added (exact, not sampled). */
  double Mean() const {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }

  /** Observations ever added. */
  uint64_t total_added() const { return total_; }

  /** Drops all state. */
  void Reset();

 private:
  size_t capacity_;
  uint64_t seed_;
  uint64_t rng_state_;
  uint64_t total_ = 0;
  double sum_ = 0.0;
  std::vector<double> reservoir_;
};

/**
 * A (time, value) series recorder: used for latency-over-time plots.
 * Samples are appended by the simulator at fixed virtual-time intervals.
 */
struct TimeSeries {
  /** Appends one point. */
  void Add(uint64_t time_ns, double value) {
    times_ns.push_back(time_ns);
    values.push_back(value);
  }

  /** Number of points recorded. */
  size_t size() const { return values.size(); }

  std::vector<uint64_t> times_ns;  //!< X coordinates, virtual ns.
  std::vector<double> values;      //!< Y coordinates.
};

/**
 * Returns the earliest time at which `series` enters and *stays* within
 * `tolerance` (relative) of `target`. Used to measure adaptation time
 * (paper Table 3: "reach within 1% of steady-state median latency").
 * Returns UINT64_MAX if the series never settles.
 */
uint64_t SettleTimeNs(const TimeSeries& series, double target,
                      double tolerance, uint64_t not_before_ns = 0);

/**
 * Jain's fairness index over `values`: (sum x)^2 / (n * sum x^2).
 * 1.0 = perfectly even, 1/n = one value holds everything. Returns 1.0
 * for empty or all-zero inputs (nothing to be unfair about).
 */
double JainFairnessIndex(const std::vector<double>& values);

/**
 * Weight-normalized Jain fairness: the plain index over values[i] /
 * weights[i], so a split that tracks the weights ("a:4,b:1" holding a
 * 4:1 occupancy ratio) scores 1.0. `weights` must be positive and the
 * same length as `values`; with all weights equal this reduces to
 * JainFairnessIndex.
 */
double WeightedJainFairnessIndex(const std::vector<double>& values,
                                 const std::vector<double>& weights);

/**
 * Noise-tolerant settle detector: returns the time of the first point at
 * or after `not_before_ns` from which at least `sustain_points`
 * consecutive points all lie within `tolerance` (relative) of `target`.
 * Returns UINT64_MAX if no such window exists.
 */
uint64_t FirstSustainedEntryNs(const TimeSeries& series, double target,
                               double tolerance, size_t sustain_points,
                               uint64_t not_before_ns = 0);

}  // namespace hybridtier

#endif  // HYBRIDTIER_COMMON_PERCENTILE_H_
