#include "common/percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace hybridtier {

WindowedPercentile::WindowedPercentile(size_t capacity)
    : capacity_(capacity) {
  HT_ASSERT(capacity > 0, "window capacity must be positive");
  ring_.reserve(capacity);
}

void WindowedPercentile::Add(double value) {
  if (ring_.size() < capacity_) {
    ring_.push_back(value);
  } else {
    ring_[next_] = value;
  }
  next_ = (next_ + 1) % capacity_;
  ++count_;
}

namespace {

/** Nearest-rank index of quantile `q` in `n` sorted observations. */
size_t NearestRank(double q, size_t n) {
  q = std::clamp(q, 0.0, 1.0);
  return std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
}

}  // namespace

double WindowedPercentile::Quantile(double q) const {
  std::vector<double> scratch;
  return Quantiles(q, q, &scratch).first;
}

std::pair<double, double> WindowedPercentile::Quantiles(
    double qa, double qb, std::vector<double>* scratch) const {
  if (ring_.empty()) return {0.0, 0.0};
  scratch->assign(ring_.begin(), ring_.end());
  const size_t rank_a = NearestRank(qa, scratch->size());
  const size_t rank_b = NearestRank(qb, scratch->size());
  const size_t lo = std::min(rank_a, rank_b);
  const size_t hi = std::max(rank_a, rank_b);
  const auto first = scratch->begin();
  std::nth_element(first, first + static_cast<ptrdiff_t>(lo), scratch->end());
  if (hi > lo) {
    // Everything after `lo` is now >= its value, so the hi-th order
    // statistic is found by selecting within that tail alone.
    std::nth_element(first + static_cast<ptrdiff_t>(lo + 1),
                     first + static_cast<ptrdiff_t>(hi), scratch->end());
  }
  return {(*scratch)[rank_a], (*scratch)[rank_b]};
}

void WindowedPercentile::Reset() {
  ring_.clear();
  next_ = 0;
  count_ = 0;
}

ReservoirSampler::ReservoirSampler(size_t capacity, uint64_t seed)
    : capacity_(capacity), seed_(seed), rng_state_(seed) {
  HT_ASSERT(capacity > 0, "reservoir capacity must be positive");
  reservoir_.reserve(capacity);
}

void ReservoirSampler::Add(double value) {
  ++total_;
  sum_ += value;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(value);
    return;
  }
  // Algorithm R: replace a random slot with probability capacity/total.
  // SplitMix64 gives a cheap, deterministic stream.
  uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const uint64_t slot = z % total_;
  if (slot < capacity_) reservoir_[slot] = value;
}

double ReservoirSampler::Quantile(double q) const {
  if (reservoir_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> sorted(reservoir_);
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted.size())));
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank];
}

void ReservoirSampler::Reset() {
  reservoir_.clear();
  total_ = 0;
  sum_ = 0.0;
  rng_state_ = seed_;
}

uint64_t FirstSustainedEntryNs(const TimeSeries& series, double target,
                               double tolerance, size_t sustain_points,
                               uint64_t not_before_ns) {
  const double band = std::abs(target) * tolerance;
  size_t run_start = SIZE_MAX;
  size_t run_length = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const bool eligible = series.times_ns[i] >= not_before_ns;
    const bool inside = std::abs(series.values[i] - target) <= band;
    if (eligible && inside) {
      if (run_length == 0) run_start = i;
      ++run_length;
      if (run_length >= sustain_points) {
        return series.times_ns[run_start];
      }
    } else {
      run_length = 0;
    }
  }
  return UINT64_MAX;
}

double JainFairnessIndex(const std::vector<double>& values) {
  double sum = 0.0;
  double sum_squares = 0.0;
  for (const double value : values) {
    sum += value;
    sum_squares += value * value;
  }
  if (values.empty() || sum_squares == 0.0) return 1.0;
  return sum * sum /
         (static_cast<double>(values.size()) * sum_squares);
}

double WeightedJainFairnessIndex(const std::vector<double>& values,
                                 const std::vector<double>& weights) {
  HT_ASSERT(values.size() == weights.size(),
            "weighted fairness needs one weight per value: ",
            values.size(), " vs ", weights.size());
  std::vector<double> normalized;
  normalized.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    HT_ASSERT(weights[i] > 0.0, "fairness weight must be positive, got ",
              weights[i]);
    normalized.push_back(values[i] / weights[i]);
  }
  return JainFairnessIndex(normalized);
}

uint64_t SettleTimeNs(const TimeSeries& series, double target,
                      double tolerance, uint64_t not_before_ns) {
  const double band = std::abs(target) * tolerance;
  // Find the last point outside the band; the settle time is the next one.
  ptrdiff_t last_outside = -1;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series.times_ns[i] < not_before_ns) {
      last_outside = static_cast<ptrdiff_t>(i);
      continue;
    }
    if (std::abs(series.values[i] - target) > band) {
      last_outside = static_cast<ptrdiff_t>(i);
    }
  }
  const size_t first_settled = static_cast<size_t>(last_outside + 1);
  if (first_settled >= series.size()) return UINT64_MAX;
  return series.times_ns[first_settled];
}

}  // namespace hybridtier
