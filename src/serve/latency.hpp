// Streaming latency statistics for the serving path (serve::Server).
//
// LatencyHistogram is an HDR-style log-bucketed histogram over non-negative
// integer microsecond values: exact unit buckets below 2^kSubBits, then
// 2^kSubBits sub-buckets per power of two above that, which bounds the
// relative error of any reported quantile by the bucket width
// (2^-(kSubBits+1) ~ 1.6% for kSubBits = 5) at every scale from 1 us to
// ~centuries. record() is O(1) with no allocation after construction, so the
// server can call it under its completion lock; percentile() walks the fixed
// bucket array at report time.
//
// The histogram never reads a clock. Callers feed durations measured on
// std::chrono::steady_clock (the repo's monotonic-clock-only rule,
// docs/LINT.md) — or synthetic values, which is how the estimator is tested
// against exact sorted quantiles (tests/serve/test_loadgen.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhw::serve {

class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(uint64_t value_us);

  uint64_t count() const { return count_; }
  uint64_t min() const { return min_; }   // exact, not bucketed; 0 when empty
  uint64_t max() const { return max_; }   // exact, not bucketed
  double mean() const;                    // exact (running sum)

  // Nearest-rank percentile estimate for p in [0, 100]: the midpoint of the
  // bucket holding rank ceil(p/100 * count), clamped to the observed
  // [min, max] — a bucket midpoint can lie past the largest (or below the
  // smallest) recorded value, which no quantile of the data can. Exact below
  // 2^kSubBits us; relative error bounded by half a bucket width above. 0
  // when empty.
  uint64_t percentile(double p) const;

  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave

 private:
  static constexpr uint64_t kSub = 1ULL << kSubBits;
  static constexpr size_t kBuckets = static_cast<size_t>(64 - kSubBits + 1)
                                     << kSubBits;

  static size_t index_of(uint64_t v);
  // Inclusive [low, high] value range a bucket covers.
  static uint64_t bucket_low(size_t index);
  static uint64_t bucket_high(size_t index);

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace rhw::serve
