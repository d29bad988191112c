#include "serve/latency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rhw::serve {

size_t LatencyHistogram::index_of(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  // msb >= kSubBits; the top kSubBits bits below it pick the sub-bucket.
  const int msb = 63 - std::countl_zero(v);
  const auto octave = static_cast<size_t>(msb - kSubBits + 1);
  const auto sub =
      static_cast<size_t>((v >> (msb - kSubBits)) & (kSub - 1));
  return (octave << kSubBits) + sub;
}

uint64_t LatencyHistogram::bucket_low(size_t index) {
  if (index < kSub) return index;
  const size_t octave = index >> kSubBits;
  const uint64_t sub = index & (kSub - 1);
  const int msb = static_cast<int>(octave) + kSubBits - 1;
  return (1ULL << msb) | (sub << (msb - kSubBits));
}

uint64_t LatencyHistogram::bucket_high(size_t index) {
  if (index < kSub) return index;
  const size_t octave = index >> kSubBits;
  const int msb = static_cast<int>(octave) + kSubBits - 1;
  return bucket_low(index) + (1ULL << (msb - kSubBits)) - 1;
}

void LatencyHistogram::record(uint64_t value_us) {
  ++counts_[index_of(value_us)];
  if (count_ == 0 || value_us < min_) min_ = value_us;
  ++count_;
  if (value_us > max_) max_ = value_us;
  sum_ += static_cast<double>(value_us);
}

double LatencyHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

uint64_t LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  auto rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      return std::clamp((bucket_low(i) + bucket_high(i)) / 2, min_, max_);
    }
  }
  return max_;  // unreachable: ranks are clamped to the recorded count
}

}  // namespace rhw::serve
