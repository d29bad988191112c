#include "serve/loadgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "serve/latency.hpp"

namespace rhw::serve {
namespace {

// -- LoadGen: deterministic open-loop Poisson schedules -----------------------

TEST(LoadGen, ScheduleIsBitIdenticalPerSeed) {
  const LoadGenConfig config{{{500.0, 400}, {2000.0, 400}}, 0x1234};
  const std::vector<Arrival> a = LoadGen(config).schedule();
  const std::vector<Arrival> b = LoadGen(config).schedule();
  ASSERT_EQ(a.size(), 800u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].time_us, b[i].time_us) << "arrival " << i;
    EXPECT_EQ(a[i].stage, b[i].stage);
  }

  // A different seed reshuffles the gaps (same shape, different times).
  const std::vector<Arrival> c =
      LoadGen({{{500.0, 400}, {2000.0, 400}}, 0x1235}).schedule();
  ASSERT_EQ(c.size(), a.size());
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_us != c[i].time_us) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(LoadGen, IdsSequentialTimesNondecreasingStagesLabeled) {
  const std::vector<Arrival> schedule =
      LoadGen({{{1000.0, 50}, {4000.0, 70}}, 0xADE5}).schedule();
  ASSERT_EQ(schedule.size(), 120u);
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].id, i);
    EXPECT_EQ(schedule[i].stage, i < 50 ? 0u : 1u);
    if (i > 0) {
      EXPECT_GE(schedule[i].time_us, schedule[i - 1].time_us);
    }
  }
}

// Editing a later ramp stage never perturbs an earlier one: each stage draws
// from its own derived stream, so schedule([A]) is a prefix of
// schedule([A, B]) bit-for-bit.
TEST(LoadGen, StagePrefixProperty) {
  const RampStage a{800.0, 120};
  const RampStage b{3200.0, 60};
  const std::vector<Arrival> solo = LoadGen({{a}, 0xADE5}).schedule();
  const std::vector<Arrival> ramp = LoadGen({{a, b}, 0xADE5}).schedule();
  ASSERT_EQ(solo.size(), 120u);
  ASSERT_EQ(ramp.size(), 180u);
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(ramp[i].time_us, solo[i].time_us) << "arrival " << i;
  }
  // And the second stage continues from where the first ended.
  EXPECT_GE(ramp[120].time_us, solo.back().time_us);
}

// The empirical rate of each stage hits its configured QPS within sampling
// tolerance, in virtual time (no clock anywhere). With n exponential gaps the
// relative standard error of the mean gap is 1/sqrt(n), so 5k samples leave
// ~1.4% noise; 10% tolerance is comfortably outside it.
TEST(LoadGen, RampHitsConfiguredQpsInVirtualTime) {
  const std::vector<RampStage> stages{{200.0, 5000}, {1000.0, 5000}};
  const std::vector<Arrival> schedule = LoadGen({stages, 0xADE5}).schedule();
  size_t begin = 0;
  for (size_t s = 0; s < stages.size(); ++s) {
    const size_t end = begin + static_cast<size_t>(stages[s].requests);
    const uint64_t t_begin = begin == 0 ? 0 : schedule[begin - 1].time_us;
    const uint64_t t_end = schedule[end - 1].time_us;
    const double span_s = static_cast<double>(t_end - t_begin) * 1e-6;
    ASSERT_GT(span_s, 0.0);
    const double achieved =
        static_cast<double>(stages[s].requests) / span_s;
    EXPECT_NEAR(achieved, stages[s].qps, 0.10 * stages[s].qps)
        << "stage " << s;
    begin = end;
  }
}

TEST(LoadGen, DurationMatchesLastArrival) {
  const LoadGen gen({{{1500.0, 64}}, 7});
  EXPECT_EQ(gen.duration_us(), gen.schedule().back().time_us);
}

TEST(LoadGen, DegenerateConfigsThrowNamingTheStage) {
  EXPECT_THROW(LoadGen({{}, 0}), std::invalid_argument);
  try {
    LoadGen({{{100.0, 10}, {0.0, 10}}, 0});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find('1'), std::string::npos)
        << "error should name stage 1: " << e.what();
  }
  EXPECT_THROW(LoadGen({{{-5.0, 10}}, 0}), std::invalid_argument);
  EXPECT_THROW(LoadGen({{{100.0, 0}}, 0}), std::invalid_argument);
}

// -- LatencyHistogram: streaming quantiles vs exact sorted quantiles ----------

uint64_t exact_percentile(std::vector<uint64_t> values, double p) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

TEST(LatencyHistogram, ExactBelowThirtyTwoMicroseconds) {
  LatencyHistogram hist;
  std::vector<uint64_t> values;
  RandomEngine rng(derive_stream_seed(0xADE5, 1));
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.next_u64() % 32;
    hist.record(v);
    values.push_back(v);
  }
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(hist.percentile(p), exact_percentile(values, p)) << "p" << p;
  }
  EXPECT_EQ(hist.max(), *std::max_element(values.begin(), values.end()));
  EXPECT_EQ(hist.count(), 2000u);
}

// Above the exact range the estimate is the midpoint of a bucket whose width
// is 2^-kSubBits of its value, so the relative error is bounded by ~1.6%;
// assert within 4% against exact quantiles for two known distributions.
TEST(LatencyHistogram, TracksExactQuantilesOnKnownDistributions) {
  RandomEngine rng(derive_stream_seed(0xADE5, 2));

  // Uniform on [100, 100100) us.
  {
    LatencyHistogram hist;
    std::vector<uint64_t> values;
    for (int i = 0; i < 20000; ++i) {
      const uint64_t v = 100 + rng.next_u64() % 100000;
      hist.record(v);
      values.push_back(v);
    }
    for (const double p : {50.0, 95.0, 99.0}) {
      const double exact = static_cast<double>(exact_percentile(values, p));
      EXPECT_NEAR(static_cast<double>(hist.percentile(p)), exact, 0.04 * exact)
          << "uniform p" << p;
    }
  }

  // Exponential with mean 5000 us — the serving-latency shape.
  {
    LatencyHistogram hist;
    std::vector<uint64_t> values;
    for (int i = 0; i < 20000; ++i) {
      const auto v = static_cast<uint64_t>(
          std::llround(-std::log1p(-rng.next_double()) * 5000.0));
      hist.record(v);
      values.push_back(v);
    }
    for (const double p : {50.0, 95.0, 99.0}) {
      const double exact = static_cast<double>(exact_percentile(values, p));
      EXPECT_NEAR(static_cast<double>(hist.percentile(p)), exact,
                  0.04 * exact + 1.0)
          << "exponential p" << p;
    }
  }
}

TEST(LatencyHistogram, MeanIsExactAndEmptyReportsZero) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(50.0), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  LatencyHistogram hist;
  hist.record(10);
  hist.record(1000000);
  hist.record(40);
  EXPECT_DOUBLE_EQ(hist.mean(), (10.0 + 1000000.0 + 40.0) / 3.0);
  EXPECT_EQ(hist.max(), 1000000u);
}

// Regression: 2176..2239 is one 64-us bucket whose midpoint is 2207, so an
// unclamped estimate reported p99 = 2207 us above the recorded max of
// 2197 us (and, for a lone value, a percentile above every sample).
TEST(LatencyHistogram, PercentilesStayWithinObservedMinMax) {
  LatencyHistogram hist;
  for (const uint64_t v : {2180u, 2190u, 2197u}) hist.record(v);
  EXPECT_EQ(hist.min(), 2180u);
  EXPECT_EQ(hist.max(), 2197u);
  EXPECT_EQ(hist.percentile(99.0), 2197u);
  EXPECT_EQ(hist.percentile(100.0), 2197u);

  LatencyHistogram lone;
  lone.record(2180);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(lone.percentile(p), 2180u) << "p" << p;
  }

  // Broad data: every estimate lies inside [min, max].
  LatencyHistogram wide;
  RandomEngine rng(derive_stream_seed(0xADE5, 3));
  for (int i = 0; i < 5000; ++i) wide.record(1000 + rng.next_u64() % 50000);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_GE(wide.percentile(p), wide.min()) << "p" << p;
    EXPECT_LE(wide.percentile(p), wide.max()) << "p" << p;
  }
}

}  // namespace
}  // namespace rhw::serve
