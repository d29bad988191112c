// serve_open_loop: serve::Server over the ideal arm (one fused batched
// forward per micro-batch) driven open loop by LoadGen Poisson arrivals
// replayed from one generator thread, at bench_lanes() lanes, batch_max 16,
// linger 2000 us. Forward-only: no backward pass and no sweep scheduler, so
// per-call overheads (packing, im2col) dominate.
//
// One round is a geometric rate ladder on a fixed lattice of 2.5% steps
// around the fixed low rate. Every round checks the fixed rate (level 0) and
// then bisects the lattice between it and a fixed ceiling level for the
// highest passing rate, or, when the fixed rate fails, between it and a
// floor level. A point passes when every request is correct, the p99
// latency (timed from each request's due time) is within kP99LimitMs and the
// achieved rate keeps up with 0.95 x offered, in either of two tries.
// max_qps is the rate achieved at the highest passing point.
//
// latency_ms is the median, over the least-stolen fixed-rate points, of each
// point's p50 request latency; throughput_per_s is the median max_qps over
// the least-stolen rounds.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "core/rng.hpp"
#include "hw/registry.hpp"
#include "models/zoo.hpp"

namespace rhw::perf {

namespace {

constexpr uint64_t kServeStream = 0x5E7E;
constexpr size_t kReferenceIds = 64;  // ids checked against a serial forward
constexpr double kLatticeStep = 1.025;
// Highest lattice level tried: kFixedQps * 1.025^95, about 10.4k requests/s.
constexpr int kCeilingLevel = 95;
// Lowest: kFixedQps * 1.025^-28, about 500 requests/s.
constexpr int kFloorLevel = -28;

struct Expected {
  int64_t predicted = -1;
  float score = 0.f;
};

// What request `id` must return: its image through the arm's backend,
// prepared on a clone, one image at a time.
std::vector<Expected> serial_reference(const models::Model& model,
                                       const serve::ServeArm& arm,
                                       const std::vector<Tensor>& inputs) {
  models::Model clone = models::clone_model(model, kWidth, kInSize);
  hw::BackendPtr backend = hw::make_backend(arm.hw);
  backend->prepare(clone);
  std::vector<Expected> out;
  for (size_t id = 0; id < kReferenceIds; ++id) {
    const Tensor logits = backend->forward(inputs[id % inputs.size()]);
    Expected e;
    e.predicted = logits.argmax_rows()[0];
    e.score = logits.data()[e.predicted];
    out.push_back(e);
  }
  return out;
}

// Same class, and the same top logit within 1e-3 relative: engines may
// order a dot product's float additions differently.
bool matches(const serve::Reply& r, const Expected& e) {
  const float tolerance = 1e-3f * std::max(1.f, std::abs(e.score));
  return r.predicted == e.predicted && std::abs(r.score - e.score) <= tolerance;
}

uint64_t score_bits(float score) {
  uint32_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

// Checks every request of one load point. Ids below kReferenceIds must match
// the serial reference within tolerance, and all replies must match the
// arm's first point bit for bit (the one-digest-per-arm rule: batching and
// timing must never leak into results).
class PointChecker {
 public:
  explicit PointChecker(std::vector<Expected> reference)
      : reference_(std::move(reference)) {}

  uint64_t check(const ServePoint& pt, int64_t requests) {
    uint64_t failed = static_cast<uint64_t>(requests) - pt.replies.size();
    if (failed > 0) note("requests lost");
    uint64_t digest = 0;
    for (const serve::Reply& r : pt.replies) {
      digest ^= derive_stream_seed(
          derive_stream_seed(r.id, static_cast<uint64_t>(r.predicted) + 1),
          score_bits(r.score));
    }
    if (baseline_.empty()) {
      baseline_ = pt.replies;
      digest_ = digest;
    }
    for (const serve::Reply& r : pt.replies) {
      std::string bad;
      if (!std::isfinite(r.score)) {
        bad = "non-finite score";
      } else if (r.id < reference_.size() &&
                 !matches(r, reference_[r.id])) {
        bad = "differs from the serial reference";
      } else if (digest != digest_ &&
                 (r.id >= baseline_.size() ||
                  r.predicted != baseline_[r.id].predicted ||
                  score_bits(r.score) != score_bits(baseline_[r.id].score))) {
        bad = "digest drifted from the arm's first load point";
      }
      if (bad.empty()) continue;
      ++failed;
      note("request " + std::to_string(r.id) + ": " + bad);
    }
    return failed;
  }

  uint64_t digest() const { return digest_; }
  const std::string& first_failure() const { return why_; }

 private:
  void note(const std::string& why) {
    if (why_.empty()) why_ = why;
  }

  std::vector<Expected> reference_;
  std::vector<serve::Reply> baseline_;
  uint64_t digest_ = 0;
  std::string why_;
};

// Serves a burst of kPointRequests requests submitted at once, until the
// queue drains: the traced run's unit of serving work.
void serve_burst(const models::Model& model, const serve::ServeArm& arm,
                 const std::vector<Tensor>& inputs, uint64_t seed) {
  serve::Server server(model, kWidth, kInSize, arm, server_config(seed));
  server.start();
  for (int64_t i = 0; i < kPointRequests; ++i) {
    server.submit(inputs[static_cast<size_t>(i) % inputs.size()]);
  }
  server.shutdown();
}

}  // namespace

void run_serve(const Options& opts, Report& report) {
  const serve::ServeArm arm = serve_arm();
  const uint64_t seed = derive_stream_seed(opts.seed, kServeStream);
  // Set-up: data, quick training, and one server start (lane replicas).
  Trained t = timed_setup(opts, report, [&] {
    Trained tr = quick_trained(opts.seed);
    serve::Server server(tr.model, kWidth, kInSize, arm, server_config(seed));
    server.start();
    server.shutdown();
    return tr;
  });
  check_quick_training(t, report);
  const std::vector<Tensor> inputs = request_images(t.data.test);

  if (opts.trace) {
    trace_op(report, [&] { serve_burst(t.model, arm, inputs, seed); });
    ProbeContext ctx;
    ctx.opts = &opts;
    ctx.trained = &t;
    ctx.batch = kBatchMax;
    run_probes(ctx, report);
    return;
  }

  PointChecker checker(serial_reference(t.model, arm, inputs));
  std::vector<double> fixed_latency_us, late_us;
  // Per fixed-rate point its p50 latency, per round its max_qps.
  std::vector<Sample> fixed_p50_us, max_qps;
  uint64_t attempted = 0, failed = 0, points = 0;
  const auto start = Clock::now();
  do {
    const StealMeter round_steal;
    // Rates are kFixedQps * kLatticeStep^level; level 0 is the fixed rate.
    double best_achieved = 0.0;
    // A level fails only when a retry fails too: a stall of a few
    // milliseconds on a shared host must not end the ladder.
    auto passes = [&](int level) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const double rate = kFixedQps * std::pow(kLatticeStep, level);
        const StealMeter steal;
        const ServePoint pt =
            serve_point(t.model, arm, inputs, rate, kPointRequests, seed);
        const double point_steal = steal.pct();
        const uint64_t bad = checker.check(pt, kPointRequests);
        attempted += kPointRequests;
        failed += bad;
        ++points;
        late_us.insert(late_us.end(), pt.late_us.begin(), pt.late_us.end());
        if (level == 0) {
          fixed_latency_us.insert(fixed_latency_us.end(),
                                  pt.latency_us.begin(), pt.latency_us.end());
          fixed_p50_us.push_back(
              {nearest_rank(pt.latency_us, 50.0).value, point_steal});
        }
        if (bad == 0 &&
            nearest_rank(pt.latency_us, 99.0).value <= kP99LimitMs * 1e3 &&
            pt.achieved_qps >= 0.95 * pt.offered_qps) {
          best_achieved = pt.achieved_qps;
          return true;
        }
      }
      return false;
    };
    // Bisection between the highest passing level and the lowest failing
    // one (the level above the ceiling counts as failing, the one below the
    // floor as passing; neither is run).
    int pass = kFloorLevel - 1, fail = 0;
    if (passes(0)) {
      pass = 0;
      fail = kCeilingLevel + 1;
    }
    while (fail - pass > 1) {
      const int mid = (pass + fail) / 2;
      (passes(mid) ? pass : fail) = mid;
    }
    max_qps.push_back({best_achieved, round_steal.pct()});
  } while (seconds_since(start) < opts.seconds);
  report.ops("serve requests", attempted, failed, checker.first_failure());

  const std::string prefix = "fused.";
  const double p50_ms = median(least_stolen(fixed_p50_us)) * 1e-3;
  const double qps = median(least_stolen(max_qps));
  // Over every fixed-rate request of the run, stolen or not.
  const Percentile p50 = nearest_rank(fixed_latency_us, 50.0);
  const Percentile p99 = nearest_rank(fixed_latency_us, 99.0);
  const Percentile late99 = nearest_rank(late_us, 99.0);
  report.detail(prefix + "p50_ms", p50_ms, "ms");
  report.detail(prefix + "p50_ms_all", p50.value * 1e-3, "ms");
  report.detail(prefix + "p50_beyond", static_cast<double>(p50.beyond),
                "count");
  report.detail(prefix + "p99_ms", p99.value * 1e-3, "ms");
  report.detail(prefix + "p99_beyond", static_cast<double>(p99.beyond),
                "count");
  report.detail(prefix + "fixed_rate_requests", static_cast<double>(p99.n),
                "count");
  report.detail(prefix + "max_qps", qps, "1/s");
  report.detail(prefix + "max_qps_all", median(values(max_qps)), "1/s");
  report.detail(prefix + "ladders", static_cast<double>(max_qps.size()),
                "count");
  report.detail(prefix + "ladders_kept",
                static_cast<double>(least_stolen(max_qps).size()), "count");
  report.detail(prefix + "load_points", static_cast<double>(points), "count");
  report.detail("loadgen.late_p99_us", late99.value, "us");
  std::printf("detail %-36s = %016llx\n", (prefix + "digest").c_str(),
              static_cast<unsigned long long>(checker.digest()));
  report.metric("latency_ms", p50_ms, "ms");
  report.metric("throughput_per_s", qps, "1/s");
}

}  // namespace rhw::perf
