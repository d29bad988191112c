// train: models::train_model called repeatedly from the same initial state
// (train_model re-initializes the weights from its config seed), 400 images
// for 4 epochs per call. The only workload whose backward needs dW and whose
// weights change every step; hw, attacks and exp are absent.
//
// latency_ms is the median wall time of one train_model call over the
// least-stolen calls and throughput_per_s the images it trains per second
// (train_images_per_s).
#include <cmath>

#include "bench.hpp"
#include "core/rng.hpp"
#include "data/registry.hpp"
#include "models/zoo.hpp"

namespace rhw::perf {

namespace {

constexpr uint64_t kTrainCallStream = 0x7CA1;
constexpr int kEpochs = 4;
constexpr int64_t kBatch = 100;

struct Setup {
  data::SynthCifar data;
  models::Model model;
};

}  // namespace

void run_train(const Options& opts, Report& report) {
  const std::string spec = dataset_spec(opts.seed);
  Setup s = timed_setup(opts, report, [&] {
    Setup out;
    out.data = data::make_dataset_provider(spec)->load();
    out.model = models::build_model(kArch, kClasses, kWidth, kInSize);
    return out;
  });
  models::TrainConfig cfg;
  cfg.epochs = kEpochs;
  cfg.batch_size = kBatch;
  cfg.seed = derive_stream_seed(opts.seed, kTrainCallStream);
  const int64_t images = s.data.train.size() * kEpochs;
  const int64_t steps = training_steps(s.data, cfg);

  if (opts.trace) {
    trace_op(report, [&] { models::train_model(s.model, s.data, cfg); });
    Trained t;
    t.data = s.data;
    t.model = models::clone_model(s.model, kWidth, kInSize);
    ProbeContext ctx;
    ctx.opts = &opts;
    ctx.trained = &t;
    ctx.batch = kBatch;
    ctx.training = true;
    run_probes(ctx, report);
    return;
  }

  std::vector<Sample> times;
  uint64_t attempted = 0, failed = 0;
  std::string why;
  const auto start = Clock::now();
  do {
    const StealMeter steal;
    const auto t0 = Clock::now();
    const double acc = models::train_model(s.model, s.data, cfg);
    times.push_back({seconds_since(t0), steal.pct()});
    attempted += static_cast<uint64_t>(steps);
    const std::string bad = std::isfinite(acc) && acc >= 0 && acc <= 1
                                ? check_training(s.model, s.data, cfg)
                                : "accuracy out of range";
    if (bad.empty()) continue;
    failed += static_cast<uint64_t>(steps);
    if (why.empty()) why = "call " + std::to_string(times.size()) + ": " + bad;
  } while (seconds_since(start) < opts.seconds);
  report.ops("training steps", attempted, failed, why);

  const double call_s = median(least_stolen(times));
  report.detail("train_calls", static_cast<double>(times.size()), "count");
  report.detail("train_calls_kept",
                static_cast<double>(least_stolen(times).size()), "count");
  report.detail("latency_ms_all", median(values(times)) * 1e3, "ms");
  report.detail("train_images_per_s", static_cast<double>(images) / call_s,
                "1/s");
  report.metric("latency_ms", call_s * 1e3, "ms");
  report.metric("throughput_per_s", static_cast<double>(images) / call_s,
                "1/s");
}

}  // namespace rhw::perf
