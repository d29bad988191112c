// attack_sweep: the paper's workload. A SweepEngine::run grid at
// bench_lanes() lanes over a model quick-trained during set-up — gradient
// crafting (conv forward plus per-sample backward GEMMs), the lane
// scheduler, the noise hooks and the smoothing votes.
//
// latency_ms is the mean wall time of one SweepEngine::run (sweep_s) over
// the least-stolen sweeps and throughput_per_s the adversarial cells
// evaluated per second. The mean, not the median: a sweep's wall time is
// bimodal (it depends on which lane is left finishing the costly Smooth
// cells at the end of the grid), and the median of a few samples of a
// bimodal time jumps between the two modes.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "models/zoo.hpp"

namespace rhw::perf {

namespace {

constexpr int64_t kEvalImages = 16;

// Wall time of one SweepEngine::run and the steal while it ran.
Sample run_sweep(const exp::SweepGrid& grid, unsigned lanes,
                 exp::SweepResult* out = nullptr) {
  exp::SweepOptions sopts;
  sopts.threads = lanes;
  exp::SweepEngine engine(sopts);
  const StealMeter steal;
  const auto t0 = Clock::now();
  exp::SweepResult result = engine.run(grid);
  const double s = seconds_since(t0);
  if (out != nullptr) *out = std::move(result);
  return {s, steal.pct()};
}

// Failed cells of one sweep: non-finite or out-of-range numbers, drift from
// the run's first sweep of the same grid, an ideal clean accuracy off the
// serial reference by more than one image, or a white-box attack that raised
// accuracy by more than three images.
uint64_t check_sweep(const exp::SweepResult& r, const exp::SweepResult& first,
                     double reference_clean, std::string& why) {
  const double image = 100.0 / static_cast<double>(kEvalImages);
  uint64_t failed = 0;
  for (size_t i = 0; i < r.cells.size(); ++i) {
    const exp::SweepCell& c = r.cells[i];
    const exp::SweepCell& f = first.cells.at(i);
    const bool attack_sw = r.mode_labels[c.mode] == "Attack-SW";
    std::string bad;
    if (!std::isfinite(c.clean_acc) || !std::isfinite(c.adv_acc) ||
        !std::isfinite(c.cert_radius) || c.clean_acc < 0 ||
        c.clean_acc > 100 || c.adv_acc < 0 || c.adv_acc > 100 ||
        c.cert_radius < 0) {
      bad = "non-finite or out-of-range value";
    } else if (std::abs(c.clean_acc - f.clean_acc) > 1e-9 ||
               std::abs(c.adv_acc - f.adv_acc) > 1e-9 ||
               std::abs(c.cert_radius - f.cert_radius) > 1e-9) {
      bad = "differs from the first sweep of this run";
    } else if (attack_sw &&
               std::abs(c.clean_acc - reference_clean) > image + 1e-9) {
      bad = "clean accuracy off the serial reference";
    } else if (attack_sw && c.epsilon > 0 &&
               c.adv_acc > c.clean_acc + 3 * image + 1e-9) {
      bad = "attack raised accuracy";
    }
    if (bad.empty()) continue;
    if (failed++ == 0) {
      why = "cell " + std::to_string(c.index) + " (" +
            r.mode_labels[c.mode] + ", " + r.attack_specs[c.attack] +
            "): " + bad;
    }
  }
  return failed;
}

}  // namespace

void run_attack_sweep(const Options& opts, Report& report) {
  const unsigned lanes = bench_lanes();
  Trained t =
      timed_setup(opts, report, [&] { return quick_trained(opts.seed); });
  check_quick_training(t, report);
  const data::Dataset eval = t.data.test.head(kEvalImages);
  const exp::SweepGrid grid = sweep_grid(t, eval, opts.seed);

  if (opts.trace) {
    trace_op(report, [&] { run_sweep(grid, lanes); });
    ProbeContext ctx;
    ctx.opts = &opts;
    ctx.trained = &t;
    ctx.batch = grid.base.batch_size;
    run_probes(ctx, report);
    return;
  }

  // Serial reference for the ideal arm's clean accuracy.
  models::Model reference = models::clone_model(t.model, kWidth, kInSize);
  const double reference_clean =
      100.0 *
      models::evaluate_accuracy(*reference.net, eval, grid.base.batch_size);

  exp::SweepResult first;
  std::vector<Sample> times;
  uint64_t attempted = 0, failed = 0;
  std::string why;
  const auto start = Clock::now();
  do {
    exp::SweepResult result;
    times.push_back(run_sweep(grid, lanes, &result));
    if (first.cells.empty()) first = result;
    attempted += result.cells.size();
    failed += check_sweep(result, first, reference_clean, why);
  } while (seconds_since(start) < opts.seconds);
  report.ops("sweep cells", attempted, failed, why);

  uint64_t adversarial = 0;
  for (const exp::SweepCell& c : first.cells) adversarial += c.epsilon > 0;
  const auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return total / static_cast<double>(v.size());
  };
  const std::vector<double> kept = least_stolen(times);
  const std::vector<double> all = values(times);
  const double sweep_s = mean(kept);
  report.detail("sweep_s", sweep_s, "s");
  report.detail("sweep_s_all", mean(all), "s");
  report.detail("sweep_s_min", *std::min_element(all.begin(), all.end()), "s");
  report.detail("sweep_s_max", *std::max_element(all.begin(), all.end()), "s");
  report.detail("sweeps", static_cast<double>(times.size()), "count");
  report.detail("sweeps_kept", static_cast<double>(kept.size()), "count");
  report.detail("cells_per_sweep", static_cast<double>(first.cells.size()),
                "count");
  report.metric("latency_ms", sweep_s * 1e3, "ms");
  report.metric("throughput_per_s", static_cast<double>(adversarial) / sweep_s,
                "1/s");
}

}  // namespace rhw::perf
