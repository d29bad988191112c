// The rhw_perf workloads and the pieces they share.
//
// Every workload uses the small VGG-8 (width 0.125, 16x16 inputs) on a tiny
// synthetic 10-class dataset generated from the run's --seed. A workload
// sets up several times (setup_s is the median), then repeats its unit of
// work for --seconds and reports the median, checking every output it
// produces. With --trace 1 it instead runs the traced per-layer profile
// (profile.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/synth_cifar.hpp"
#include "exp/sweep.hpp"
#include "measure.hpp"
#include "models/vgg.hpp"
#include "models/zoo.hpp"
#include "serve/server.hpp"

namespace rhw::perf {

inline constexpr const char* kArch = "vgg8";
inline constexpr float kWidth = 0.125f;
inline constexpr int64_t kInSize = 16;
inline constexpr int64_t kClasses = 10;
inline constexpr const char* kSramSpec = "sram:sites=2,num_8t=4,vdd=0.64";
inline constexpr size_t kSetupReps = 3;
inline constexpr size_t kMaxSetupReps = 200;
// A set-up of a few milliseconds runs in phases 30% apart on a shared host;
// sampling it over this long covers many of them.
inline constexpr double kSetupSeconds = 2.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// min(4, hardware threads): the lane count of sweeps and servers.
unsigned bench_lanes();

// "synth_cifar:classes=10,train=40,test=10,size=16,seed=<derived>": the
// tiny dataset geometry (400 train, 100 test images) with its generator
// seed taken from the run seed.
std::string dataset_spec(uint64_t seed);

// Dataset plus a model quick-trained on it (attack_sweep and serve set-up),
// and the config that trained it.
struct Trained {
  data::SynthCifar data;
  models::Model model;
  models::TrainConfig cfg;
};
Trained quick_trained(uint64_t seed);

// Output check of a models::train_model run under `cfg`: every weight is
// finite and the training loss (the objective SGD minimizes, batch
// statistics in batch norm) fell below that of the initial state train_model
// started from. Held-out loss in inference mode is no check after a few
// steps: the running statistics have not settled, and for some seeds it
// rises although training worked. Returns an empty string on success, else
// what failed.
std::string check_training(models::Model& model, const data::SynthCifar& data,
                           const models::TrainConfig& cfg);

// SGD steps one train_model call under `cfg` takes on `data`.
int64_t training_steps(const data::SynthCifar& data,
                       const models::TrainConfig& cfg);

// Reports the quick training's steps as operations, all failed when
// check_training fails: attacks and latencies on a diverged model prove
// nothing.
void check_quick_training(Trained& t, Report& report);

// The attack_sweep grid over `t`'s model: four arms (ideal, SRAM, crossbar,
// ideal + randomized smoothing), five attack modes (Attack-SW, SH-sram,
// SH-xbar, HH-xbar, Smooth) and five attacks (an fgsm epsilon grid, pgd,
// eot_pgd, square and mifgsm), in the presets' order. The exp probe reuses
// it on a smaller eval set.
exp::SweepGrid sweep_grid(const Trained& t, const data::Dataset& eval,
                          uint64_t seed);

// Runs `setup` at least kSetupReps times and until kSetupSeconds have passed
// (so a cheap set-up is sampled often enough for a steady median), reports
// the median over the least-stolen set-ups as setup_s and returns the last
// product. The traced run sets up once and reports no setup_s.
template <typename F>
auto timed_setup(const Options& opts, Report& report, F&& setup) {
  std::vector<Sample> times;
  const auto start = Clock::now();
  const StealMeter steal;
  auto product = setup();
  times.push_back({seconds_since(start), steal.pct()});
  if (opts.trace) return product;
  while (times.size() < kSetupReps ||
         (seconds_since(start) < kSetupSeconds &&
          times.size() < kMaxSetupReps)) {
    const StealMeter rep_steal;
    const auto t0 = Clock::now();
    product = setup();
    times.push_back({seconds_since(t0), rep_steal.pct()});
  }
  report.detail("setup_s_all", median(values(times)), "s");
  report.metric("setup_s", median(least_stolen(times)), "s");
  return product;
}

// -- serving ------------------------------------------------------------------

// The served arm ("ideal": one fused batched forward per micro-batch) and
// its serving knobs.
serve::ServeArm serve_arm();
inline constexpr int64_t kBatchMax = 16;
inline constexpr int64_t kLingerUs = 2000;
inline constexpr double kFixedQps = 1000.0;  // the fixed low offered rate
// Requests per load point (>= 10 beyond p99). Every point serves the same
// request stream, so an arm's points must agree bit for bit.
inline constexpr int64_t kPointRequests = 1000;
inline constexpr double kP99LimitMs = 50.0;

// bench_lanes() lanes, kBatchMax, kLingerUs, per-request seeds from `seed`.
serve::ServerConfig server_config(uint64_t seed);

// Each image of `ds` as one [1, C, H, W] request; request id i sends image
// i % size.
std::vector<Tensor> request_images(const data::Dataset& ds);

// One open-loop load point: a LoadGen Poisson schedule replayed from this
// thread against a fresh Server. Every request is timed from its due time:
// (submit - due) + Reply::latency_us.
struct ServePoint {
  double offered_qps = 0.0;   // schedule's own rate, (n - 1) / span
  double achieved_qps = 0.0;  // n / (last completion - first due)
  // One entry per reply, in id order (a lost request has none).
  std::vector<serve::Reply> replies;
  std::vector<double> latency_us;
  std::vector<double> late_us;  // generator lateness, submit - due
};
ServePoint serve_point(const models::Model& model, const serve::ServeArm& arm,
                       const std::vector<Tensor>& inputs, double qps,
                       int64_t requests, uint64_t seed);

// -- workloads ----------------------------------------------------------------

void run_attack_sweep(const Options& opts, Report& report);
void run_serve(const Options& opts, Report& report);
void run_train(const Options& opts, Report& report);

// The per-layer probes every traced run ends with, at the workload's batch
// size: nn, models, data, hw, attacks, defenses, exp and serve.
struct ProbeContext {
  const Options* opts = nullptr;
  const Trained* trained = nullptr;
  int64_t batch = 32;      // nn/hw/attack probe batch
  bool training = false;   // nn layers timed in training mode (train)
};
void run_probes(const ProbeContext& ctx, Report& report);

// The traced run's kernel counters and overhead: `op` runs in blocks of
// traced, untraced, untraced, traced (under a TracingEngine) for about ten
// seconds; core.* metrics are per traced op and trace.overhead_pct compares
// the total traced and untraced times.
void trace_op(Report& report, const std::function<void()>& op);

}  // namespace rhw::perf
