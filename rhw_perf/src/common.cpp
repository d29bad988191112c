#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "core/rng.hpp"
#include "data/registry.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "serve/loadgen.hpp"

namespace rhw::perf {

namespace {

// Sub-streams of the run seed.
constexpr uint64_t kDataStream = 0xDA7A;
constexpr uint64_t kTrainStream = 0x7EA1;
constexpr uint64_t kSweepStream = 0x5EE9;

// Generator lateness below this is made up by spinning instead of sleeping,
// which overshoots by tens of microseconds.
constexpr auto kSpinWindow = std::chrono::microseconds(200);

}  // namespace

unsigned bench_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

std::string dataset_spec(uint64_t seed) {
  return "synth_cifar:classes=" + std::to_string(kClasses) +
         ",train=40,test=10,size=" + std::to_string(kInSize) +
         ",seed=" + std::to_string(derive_stream_seed(seed, kDataStream));
}

Trained quick_trained(uint64_t seed) {
  Trained t;
  t.data = data::make_dataset_provider(dataset_spec(seed))->load();
  t.model = models::build_model(kArch, kClasses, kWidth, kInSize);
  t.cfg.epochs = 2;
  t.cfg.batch_size = 100;
  t.cfg.seed = derive_stream_seed(seed, kTrainStream);
  models::train_model(t.model, t.data, t.cfg);
  t.model.net->set_training(false);
  return t;
}

namespace {

// The loss train_model minimizes: cross-entropy on the training set with
// batch statistics in the batch-norm layers. Taken on a clone, because a
// training-mode forward updates the running statistics.
double training_loss(const models::Model& model, const data::Dataset& train) {
  models::Model m = models::clone_model(model, kWidth, kInSize);
  m.net->set_training(true);
  nn::SoftmaxCrossEntropy loss;
  return loss.forward(m.net->forward(train.images), train.labels);
}

}  // namespace

std::string check_training(models::Model& model, const data::SynthCifar& data,
                           const models::TrainConfig& cfg) {
  for (nn::Param* p : model.net->parameters()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      if (!std::isfinite(p->value.data()[i])) return "non-finite weights";
    }
  }
  // train_model starts from kaiming_init under its config seed.
  models::Model initial = models::build_model(kArch, kClasses, kWidth, kInSize);
  RandomEngine rng(cfg.seed);
  nn::kaiming_init(*initial.net, rng);
  if (!(training_loss(model, data.train) <
        training_loss(initial, data.train))) {
    return "training loss did not drop below the initial state's";
  }
  return "";
}

void check_quick_training(Trained& t, Report& report) {
  const std::string bad = check_training(t.model, t.data, t.cfg);
  const auto steps = static_cast<uint64_t>(training_steps(t.data, t.cfg));
  report.ops("quick-training steps", steps, bad.empty() ? 0 : steps, bad);
}

int64_t training_steps(const data::SynthCifar& data,
                       const models::TrainConfig& cfg) {
  return cfg.epochs *
         ((data.train.size() + cfg.batch_size - 1) / cfg.batch_size);
}

exp::SweepGrid sweep_grid(const Trained& t, const data::Dataset& eval,
                          uint64_t seed) {
  exp::SweepGrid g;
  g.model = &t.model;
  g.width_mult = kWidth;
  g.in_size = kInSize;
  g.eval_set = &eval;
  g.train_data = &t.data;
  g.backends = {{"ideal", "ideal"},
                {"sram", kSramSpec},
                {"xbar", "xbar:size=16"},
                {"smooth", "ideal", "smooth:sigma=0.25,samples=8"}};
  // The presets' order: the software baseline first, smoothing last, fgsm
  // first among the attacks.
  g.modes = {{"Attack-SW", "ideal", "ideal"},
             {"SH-sram", "ideal", "sram"},
             {"SH-xbar", "ideal", "xbar"},
             {"HH-xbar", "xbar", "xbar"},
             {"Smooth", "ideal", "smooth"}};
  g.attacks = {{"fgsm", {0.f, 0.05f, 0.1f, 0.2f}},
               {"pgd", {8.f / 255.f}},
               {"eot_pgd:steps=2,samples=2", {8.f / 255.f}},
               {"square:queries=16", {0.1f}},
               {"mifgsm:steps=2", {0.1f}}};
  g.base.batch_size = 32;
  g.base.seed = derive_stream_seed(seed, kSweepStream);
  return g;
}

serve::ServeArm serve_arm() {
  serve::ServeArm arm;
  arm.key = "ideal";
  arm.hw = "ideal";
  return arm;
}

serve::ServerConfig server_config(uint64_t seed) {
  serve::ServerConfig cfg;
  cfg.lanes = bench_lanes();
  cfg.batch_max = kBatchMax;
  cfg.linger_us = kLingerUs;
  cfg.seed = seed;
  return cfg;
}

std::vector<Tensor> request_images(const data::Dataset& ds) {
  std::vector<Tensor> out;
  for (int64_t i = 0; i < ds.size(); ++i) {
    out.push_back(ds.slice(i, i + 1).images);
  }
  return out;
}

ServePoint serve_point(const models::Model& model, const serve::ServeArm& arm,
                       const std::vector<Tensor>& inputs, double qps,
                       int64_t requests, uint64_t seed) {
  serve::Server server(model, kWidth, kInSize, arm, server_config(seed));
  server.start();

  const serve::LoadGen gen({{serve::RampStage{qps, requests}}, seed});
  const std::vector<serve::Arrival> arrivals = gen.schedule();
  std::vector<double> submit_us(arrivals.size());
  const auto t0 = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const auto due = t0 + std::chrono::microseconds(arrivals[i].time_us);
    if (due - Clock::now() > kSpinWindow) {
      std::this_thread::sleep_until(due - kSpinWindow);
    }
    while (Clock::now() < due) {
    }
    submit_us[i] = seconds_since(t0) * 1e6;
    server.submit(inputs[arrivals[i].id % inputs.size()]);
  }
  server.shutdown();

  ServePoint pt;
  pt.replies = server.replies();
  const double first_due = static_cast<double>(arrivals.front().time_us);
  const double span =
      static_cast<double>(arrivals.back().time_us) - first_due;
  pt.offered_qps = span > 0 ? static_cast<double>(arrivals.size() - 1) /
                                  (span * 1e-6)
                            : qps;
  double last_done = first_due;
  for (const serve::Reply& r : pt.replies) {
    const size_t id = static_cast<size_t>(r.id);
    const double due = static_cast<double>(arrivals[id].time_us);
    const double late = submit_us[id] - due;
    pt.late_us.push_back(late);
    pt.latency_us.push_back(late + static_cast<double>(r.latency_us));
    last_done = std::max(last_done, submit_us[id] +
                                        static_cast<double>(r.latency_us));
  }
  pt.achieved_qps = last_done > first_due
                        ? static_cast<double>(pt.replies.size()) /
                              ((last_done - first_due) * 1e-6)
                        : 0.0;
  return pt;
}

}  // namespace rhw::perf
