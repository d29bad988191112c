// The traced run (--trace 1): kernel counters and tracing overhead over the
// workload's own unit of work, then one probe per layer at the workload's
// batch size. Every probe calls the layer's public functions from outside
// and times them on the monotonic clock. Which end-to-end figure each layer
// metric should move (sweep_s = attack_sweep latency_ms, train_images_per_s =
// train throughput_per_s, serve = serve_open_loop):
//
//   core.*                  sweep_s, train_images_per_s, serve max_qps
//   nn.*.bwd_ms             sweep_s and train_images_per_s, never serve
//   nn.*.fwd_ms, nn.hook.*  every workload
//   models.train.*          train_images_per_s; models.clone_ms: setup_s
//   data.load_s             setup_s
//   hw.*.prepare_s / replicate_s   setup_s; hw.*.forward_ms: serve, sweep_s
//   attacks.*, defenses.*, exp.*   sweep_s only
//   serve.*, loadgen.*      serve_open_loop only
#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/engine_registry.hpp"
#include "core/rng.hpp"
#include "data/registry.hpp"
#include "defenses/registry.hpp"
#include "hw/registry.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "trace.hpp"

namespace rhw::perf {

namespace {

constexpr uint64_t kProbeStream = 0x9A0B;
constexpr int kReps = 5;
constexpr double kOverheadSeconds = 10.0;
constexpr int kMaxOverheadBlocks = 16;

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

models::Model clone_of(const ProbeContext& ctx) {
  return models::clone_model(ctx.trained->model, kWidth, kInSize);
}

void report_kernel(Report& report, const std::string& name,
                   const KernelCounts& c, double ops, bool gemm) {
  report.metric(name + ".calls", static_cast<double>(c.calls) / ops, "count");
  report.metric(name + ".gflop", c.gflop / ops, "GFLOP");
  report.metric(name + ".busy_s", c.busy_s / ops, "s");
  report.metric(name + ".gflops", c.busy_s > 0 ? c.gflop / c.busy_s : 0.0,
                "GFLOP/s");
  if (gemm) {
    report.metric(name + ".small_frac",
                  c.calls > 0 ? static_cast<double>(c.small) /
                                    static_cast<double>(c.calls)
                              : 0.0,
                  "ratio");
  }
}

void probe_data_models(const ProbeContext& ctx, const data::Dataset& batch,
                       Report& report) {
  const std::string spec = dataset_spec(ctx.opts->seed);
  report.metric("data.load_s", median_ms(3, [&] {
                  (void)data::make_dataset_provider(spec)->load();
                }) * 1e-3,
                "s");
  report.metric("models.clone_ms",
                median_ms(20, [&] { (void)clone_of(ctx); }), "ms");

  // SGD steps as train_model takes them: forward, loss, backward, update.
  models::Model m = clone_of(ctx);
  m.net->set_training(true);
  nn::SGD opt(m.net->parameters(), nn::SgdConfig{});
  nn::SoftmaxCrossEntropy loss;
  std::vector<double> step_ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    opt.zero_grad();
    loss.forward(m.net->forward(batch.images), batch.labels);
    m.net->backward(loss.backward());
    opt.step();
    step_ms.push_back(seconds_since(t0) * 1e3);
  }
  report.metric("models.train.step_p50_ms", nearest_rank(step_ms, 50).value,
                "ms");
  report.metric("models.train.step_p90_ms", nearest_rank(step_ms, 90).value,
                "ms");
}

void probe_nn(const ProbeContext& ctx, const data::Dataset& batch,
              Report& report) {
  models::Model m = clone_of(ctx);
  const auto times = time_layers(*m.net, batch.images, ctx.training, kReps);
  for (const char* kind : {"conv", "bn", "pool", "relu", "linear"}) {
    const auto it = times.find(kind);
    const LayerTimes lt = it == times.end() ? LayerTimes{} : it->second;
    report.metric(std::string("nn.") + kind + ".fwd_ms", lt.fwd_ms, "ms");
    report.metric(std::string("nn.") + kind + ".bwd_ms", lt.bwd_ms, "ms");
  }
}

void probe_hw(const ProbeContext& ctx, const data::Dataset& batch,
              Report& report) {
  const std::vector<std::pair<std::string, std::string>> arms = {
      {"ideal", "ideal"}, {"sram", kSramSpec}, {"xbar", "xbar:size=16"}};
  for (const auto& [key, spec] : arms) {
    models::Model m = clone_of(ctx);
    hw::BackendPtr backend = hw::make_backend(spec);
    auto t0 = Clock::now();
    backend->prepare(m);
    report.metric("hw." + key + ".prepare_s", seconds_since(t0), "s");

    // What one more serving lane or sweep replica pays.
    t0 = Clock::now();
    models::Model lane = clone_of(ctx);
    hw::BackendPtr replica = backend->replicate();
    if (!replica) replica = hw::make_backend(spec);
    replica->prepare(lane);
    report.metric("hw." + key + ".replicate_s", seconds_since(t0), "s");

    const double fwd =
        median_ms(kReps, [&] { (void)backend->forward(batch.images); });
    report.metric("hw." + key + ".forward_ms", fwd, "ms");
    if (key == "sram") {
      const double unhooked = median_ms(kReps, [&] {
        nn::Module::HooksDisabledScope off;
        (void)backend->forward(batch.images);
      });
      report.metric("nn.hook.sram_ms", fwd - unhooked, "ms");
    }
  }
}

void probe_attacks(const ProbeContext& ctx, const exp::SweepGrid& grid,
                   const data::Dataset& batch, Report& report) {
  models::Model m = clone_of(ctx);
  CountingModule net(*m.net);
  net.set_training(false);
  for (const exp::SweepAttack& a : grid.attacks) {
    const std::string key = a.spec.substr(0, a.spec.find(':'));
    attacks::AttackPtr attack = attacks::make_attack(a.spec);
    attack->set_epsilon(a.epsilons.back());
    attacks::AttackContext actx;
    actx.grad_net = &net;
    actx.eval_net = &net;
    actx.seed = derive_stream_seed(ctx.opts->seed, kProbeStream);
    net.forwards = net.backwards = 0;
    const double ms = median_ms(3, [&] {
      (void)attack->perturb(actx, batch.images, batch.labels);
    });
    report.metric("attacks." + key + ".perturb_ms", ms, "ms");
    report.metric("attacks." + key + ".fwd_calls",
                  static_cast<double>(net.forwards) / 3, "count");
    report.metric("attacks." + key + ".bwd_calls",
                  static_cast<double>(net.backwards) / 3, "count");
  }
}

void probe_defenses(const ProbeContext& ctx, const data::Dataset& batch,
                    Report& report) {
  models::Model m = clone_of(ctx);
  hw::BackendPtr ideal = hw::make_backend("ideal");
  ideal->prepare(m);
  hw::BackendPtr smooth =
      defenses::make_defense("smooth:sigma=0.25,samples=8")->wrap(*ideal);
  report.metric("defenses.smooth.forward_ms",
                median_ms(kReps, [&] { (void)smooth->forward(batch.images); }),
                "ms");
  auto* certifier = dynamic_cast<defenses::Certifier*>(smooth.get());
  const auto t0 = Clock::now();
  (void)certifier->mean_certified_radius(
      batch, batch.size(), derive_stream_seed(ctx.opts->seed, kProbeStream));
  report.metric("defenses.cert_s", seconds_since(t0), "s");
}

// Logits of `eval` through each hardware arm, prepared on a fresh clone and
// reseeded, as raw bytes.
std::string arm_logits(const ProbeContext& ctx, const data::Dataset& eval) {
  std::string bytes;
  for (const char* spec : {"ideal", kSramSpec, "xbar:size=16"}) {
    models::Model m = clone_of(ctx);
    hw::BackendPtr backend = hw::make_backend(spec);
    backend->prepare(m);
    nn::reseed_noise_streams(backend->module(), ctx.opts->seed);
    const Tensor logits = backend->forward(eval.images);
    bytes.append(reinterpret_cast<const char*>(logits.data()),
                 static_cast<size_t>(logits.numel()) * sizeof(float));
  }
  return bytes;
}

// Serial vs parallel time of a small sweep, plus the transparency self-test:
// under a TracingEngine the same sweep must give a byte-identical payload,
// and — because the payload holds rounded accuracies that a small numeric
// change rarely moves — every arm's logits must be bit-identical too.
void probe_exp(const ProbeContext& ctx, Report& report) {
  const data::Dataset eval = ctx.trained->data.test.head(8);
  const exp::SweepGrid grid = sweep_grid(*ctx.trained, eval, ctx.opts->seed);
  const unsigned lanes = bench_lanes();
  auto payload = [&](unsigned threads, double& seconds) {
    exp::SweepOptions sopts;
    sopts.threads = threads;
    exp::SweepEngine engine(sopts);
    const auto t0 = Clock::now();
    const exp::SweepResult result = engine.run(grid);
    seconds = seconds_since(t0);
    std::ostringstream os;
    result.write_json(os, "rhw_perf", /*payload_only=*/true);
    return os.str();
  };
  double serial_s = 0, parallel_s = 0, traced_s = 0;
  (void)payload(1, serial_s);
  const std::string plain = payload(lanes, parallel_s);
  const std::string plain_logits = arm_logits(ctx, eval);
  std::string traced, traced_logits;
  {
    core::EngineScope scope(std::make_shared<TracingEngine>(
        core::make_engine(core::active_engine().spec())));
    traced = payload(lanes, traced_s);
    traced_logits = arm_logits(ctx, eval);
  }
  const uint64_t differ = (plain != traced) + (plain_logits != traced_logits);
  report.ops("transparency (payload, logits)", 2, differ,
             "results changed under the tracing engine");
  report.metric("exp.sweep.serial_s", serial_s, "s");
  report.metric("exp.parallel_eff", serial_s / (lanes * parallel_s), "ratio");
}

// One open-loop point at the fixed rate; queue wait and service time are
// reconstructed from each Reply (enqueue_us, done_us, lane, batch_size): a
// batch is the replies sharing (lane, done_us), and it started when both its
// lane was free and its batching trigger fired — the size trigger at its
// newest enqueue, else the linger deadline of its oldest.
void probe_serve(const ProbeContext& ctx, Report& report) {
  const ServePoint pt = serve_point(
      ctx.trained->model, serve_arm(), request_images(ctx.trained->data.test),
      kFixedQps, kPointRequests,
      derive_stream_seed(ctx.opts->seed, kProbeStream));

  std::map<std::pair<unsigned, uint64_t>, std::vector<const serve::Reply*>>
      batches;
  std::map<unsigned, double> per_lane;
  for (const serve::Reply& r : pt.replies) {
    batches[{r.lane, r.done_us}].push_back(&r);
    per_lane[r.lane] += 1;
  }
  std::vector<double> wait_us, service_us;
  std::map<unsigned, uint64_t> lane_free;  // batches are in done order
  for (const auto& [key, members] : batches) {
    uint64_t oldest = UINT64_MAX, newest = 0;
    for (const serve::Reply* r : members) {
      oldest = std::min(oldest, r->enqueue_us);
      newest = std::max(newest, r->enqueue_us);
    }
    const bool full = static_cast<int64_t>(members.size()) >= kBatchMax;
    const uint64_t trigger =
        full ? newest
             : std::max(newest, oldest + static_cast<uint64_t>(kLingerUs));
    const uint64_t start =
        std::min(key.second, std::max(trigger, lane_free[key.first]));
    lane_free[key.first] = key.second;
    service_us.push_back(static_cast<double>(key.second - start));
    for (const serve::Reply* r : members) {
      wait_us.push_back(
          static_cast<double>(start - std::min(start, r->enqueue_us)));
    }
  }
  double share_max = 0;
  for (const auto& [lane, n] : per_lane) {
    share_max = std::max(share_max, n / static_cast<double>(pt.replies.size()));
  }
  report.metric("serve.batches", static_cast<double>(batches.size()), "count");
  report.metric("serve.mean_batch",
                static_cast<double>(pt.replies.size()) /
                    static_cast<double>(std::max<size_t>(1, batches.size())),
                "count");
  report.metric("serve.queue_wait_p50_us", nearest_rank(wait_us, 50).value,
                "us");
  report.metric("serve.queue_wait_p99_us", nearest_rank(wait_us, 99).value,
                "us");
  report.metric("serve.service_p50_us", nearest_rank(service_us, 50).value,
                "us");
  report.metric("serve.lane_share_max", share_max, "ratio");
  report.metric("loadgen.late_p99_us", nearest_rank(pt.late_us, 99).value,
                "us");
}

}  // namespace

void trace_op(Report& report, const std::function<void()>& op) {
  auto tracer = std::make_shared<TracingEngine>(
      core::make_engine(core::active_engine().spec()));
  std::vector<double> plain, traced;
  // Blocks of traced, plain, plain, traced, so drift and warm-up fall on
  // both sides, repeated for kOverheadSeconds: one sweep's wall time varies
  // by a third from one sweep to the next.
  const auto start = Clock::now();
  for (int block = 0; block < kMaxOverheadBlocks &&
                      (block < 2 || seconds_since(start) < kOverheadSeconds);
       ++block) {
    for (int i = 0; i < 4; ++i) {
      const bool trace = i == 0 || i == 3;
      std::optional<core::EngineScope> scope;
      if (trace) scope.emplace(tracer);
      const auto t0 = Clock::now();
      op();
      (trace ? traced : plain).push_back(seconds_since(t0));
    }
  }
  const double ops = static_cast<double>(traced.size());
  report_kernel(report, "core.conv_fwd", tracer->conv_counts(), ops, false);
  report_kernel(report, "core.gemm", tracer->gemm_counts(), ops, true);
  // No workload path calls gemv today, so it has no busy time to report.
  report.metric("core.gemv.calls",
                static_cast<double>(tracer->gemv_counts().calls) / ops,
                "count");
  // Totals, not medians: the sweep's wall time is bimodal.
  const double plain_s = std::accumulate(plain.begin(), plain.end(), 0.0);
  const double traced_s = std::accumulate(traced.begin(), traced.end(), 0.0);
  report.detail("trace.op_untraced_s", plain_s / ops, "s");
  report.detail("trace.op_traced_s", traced_s / ops, "s");
  report.metric("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0,
                "%");
}

void run_probes(const ProbeContext& ctx, Report& report) {
  const data::Dataset batch = ctx.trained->data.train.head(ctx.batch);
  const exp::SweepGrid grid =
      sweep_grid(*ctx.trained, ctx.trained->data.test, ctx.opts->seed);
  probe_data_models(ctx, batch, report);
  probe_nn(ctx, batch, report);
  probe_hw(ctx, batch, report);
  probe_attacks(ctx, grid, batch, report);
  probe_defenses(ctx, batch, report);
  probe_exp(ctx, report);
  probe_serve(ctx, report);
}

}  // namespace rhw::perf
