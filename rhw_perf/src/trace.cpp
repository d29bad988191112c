#include "trace.hpp"

#include <vector>

#include "measure.hpp"

namespace rhw::perf {

void TracingEngine::Counter::add(double f, int64_t ns) {
  calls.fetch_add(1, std::memory_order_relaxed);
  if (f < kSmallGemmFlop) small.fetch_add(1, std::memory_order_relaxed);
  flop.fetch_add(static_cast<uint64_t>(f), std::memory_order_relaxed);
  busy_ns.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
}

KernelCounts TracingEngine::Counter::read() const {
  KernelCounts out;
  out.calls = calls.load(std::memory_order_relaxed);
  out.small = small.load(std::memory_order_relaxed);
  out.gflop = static_cast<double>(flop.load(std::memory_order_relaxed)) * 1e-9;
  out.busy_s =
      static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

namespace {

int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

}  // namespace

TracingEngine::TracingEngine(core::EnginePtr inner)
    : core::Engine(inner->spec()), inner_(std::move(inner)) {}

void TracingEngine::gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                         int64_t k, float alpha, const float* a, int64_t lda,
                         const float* b, int64_t ldb, float beta, float* c,
                         int64_t ldc) const {
  const auto t0 = Clock::now();
  inner_->gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  gemm_.add(2.0 * static_cast<double>(m) * static_cast<double>(n) *
                static_cast<double>(k),
            ns_since(t0));
}

void TracingEngine::gemv(bool trans_a, int64_t m, int64_t n, float alpha,
                         const float* a, int64_t lda, const float* x,
                         float beta, float* y) const {
  const auto t0 = Clock::now();
  inner_->gemv(trans_a, m, n, alpha, a, lda, x, beta, y);
  gemv_.add(2.0 * static_cast<double>(m) * static_cast<double>(n),
            ns_since(t0));
}

void TracingEngine::conv2d_forward(const ConvGeom& g, int64_t batch,
                                   const float* input, int64_t out_c,
                                   const float* weights, const float* bias,
                                   float* out) const {
  const auto t0 = Clock::now();
  inner_->conv2d_forward(g, batch, input, out_c, weights, bias, out);
  conv_.add(2.0 * static_cast<double>(out_c) *
                static_cast<double>(g.col_rows()) *
                static_cast<double>(g.col_cols()) * static_cast<double>(batch),
            ns_since(t0));
}

namespace {

std::string layer_kind(const std::string& type) {
  if (type == "Conv2d") return "conv";
  if (type == "BatchNorm2d") return "bn";
  if (type == "MaxPool2d" || type == "AvgPool2d") return "pool";
  if (type == "ReLU") return "relu";
  if (type == "Linear") return "linear";
  return "";
}

}  // namespace

std::map<std::string, LayerTimes> time_layers(nn::Sequential& net,
                                              const Tensor& x, bool training,
                                              int reps) {
  net.set_training(training);
  std::vector<Tensor> inputs;
  Tensor h = x;
  for (size_t i = 0; i < net.size(); ++i) {
    inputs.push_back(h);
    h = net[i].forward(h);
  }

  std::map<std::string, std::vector<double>> fwd, bwd;
  for (int r = 0; r < reps; ++r) {
    std::map<std::string, double> f, b;
    for (size_t i = 0; i < net.size(); ++i) {
      const std::string kind = layer_kind(net[i].type_name());
      auto t0 = Clock::now();
      const Tensor out = net[i].forward(inputs[i]);
      const double fwd_ms = seconds_since(t0) * 1e3;
      Tensor grad(out.shape());
      grad.fill(1e-3f);
      t0 = Clock::now();
      (void)net[i].backward(grad);
      const double bwd_ms = seconds_since(t0) * 1e3;
      if (kind.empty()) continue;
      f[kind] += fwd_ms;
      b[kind] += bwd_ms;
    }
    for (const auto& [kind, ms] : f) fwd[kind].push_back(ms);
    for (const auto& [kind, ms] : b) bwd[kind].push_back(ms);
  }
  std::map<std::string, LayerTimes> out;
  for (const auto& [kind, samples] : fwd) out[kind].fwd_ms = median(samples);
  for (const auto& [kind, samples] : bwd) out[kind].bwd_ms = median(samples);
  return out;
}

}  // namespace rhw::perf
