// Instruments for the traced run. Everything here wraps the library from
// outside through its public seams, so the untraced end-to-end runs execute
// exactly the code users run:
//   * TracingEngine decorates the active core::Engine (installed with
//     core::EngineScope) and counts calls, FLOPs and busy time per kernel;
//   * CountingModule wraps an nn::Module and counts forward/backward calls;
//   * time_layers times each top-level layer's public forward/backward on
//     inputs captured from one pass through the network.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "core/engine.hpp"
#include "nn/module.hpp"
#include "nn/sequential.hpp"

namespace rhw::perf {

// A kernel call is "small" below this many FLOPs: too little work to
// amortize operand packing and thread hand-off.
inline constexpr double kSmallGemmFlop = 1 << 20;

struct KernelCounts {
  uint64_t calls = 0;
  uint64_t small = 0;  // calls under kSmallGemmFlop
  double gflop = 0.0;
  double busy_s = 0.0;  // summed over threads
};

// Forwards every call to `inner` unchanged and tallies it. Thread-safe: the
// counters are relaxed atomics, read once the traced work has finished.
class TracingEngine final : public core::Engine {
 public:
  explicit TracingEngine(core::EnginePtr inner);

  std::string key() const override { return inner_->key(); }
  void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, int64_t lda, const float* b,
            int64_t ldb, float beta, float* c, int64_t ldc) const override;
  void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
            int64_t lda, const float* x, float beta, float* y) const override;
  void conv2d_forward(const ConvGeom& g, int64_t batch,
                      const float* input, int64_t out_c, const float* weights,
                      const float* bias, float* out) const override;

  KernelCounts gemm_counts() const { return gemm_.read(); }
  KernelCounts gemv_counts() const { return gemv_.read(); }
  KernelCounts conv_counts() const { return conv_.read(); }

 private:
  struct Counter {
    std::atomic<uint64_t> calls{0}, small{0}, flop{0}, busy_ns{0};
    void add(double flop, int64_t ns);
    KernelCounts read() const;
  };

  core::EnginePtr inner_;
  mutable Counter gemm_, gemv_, conv_;
};

// Pass-through module that counts the calls an attack makes into a network.
class CountingModule final : public nn::Module {
 public:
  explicit CountingModule(nn::Module& inner) : inner_(&inner) {}

  std::vector<nn::Param*> parameters() override {
    return inner_->parameters();
  }
  std::vector<nn::Module*> children() override { return {inner_}; }
  std::vector<std::pair<std::string, Tensor*>> named_state() override {
    return {};
  }
  std::string type_name() const override { return "CountingModule"; }
  void set_training(bool training) override {
    nn::Module::set_training(training);
    inner_->set_training(training);
  }

  uint64_t forwards = 0;
  uint64_t backwards = 0;

 protected:
  Tensor do_forward(const Tensor& x) override {
    ++forwards;
    return inner_->forward(x);
  }
  Tensor do_backward(const Tensor& grad_out) override {
    ++backwards;
    return inner_->backward(grad_out);
  }

 private:
  nn::Module* inner_;  // non-owning
};

// Median over `reps` passes of the summed forward and backward time, in ms,
// of each layer kind ("conv", "bn", "pool", "relu", "linear") among `net`'s
// top-level layers, on inputs captured from one forward pass of `x`.
struct LayerTimes {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
};
std::map<std::string, LayerTimes> time_layers(nn::Sequential& net,
                                              const Tensor& x, bool training,
                                              int reps);

}  // namespace rhw::perf
