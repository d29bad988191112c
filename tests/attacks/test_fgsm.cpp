#include "attacks/fgsm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/engine_registry.hpp"
#include "core/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace rhw::attacks {
namespace {

nn::Sequential small_net(uint64_t seed) {
  nn::Sequential net;
  net.emplace<nn::Linear>(8, 16);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(16, 3);
  rhw::RandomEngine rng(seed);
  nn::kaiming_init(net, rng);
  net.set_training(false);
  return net;
}

TEST(Fgsm, ZeroEpsilonIsIdentity) {
  auto net = small_net(1);
  rhw::RandomEngine rng(2);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng);
  FgsmConfig cfg;
  cfg.epsilon = 0.f;
  const Tensor adv = fgsm(net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(adv[i], x[i]);
}

TEST(Fgsm, PerturbationBoundedByEpsilon) {
  auto net = small_net(3);
  rhw::RandomEngine rng(4);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng, 0.2f, 0.8f);
  FgsmConfig cfg;
  cfg.epsilon = 0.07f;
  const Tensor adv = fgsm(net, x, {0, 1, 2, 0}, cfg);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - x[i]), cfg.epsilon + 1e-6f);
  }
}

TEST(Fgsm, StaysInValidPixelRange) {
  auto net = small_net(5);
  rhw::RandomEngine rng(6);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng);  // includes near 0/1
  FgsmConfig cfg;
  cfg.epsilon = 0.3f;
  const Tensor adv = fgsm(net, x, {1, 1, 1, 1}, cfg);
  EXPECT_GE(adv.min(), 0.f);
  EXPECT_LE(adv.max(), 1.f);
}

TEST(Fgsm, IncreasesLoss) {
  auto net = small_net(7);
  rhw::RandomEngine rng(8);
  const Tensor x = Tensor::rand_uniform({16, 8}, rng, 0.3f, 0.7f);
  std::vector<int64_t> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 3);
  FgsmConfig cfg;
  cfg.epsilon = 0.1f;
  const Tensor adv = fgsm(net, x, labels, cfg);

  nn::SoftmaxCrossEntropy loss;
  const float clean_loss = loss.forward(net.forward(x), labels);
  nn::SoftmaxCrossEntropy loss2;
  const float adv_loss = loss2.forward(net.forward(adv), labels);
  EXPECT_GT(adv_loss, clean_loss);
}

TEST(Fgsm, InputGradientMatchesFiniteDifference) {
  auto net = small_net(9);
  rhw::RandomEngine rng(10);
  Tensor x = Tensor::rand_uniform({2, 8}, rng, 0.3f, 0.7f);
  const std::vector<int64_t> labels{0, 2};
  const Tensor grad = input_gradient(net, x, labels);

  const float h = 1e-3f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    nn::SoftmaxCrossEntropy l1, l2;
    x[i] = orig + h;
    const float up = l1.forward(net.forward(x), labels);
    x[i] = orig - h;
    const float down = l2.forward(net.forward(x), labels);
    x[i] = orig;
    EXPECT_NEAR(grad[i], (up - down) / (2 * h), 5e-3f) << "index " << i;
  }
}

TEST(Fgsm, GradientPassDisablesGatedHooks) {
  auto net = small_net(11);
  bool hook_ran_during_grad = false;
  net[1].set_post_hook([&](Tensor&) { hook_ran_during_grad = true; });
  rhw::RandomEngine rng(12);
  const Tensor x = Tensor::rand_uniform({2, 8}, rng);
  (void)input_gradient(net, x, {0, 1});
  EXPECT_FALSE(hook_ran_during_grad);
  // Outside the gradient pass the hook fires again.
  (void)net.forward(x);
  EXPECT_TRUE(hook_ran_during_grad);
}

TEST(Fgsm, RestoresTrainingFlag) {
  auto net = small_net(13);
  net.set_training(true);
  rhw::RandomEngine rng(14);
  const Tensor x = Tensor::rand_uniform({2, 8}, rng);
  (void)input_gradient(net, x, {0, 1});
  EXPECT_TRUE(net.training());
}

// -- input-gradient contract ---------------------------------------------------

// Conv -> BN -> ReLU -> pool -> linear. The conv is wide enough (col_rows =
// 576, ohw = 256, out_c = 8: 598 KB of backward scratch per sample) that the
// engine's 16 MiB scratch cap splits a 64-sample batch into chunks of 28,
// 28 and 8.
nn::Sequential conv_net(uint64_t seed) {
  nn::Sequential net;
  net.emplace<nn::Conv2d>(64, 8, 3, 1, 1);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2d>(2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(8 * 8 * 8, 10);
  rhw::RandomEngine rng(seed);
  nn::kaiming_init(net, rng);
  net.set_training(false);
  return net;
}

std::vector<int64_t> cycling_labels(int64_t n, int64_t classes) {
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < n; ++i) labels.push_back(i % classes);
  return labels;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// The batch's loss gradient sent back through the net one sample at a time:
// every conv backward is then a single-sample W^T GEMM plus col2im.
Tensor per_sample_input_gradient(nn::Module& net, const Tensor& x,
                                 const std::vector<int64_t>& labels) {
  nn::Module::ParamGradsDisabledScope input_only;
  nn::SoftmaxCrossEntropy loss;
  loss.forward(net.forward(x), labels);
  const Tensor g = loss.backward();
  const int64_t n = x.dim(0), per = x.numel() / n, classes = g.dim(1);
  Shape one = x.shape();
  one[0] = 1;
  Tensor out(x.shape());
  for (int64_t i = 0; i < n; ++i) {
    const Tensor xi(one, std::vector<float>(x.data() + i * per,
                                            x.data() + (i + 1) * per));
    const Tensor gi({1, classes},
                    std::vector<float>(g.data() + i * classes,
                                       g.data() + (i + 1) * classes));
    (void)net.forward(xi);
    const Tensor dxi = net.backward(gi);
    std::copy(dxi.data(), dxi.data() + per, out.data() + i * per);
  }
  return out;
}

TEST(InputGradient, LeavesEveryParamGradZero) {
  auto net = conv_net(31);
  rhw::RandomEngine rng(32);
  const Tensor x = Tensor::rand_uniform({6, 64, 16, 16}, rng);
  const auto labels = cycling_labels(6, 10);
  for (const bool with_noise : {false, true}) {
    (void)input_gradient(net, x, labels, with_noise);
    for (nn::Param* p : net.parameters()) {
      const Tensor zero(p->grad.shape());
      EXPECT_TRUE(bit_identical(p->grad, zero))
          << p->name << " with_noise=" << with_noise;
    }
  }
  // The gate can fail: an ordinary backward does fill the gradients.
  nn::SoftmaxCrossEntropy loss;
  loss.forward(net.forward(x), labels);
  (void)net.backward(loss.backward());
  for (nn::Param* p : net.parameters()) {
    const Tensor zero(p->grad.shape());
    EXPECT_FALSE(bit_identical(p->grad, zero)) << p->name;
  }
}

TEST(InputGradient, BitIdenticalToPerSampleReferenceUnderEveryEngine) {
  rhw::RandomEngine rng(33);
  const Tensor x = Tensor::rand_uniform({64, 64, 16, 16}, rng);
  const auto labels = cycling_labels(64, 10);
  for (const char* engine : {"naive", "simd", "simd:threads=1"}) {
    core::EngineScope scope(engine);
    auto net = conv_net(34);
    const Tensor batched = input_gradient(net, x, labels);
    const Tensor reference = per_sample_input_gradient(net, x, labels);
    EXPECT_TRUE(bit_identical(batched, reference)) << engine;
  }
}

}  // namespace
}  // namespace rhw::attacks
