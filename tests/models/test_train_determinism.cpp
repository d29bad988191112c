// Training is bit-reproducible at any thread count: the same train_model
// call on the main thread (layers split their work over the global pool) and
// inside a ThreadPool worker (where every nested parallel_for runs serially)
// must leave bit-identical weights and BatchNorm statistics. Conv2d's weight
// gradient is the load-bearing part: it is reduced over a fixed grid of
// sample groups in group order, never in the order threads finish.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "models/zoo.hpp"

namespace rhw::models {
namespace {

data::SynthCifar small_data() {
  data::SynthCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 40;
  cfg.test_per_class = 4;
  cfg.image_size = 16;
  cfg.noise_std = 0.12f;
  cfg.nuisance_amp = 0.15f;
  return data::make_synth_cifar(cfg);
}

Model trained(const data::SynthCifar& data) {
  Model model = build_model("vgg8", 4, 0.125f, 16);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 40;
  cfg.seed = 11;
  (void)train_model(model, data, cfg);
  return model;
}

// Every persisted tensor of the tree: weights plus BatchNorm statistics.
void collect_state(nn::Module& m,
                   std::vector<std::pair<std::string, Tensor*>>& out) {
  for (const auto& entry : m.named_state()) out.push_back(entry);
  for (nn::Module* child : m.children()) collect_state(*child, out);
}

TEST(TrainDeterminism, MainThreadAndSerialWorkerGiveBitIdenticalWeights) {
  const data::SynthCifar data = small_data();
  const Model pooled = trained(data);

  // Chunk [1, 2) of a two-chunk parallel_for runs on the pool's one worker.
  Model serial;
  ThreadPool one_worker(1);
  one_worker.parallel_for(2, [&](int64_t begin, int64_t) {
    if (begin == 1) serial = trained(data);
  });
  ASSERT_NE(serial.net, nullptr);

  std::vector<std::pair<std::string, Tensor*>> a, b;
  collect_state(*pooled.net, a);
  collect_state(*serial.net, b);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    const Tensor& ta = *a[i].second;
    const Tensor& tb = *b[i].second;
    ASSERT_EQ(ta.shape(), tb.shape()) << a[i].first;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<size_t>(ta.numel()) * sizeof(float)),
              0)
        << "state " << i << " (" << a[i].first << ") differs";
  }
}

}  // namespace
}  // namespace rhw::models
