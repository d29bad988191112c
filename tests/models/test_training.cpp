// Training-loop behaviour on a small synthetic task (fast enough for CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/engine_registry.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "core/serialize.hpp"

namespace rhw::models {
namespace {

data::SynthCifar small_data() {
  data::SynthCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 40;
  cfg.test_per_class = 10;
  cfg.image_size = 16;
  cfg.noise_std = 0.12f;
  cfg.nuisance_amp = 0.15f;
  return data::make_synth_cifar(cfg);
}

Model small_vgg(int64_t classes) {
  VggConfig cfg;
  cfg.depth = 8;
  cfg.num_classes = classes;
  cfg.in_size = 16;
  cfg.width_mult = 0.125f;
  return make_vgg(cfg);
}

TEST(Training, LearnsSmallTask) {
  auto data = small_data();
  Model model = small_vgg(4);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 40;
  const double acc = train_model(model, data, cfg);
  // Chance is 25%; the easy synthetic task should be well above it.
  EXPECT_GT(acc, 0.7) << "training failed to learn the synthetic task";
}

TEST(Training, EvaluateAccuracyMatchesManualCount) {
  auto data = small_data();
  Model model = small_vgg(4);
  rhw::RandomEngine rng(3);
  nn::kaiming_init(*model.net, rng);
  model.net->set_training(false);
  const double batched = evaluate_accuracy(*model.net, data.test, 7);
  const double whole = evaluate_accuracy(*model.net, data.test, 1000);
  EXPECT_NEAR(batched, whole, 1e-9);
}

TEST(Training, DeterministicGivenSeed) {
  auto data = small_data();
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 40;
  cfg.seed = 42;
  Model a = small_vgg(4);
  Model b = small_vgg(4);
  const double acc_a = train_model(a, data, cfg);
  const double acc_b = train_model(b, data, cfg);
  EXPECT_DOUBLE_EQ(acc_a, acc_b);
}

TEST(Zoo, CacheRoundTrip) {
  // Point the cache at a scratch dir and verify train-once / load-after.
  const auto dir = std::filesystem::temp_directory_path() / "rhw_zoo_test";
  std::filesystem::remove_all(dir);
  setenv("RHW_ZOO_CACHE", dir.c_str(), 1);

  data::SynthCifarConfig dcfg;
  dcfg.num_classes = 3;
  dcfg.train_per_class = 30;
  dcfg.test_per_class = 10;
  dcfg.image_size = 16;
  dcfg.noise_std = 0.1f;
  // get_trained builds paper-sized inputs (32x32); give it matching data.
  dcfg.image_size = 32;
  auto data = data::make_synth_cifar(dcfg);

  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 30;
  const auto first = get_trained("vgg8", "test-tiny", data, tcfg);
  const std::string ckpt =
      "vgg8_test-tiny_" + core::active_engine().key() + ".ckpt";
  EXPECT_TRUE(rhw::file_exists((dir / ckpt).string()));
  const auto second = get_trained("vgg8", "test-tiny", data, tcfg);
  EXPECT_NEAR(first.test_accuracy, second.test_accuracy, 1e-9);

  unsetenv("RHW_ZOO_CACHE");
  std::filesystem::remove_all(dir);
}

// Engines round differently, so the cache keeps one checkpoint per engine
// key: training under naive and under simd writes two files, and a second
// naive call loads its own file instead of retraining.
TEST(Zoo, CacheIsKeyedByEngine) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rhw_zoo_engine_test";
  std::filesystem::remove_all(dir);
  setenv("RHW_ZOO_CACHE", dir.c_str(), 1);

  data::SynthCifarConfig dcfg;
  dcfg.num_classes = 2;
  dcfg.train_per_class = 10;
  dcfg.test_per_class = 5;
  dcfg.image_size = 32;  // get_trained builds 32x32 models
  const auto data = data::make_synth_cifar(dcfg);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.batch_size = 20;

  // get_trained announces "[zoo] training" on stdout only when it trains.
  auto trains = [&](const char* engine) {
    core::EngineScope scope(engine);
    ::testing::internal::CaptureStdout();
    get_trained("vgg8", "engine-key", data, tcfg);
    return ::testing::internal::GetCapturedStdout().find("[zoo] training") !=
           std::string::npos;
  };
  EXPECT_TRUE(trains("naive"));
  EXPECT_TRUE(trains("simd"));
  EXPECT_TRUE(rhw::file_exists((dir / "vgg8_engine-key_naive.ckpt").string()));
  EXPECT_TRUE(rhw::file_exists((dir / "vgg8_engine-key_simd.ckpt").string()));
  EXPECT_FALSE(trains("naive")) << "second naive call retrained";

  unsetenv("RHW_ZOO_CACHE");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rhw::models
