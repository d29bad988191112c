// The dataset seam's own contract: option and corruption-wrapper errors,
// the legacy generator names routed bit-identically, and loads cached by
// canonical spec. The lookup and error contract shared by all six seams is
// tested in tests/core/test_registry.cpp.
#include "data/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "data/synth_cifar.hpp"

namespace rhw::data {
namespace {

constexpr const char* kTiny = "tiny:classes=4,train=8,test=3,size=16";

// Option errors are wrapped with the full offending spec, like the hardware
// registry wraps its factory errors.
TEST(DatasetRegistry, OptionErrorsCarryTheFullSpec) {
  try {
    // rhw-lint: allow(spec) stale on purpose — synth-c10 takes no options
    (void)make_dataset_provider("synth-c10:classes=4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dataset spec 'synth-c10:classes=4':"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("classes"), std::string::npos) << what;
  }
  // rhw-lint: allow(spec) stale on purpose — degenerate geometry
  EXPECT_THROW(make_dataset_provider("tiny:classes=1"), std::invalid_argument);
  // rhw-lint: allow(spec) stale on purpose — unknown option
  EXPECT_THROW(make_dataset_provider("tiny:sides=3"), std::invalid_argument);
  // rhw-lint: allow(spec) stale on purpose — non-numeric value
  EXPECT_THROW(make_dataset_provider("tiny:classes=abc"),
               std::invalid_argument);
}

TEST(DatasetRegistry, WrapperErrorsNameTheSeam) {
  try {
    (void)make_dataset_provider("tiny+noise:kind=fog");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown dataset wrapper 'noise'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:sev=2"),
               std::invalid_argument);  // missing kind
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:kind=melt,sev=1"),
               std::invalid_argument);
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:kind=fog,sev=0"),
               std::invalid_argument);
  EXPECT_THROW(make_dataset_provider("tiny+corrupt:kind=fog,sev=6"),
               std::invalid_argument);
}

// A wrapped spec's base goes through the registry's parse and lookup; errors
// from the base factory and from the wrapper carry the full spec.
TEST(DatasetRegistry, WrappedSpecErrorsCarryTheFullSpec) {
  const auto error_of = [](const std::string& spec) -> std::string {
    try {
      (void)make_dataset_provider(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of("tiny:classes=1+corrupt:kind=fog,sev=1"),
            "dataset spec 'tiny:classes=1+corrupt:kind=fog,sev=1': dataset "
            "tiny: degenerate dataset configuration");
  EXPECT_EQ(error_of("tiny+noise:kind=fog"),
            "dataset spec 'tiny+noise:kind=fog': unknown dataset wrapper "
            "'noise' (only '+corrupt:kind=...,sev=...')");
  EXPECT_EQ(error_of("imagenet+corrupt:kind=fog,sev=1"),
            "unknown dataset 'imagenet'; registered: cifar10 mnist synth-c10 "
            "synth-c100 synth_cifar tiny");
  EXPECT_EQ(error_of("tiny:classes+corrupt:kind=fog,sev=1"),
            "dataset spec 'tiny:classes': option 'classes' is not key=value");
}

TEST(DatasetRegistry, TagsMatchTheLegacyCacheKeys) {
  EXPECT_EQ(make_dataset_provider("synth-c10")->tag(), "synth-c10");
  EXPECT_EQ(make_dataset_provider("synth-c100")->tag(), "synth-c100");
  EXPECT_EQ(make_dataset_provider(kTiny)->tag(), "tiny-c4");
  EXPECT_EQ(make_dataset_provider("cifar10:dir=/nope")->tag(), "cifar10");
  EXPECT_EQ(make_dataset_provider("mnist")->tag(), "mnist");
  EXPECT_EQ(
      make_dataset_provider(std::string(kTiny) + "+corrupt:kind=fog,sev=3")
          ->tag(),
      "tiny-c4+fog3");
}

// The registry path must be bit-identical to the legacy factory the bench
// harnesses used — the zoo cache and every golden figure depend on it.
TEST(DatasetRegistry, SynthC10MatchesLegacyFactoryBitwise) {
  const SynthCifar legacy = make_dataset_by_name("synth-c10");
  const SynthCifar routed = make_dataset_provider("synth-c10")->load();
  ASSERT_EQ(routed.train.size(), legacy.train.size());
  ASSERT_EQ(routed.test.size(), legacy.test.size());
  for (int64_t i = 0; i < legacy.train.images.numel(); ++i) {
    ASSERT_EQ(routed.train.images[i], legacy.train.images[i]);
  }
  for (int64_t i = 0; i < legacy.test.images.numel(); ++i) {
    ASSERT_EQ(routed.test.images[i], legacy.test.images[i]);
  }
  EXPECT_EQ(routed.train.labels, legacy.train.labels);
  EXPECT_EQ(routed.test.labels, legacy.test.labels);
}

// An identically-geometried tiny spec routes through the same generator as
// the old parse_dataset_section tiny path did.
TEST(DatasetRegistry, TinyMatchesTheGeneratorConfigBitwise) {
  SynthCifarConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 8;
  cfg.test_per_class = 3;
  cfg.image_size = 16;
  const SynthCifar direct = make_synth_cifar(cfg);
  const SynthCifar routed = make_dataset_provider(kTiny)->load();
  ASSERT_EQ(routed.train.images.numel(), direct.train.images.numel());
  for (int64_t i = 0; i < direct.train.images.numel(); ++i) {
    ASSERT_EQ(routed.train.images[i], direct.train.images[i]);
  }
  EXPECT_EQ(routed.train.labels, direct.train.labels);
}

TEST(DatasetRegistry, CanonicalSpecSortsOptionsAndKeepsTheWrapper) {
  EXPECT_EQ(canonical_dataset_spec("tiny:train=8,classes=4,test=3,size=16"),
            "tiny:classes=4,size=16,test=3,train=8");
  EXPECT_EQ(canonical_dataset_spec("tiny:train=8,classes=4,test=3,size=16"
                                   "+corrupt:sev=3,kind=fog"),
            "tiny:classes=4,size=16,test=3,train=8+corrupt:kind=fog,sev=3");
  EXPECT_EQ(canonical_dataset_spec("synth-c10"), "synth-c10");
}

TEST(DatasetRegistry, SplitRuleNeverSplitsNumericPlus) {
  const auto [base, wrapper] =
      // rhw-lint: allow(spec) stale on purpose — 1e+5 probes the '+' split
      split_corrupt_spec("synth_cifar:seed=1e+5,classes=4");
  // rhw-lint: allow(spec) stale on purpose — 1e+5 probes the '+' split rule
  EXPECT_EQ(base, "synth_cifar:seed=1e+5,classes=4");
  EXPECT_TRUE(wrapper.empty());
  const auto [b2, w2] = split_corrupt_spec("tiny+corrupt:kind=fog,sev=1");
  EXPECT_EQ(b2, "tiny");
  EXPECT_EQ(w2, "corrupt:kind=fog,sev=1");
}

// load_dataset caches by canonical spec: spelling variants of one dataset
// return the same in-memory copy (same address).
TEST(DatasetRegistry, LoadDatasetCachesByCanonicalSpec) {
  const SynthCifar& a = load_dataset(kTiny);
  const SynthCifar& b =
      load_dataset("tiny:train=8,test=3,size=16,classes=4");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.train.size(), 32);
  EXPECT_EQ(a.test.size(), 12);
  const SynthCifar& c =
      load_dataset(std::string(kTiny) + "+corrupt:kind=fog,sev=2");
  EXPECT_NE(&a, &c);
}

}  // namespace
}  // namespace rhw::data
