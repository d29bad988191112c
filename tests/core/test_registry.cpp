// The registry contract shared by all six seams (core/registry.hpp): sorted
// keys with the built-ins, the exact unknown-key and spec-error messages,
// grammar rejections, and add() followed by create(). One typed test runs
// every check against every domain.
//
// The experiment seam has no spec string of its own: its "spec" here is the
// rhw_run argument list "<preset> [key=value ...]", and its option errors
// come from the override parser (ExperimentSpec::apply_override).
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/registry.hpp"
#include "core/engine_registry.hpp"
#include "data/registry.hpp"
#include "defenses/registry.hpp"
#include "exp/experiment_registry.hpp"
#include "hw/registry.hpp"

namespace rhw {
namespace {

// Each case names its seam by the registry's domain label, the word that
// starts its spec errors. A BadSpec is a spec that must fail, and the exact
// message it fails with; each case lists one per option reader it checks.
struct BadSpec {
  const char* spec;
  const char* error;
};

constexpr const char* kEmptySpecHint =
    " spec (expected \"<key>[:opt=value,...]\")";

struct BackendCase {
  using Registry = hw::BackendRegistry;
  static constexpr const char* kName = "backend";
  static constexpr const char* kNoun = "hardware backend";
  static std::vector<std::string> builtins() {
    return {"ideal", "sram", "xbar"};
  }
  static constexpr const char* kUnknownKey = "tpu";
  static constexpr BadSpec kMalformed[] = {
      {"xbar:size",
       "backend spec 'xbar:size': option 'size' is not key=value"}};
  static constexpr BadSpec kGarbage[] = {
      {"sram:vdd=0.68volts",  // rhw-lint: allow(spec) stale on purpose
       "backend spec 'sram:vdd=0.68volts': backend option vdd: bad number "
       "'0.68volts'"},
      {"xbar:size=32,rmin=abc",  // rhw-lint: allow(spec) stale on purpose
       "backend spec 'xbar:size=32,rmin=abc': backend option rmin: bad number "
       "'abc'"},
      {"xbar:rmin=10e3 ",
       "backend spec 'xbar:rmin=10e3 ': backend option rmin: bad number "
       "'10e3 '"},
      {"sram:sites=3junk",  // rhw-lint: allow(spec) stale on purpose
       "backend spec 'sram:sites=3junk': backend option sites: bad "
       "non-negative integer '3junk'"},
      {"xbar:adc_bits=5.5",  // rhw-lint: allow(spec) stale on purpose
       "backend spec 'xbar:adc_bits=5.5': backend option adc_bits: bad "
       "non-negative integer '5.5'"}};
  static constexpr BadSpec kNegative[] = {
      {"xbar:size=-1",  // rhw-lint: allow(spec) stale on purpose
       "backend spec 'xbar:size=-1': backend option size: bad non-negative "
       "integer '-1'"},
      {"sram:sites=-2",  // rhw-lint: allow(spec) stale on purpose
       "backend spec 'sram:sites=-2': backend option sites: bad non-negative "
       "integer '-2'"}};
  static constexpr BadSpec kFactoryError{
      "xbar:bogus=1",  // rhw-lint: allow(spec) stale on purpose
      "backend spec 'xbar:bogus=1': backend xbar: unknown option(s): bogus"};
  static std::string make(const std::string& spec) {
    return hw::make_backend(spec)->name();
  }
  static void add_custom(const std::string& key) {
    Registry::instance().add(key, [](const hw::BackendOptions&) {
      return hw::make_backend("ideal");
    });
  }
  static constexpr const char* kCustomProduct = "ideal";
};

struct AttackCase {
  using Registry = attacks::AttackRegistry;
  static constexpr const char* kName = "attack";
  static constexpr const char* kNoun = "attack";
  static std::vector<std::string> builtins() {
    return {"eot_pgd", "fgsm", "mifgsm", "pgd", "square"};
  }
  static constexpr const char* kUnknownKey = "cw";
  static constexpr BadSpec kMalformed[] = {
      {"pgd:steps",
       "attack spec 'pgd:steps': option 'steps' is not key=value"}};
  static constexpr BadSpec kGarbage[] = {
      {"fgsm:eps=0.1junk",  // rhw-lint: allow(spec) stale on purpose
       "attack spec 'fgsm:eps=0.1junk': attack option eps: bad number "
       "'0.1junk'"},
      {"pgd:steps=7,alpha=abc",  // rhw-lint: allow(spec) stale on purpose
       "attack spec 'pgd:steps=7,alpha=abc': attack option alpha: bad number "
       "'abc'"},
      {"pgd:steps=7.5",  // rhw-lint: allow(spec) stale on purpose
       "attack spec 'pgd:steps=7.5': attack option steps: bad non-negative "
       "integer '7.5'"},
      {"mifgsm:decay=1.0 ",
       "attack spec 'mifgsm:decay=1.0 ': attack option decay: bad number "
       "'1.0 '"},
      {"square:queries=manyy",  // rhw-lint: allow(spec) stale on purpose
       "attack spec 'square:queries=manyy': attack option queries: bad "
       "non-negative integer 'manyy'"}};
  static constexpr BadSpec kNegative[] = {
      {"pgd:steps=-1",  // rhw-lint: allow(spec) stale on purpose
       "attack spec 'pgd:steps=-1': attack option steps: bad non-negative "
       "integer '-1'"},
      {"square:queries=-5",  // rhw-lint: allow(spec) stale on purpose
       "attack spec 'square:queries=-5': attack option queries: bad "
       "non-negative integer '-5'"}};
  static constexpr BadSpec kFactoryError{
      "pgd:stpes=7",  // rhw-lint: allow(spec) stale on purpose
      "attack spec 'pgd:stpes=7': attack pgd: unknown option(s): stpes"};
  static std::string make(const std::string& spec) {
    return attacks::make_attack(spec)->name();
  }
  static void add_custom(const std::string& key) {
    Registry::instance().add(key, [](const attacks::AttackOptions&) {
      return attacks::make_attack("fgsm");
    });
  }
  static constexpr const char* kCustomProduct = "FGSM";
};

struct DefenseCase {
  using Registry = defenses::DefenseRegistry;
  static constexpr const char* kName = "defense";
  static constexpr const char* kNoun = "defense";
  static std::vector<std::string> builtins() {
    return {"adv_train", "gauss_aug", "jpeg_quant", "none", "quanos", "smooth"};
  }
  static constexpr const char* kUnknownKey = "distillation";
  static constexpr BadSpec kMalformed[] = {
      {"smooth:sigma",
       "defense spec 'smooth:sigma': option 'sigma' is not key=value"}};
  static constexpr BadSpec kGarbage[] = {
      {"smooth:sigma=0.25junk",  // rhw-lint: allow(spec) stale on purpose
       "defense spec 'smooth:sigma=0.25junk': defense option sigma: bad "
       "number '0.25junk'"},
      {"smooth:samples=16,sigma=abc",  // rhw-lint: allow(spec) stale on purpose
       "defense spec 'smooth:samples=16,sigma=abc': defense option sigma: bad "
       "number 'abc'"},
      {"jpeg_quant:bits=4.5",  // rhw-lint: allow(spec) stale on purpose
       "defense spec 'jpeg_quant:bits=4.5': defense option bits: bad "
       "non-negative integer '4.5'"},
      {"gauss_aug:sigma=0.1 ",
       "defense spec 'gauss_aug:sigma=0.1 ': defense option sigma: bad number "
       "'0.1 '"},
      {"adv_train:epochs=many",  // rhw-lint: allow(spec) stale on purpose
       "defense spec 'adv_train:epochs=many': defense option epochs: bad "
       "non-negative integer 'many'"}};
  static constexpr BadSpec kNegative[] = {
      {"smooth:samples=-2",  // rhw-lint: allow(spec) stale on purpose
       "defense spec 'smooth:samples=-2': defense option samples: bad "
       "non-negative integer '-2'"}};
  static constexpr BadSpec kFactoryError{
      "smooth:sgima=0.25",  // rhw-lint: allow(spec) stale on purpose
      "defense spec 'smooth:sgima=0.25': defense smooth: unknown option(s): "
      "sgima"};
  static std::string make(const std::string& spec) {
    return defenses::make_defense(spec)->name();
  }
  static void add_custom(const std::string& key) {
    Registry::instance().add(key, [](const defenses::DefenseOptions&) {
      return defenses::make_defense("none");
    });
  }
  static constexpr const char* kCustomProduct = "None";
};

struct EngineCase {
  using Registry = core::EngineRegistry;
  static constexpr const char* kName = "engine";
  static constexpr const char* kNoun = "compute engine";
  static std::vector<std::string> builtins() {
    return {"naive", "simd"};
  }
  static constexpr const char* kUnknownKey = "cublas";
  static constexpr BadSpec kMalformed[] = {
      {"simd:threads",
       "engine spec 'simd:threads': option 'threads' is not key=value"}};
  static constexpr BadSpec kGarbage[] = {
      {"simd:threads=1x",  // rhw-lint: allow(spec) stale on purpose
       "engine spec 'simd:threads=1x': engine option threads: bad "
       "non-negative integer '1x'"},
      {"simd:threads=abc",  // rhw-lint: allow(spec) stale on purpose
       "engine spec 'simd:threads=abc': engine option threads: bad "
       "non-negative integer 'abc'"}};
  static constexpr BadSpec kNegative[] = {
      {"simd:threads=-4",  // rhw-lint: allow(spec) stale on purpose
       "engine spec 'simd:threads=-4': engine option threads: bad "
       "non-negative integer '-4'"}};
  static constexpr BadSpec kFactoryError{
      "simd:lanes=4",  // rhw-lint: allow(spec) stale on purpose
      "engine spec 'simd:lanes=4': engine simd: unknown option(s): lanes"};
  static std::string make(const std::string& spec) {
    return core::make_engine(spec)->key();
  }
  static void add_custom(const std::string& key) {
    Registry::instance().add(key, [](const core::EngineOptions&) {
      return core::make_engine("naive");
    });
  }
  static constexpr const char* kCustomProduct = "naive";
};

struct DatasetCase {
  using Registry = data::DatasetRegistry;
  static constexpr const char* kName = "dataset";
  static constexpr const char* kNoun = "dataset";
  static std::vector<std::string> builtins() {
    return {"cifar10", "mnist", "synth-c10", "synth-c100", "synth_cifar",
            "tiny"};
  }
  static constexpr const char* kUnknownKey = "imagenet";
  static constexpr BadSpec kMalformed[] = {
      {"tiny:classes",
       "dataset spec 'tiny:classes': option 'classes' is not key=value"}};
  static constexpr BadSpec kGarbage[] = {
      {"synth_cifar:amp=0.5x",  // rhw-lint: allow(spec) stale on purpose
       "dataset spec 'synth_cifar:amp=0.5x': dataset option amp: bad number "
       "'0.5x'"}};
  static constexpr BadSpec kNegative[] = {
      {"tiny:train=-8",  // rhw-lint: allow(spec) stale on purpose
       "dataset spec 'tiny:train=-8': dataset option train: bad non-negative "
       "integer '-8'"}};
  static constexpr BadSpec kFactoryError{
      "synth-c10:classes=4",  // rhw-lint: allow(spec) stale on purpose
      "dataset spec 'synth-c10:classes=4': dataset synth-c10: unknown "
      "option(s): classes"};
  static std::string make(const std::string& spec) {
    return data::make_dataset_provider(spec)->tag();
  }
  static void add_custom(const std::string& key) {
    Registry::instance().add(key, [](const data::DatasetOptions&) {
      return data::make_dataset_provider("synth-c10");
    });
  }
  static constexpr const char* kCustomProduct = "synth-c10";
};

struct ExperimentCase {
  using Registry = exp::ExperimentRegistry;
  static constexpr const char* kName = "experiment";
  static constexpr const char* kNoun = "experiment";
  static std::vector<std::string> builtins() {
    return {"ablation_adaptive", "ablation_chip_variation", "fig5", "fig5w",
            "fig6", "fig7", "fig8a", "fig8bc", "fig_cert",
            "obfuscation_audit", "serve_curve", "serve_smoke", "shootout",
            "sweep_smoke", "table1", "table2", "table3"};
  }
  static constexpr const char* kUnknownKey = "fig9";
  static constexpr BadSpec kMalformed[] = {
      {"sweep_smoke trials",
       "experiment override 'trials': expected key=value or axis+=item (see "
       "docs/EXPERIMENTS.md)"}};
  static constexpr BadSpec kGarbage[] = {
      {"sweep_smoke trials=5x",
       "experiment option trials: bad non-negative integer '5x'"}};
  static constexpr BadSpec kNegative[] = {
      {"sweep_smoke seed=-1",
       "experiment option seed: bad non-negative integer '-1'"}};
  static constexpr BadSpec kFactoryError{
      "sweep_smoke trils=5",
      "experiment override 'trils=5': unknown option 'trils' (known: panels "
      "model dataset train engine eval_count backends modes attacks trials "
      "seed batch verify out tag serve qps requests batch_max linger_us "
      "lanes)"};
  // Resolves the preset, then applies each override token in order.
  static std::string make(const std::string& spec) {
    std::istringstream tokens(spec);
    std::string preset;
    tokens >> preset;
    exp::ExperimentSpec resolved = Registry::instance().preset(preset);
    for (std::string token; tokens >> token;) resolved.apply_override(token);
    return resolved.name;
  }
  static void add_custom(const std::string& key) {
    Registry::instance().add(
        key, [] { return Registry::instance().preset("sweep_smoke"); });
  }
  static constexpr const char* kCustomProduct = "registry-test-custom";
};

template <class Case>
std::string error_of(const std::string& spec) {
  try {
    (void)Case::make(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << Case::kName << " spec '" << spec << "' did not throw";
  return "";
}

template <class Case>
std::string unknown_key_error(const std::string& key) {
  std::string msg = std::string("unknown ") + Case::kNoun + " '" + key +
                    "'; registered:";
  for (const std::string& k : Case::Registry::instance().keys()) msg += ' ' + k;
  return msg;
}

template <class Case>
class RegistryContract : public ::testing::Test {};

using Domains = ::testing::Types<BackendCase, AttackCase, DefenseCase,
                                 EngineCase, DatasetCase, ExperimentCase>;

struct DomainNames {
  template <class Case>
  static std::string GetName(int) {
    return Case::kName;
  }
};

TYPED_TEST_SUITE(RegistryContract, Domains, DomainNames);

TYPED_TEST(RegistryContract, KeysAreSortedAndContainTheBuiltins) {
  const auto& registry = TypeParam::Registry::instance();
  const std::vector<std::string> keys = registry.keys();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (const std::string& key : TypeParam::builtins()) {
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), key) != keys.end())
        << key;
    EXPECT_TRUE(registry.contains(key)) << key;
  }
  EXPECT_FALSE(registry.contains(TypeParam::kUnknownKey));
}

TYPED_TEST(RegistryContract, UnknownKeyNamesTokenAndListsKeys) {
  const std::string expected =
      unknown_key_error<TypeParam>(TypeParam::kUnknownKey);
  EXPECT_EQ(error_of<TypeParam>(TypeParam::kUnknownKey), expected);
  try {
    (void)TypeParam::Registry::instance().lookup(TypeParam::kUnknownKey);
    ADD_FAILURE() << "lookup did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), expected);
  }
}

// Experiments resolve "" as an unknown preset; spec-string seams reject it
// in the grammar.
TYPED_TEST(RegistryContract, EmptySpecThrows) {
  const std::string domain = TypeParam::kName;
  const std::string expected = domain == "experiment"
                                   ? unknown_key_error<TypeParam>("")
                                   : "empty " + domain + kEmptySpecHint;
  EXPECT_EQ(error_of<TypeParam>(""), expected);
}

TYPED_TEST(RegistryContract, MalformedOptionThrows) {
  for (const BadSpec& bad : TypeParam::kMalformed) {
    EXPECT_EQ(error_of<TypeParam>(bad.spec), bad.error);
  }
}

// Every option goes through the strict number/integer reader: trailing
// garbage, a fractional integer or a trailing space is rejected, never
// truncated.
TYPED_TEST(RegistryContract, TrailingGarbageThrows) {
  for (const BadSpec& bad : TypeParam::kGarbage) {
    EXPECT_EQ(error_of<TypeParam>(bad.spec), bad.error);
  }
}

TYPED_TEST(RegistryContract, NegativeIntegerThrows) {
  for (const BadSpec& bad : TypeParam::kNegative) {
    EXPECT_EQ(error_of<TypeParam>(bad.spec), bad.error);
  }
}

TYPED_TEST(RegistryContract, FactoryErrorCarriesTheFullSpec) {
  EXPECT_EQ(error_of<TypeParam>(TypeParam::kFactoryError.spec),
            TypeParam::kFactoryError.error);
}

TYPED_TEST(RegistryContract, AddThenCreate) {
  const std::string key = "registry-test-custom";
  EXPECT_FALSE(TypeParam::Registry::instance().contains(key));
  TypeParam::add_custom(key);
  EXPECT_TRUE(TypeParam::Registry::instance().contains(key));
  EXPECT_EQ(TypeParam::make(key), TypeParam::kCustomProduct);
}

}  // namespace
}  // namespace rhw
