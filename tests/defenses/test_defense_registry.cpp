// The defense seam's own rules: which options each defense takes, count and
// domain validation, config parsing, display names and missing-context
// errors. The lookup and error contract shared by all six seams is tested
// once, in tests/core/test_registry.cpp.
#include "defenses/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "models/zoo.hpp"

namespace rhw::defenses {
namespace {

TEST(DefenseRegistry, UnknownOptionThrowsNamingIt) {
  try {
    make_defense("smooth:sgima=0.25");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sgima"), std::string::npos) << msg;
    EXPECT_NE(msg.find("smooth:sgima=0.25"), std::string::npos) << msg;  // rhw-lint: allow(spec) stale on purpose
  }
  EXPECT_THROW(make_defense("none:x=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  // "sigma" belongs to smooth/gauss_aug, not jpeg_quant.
  EXPECT_THROW(make_defense("jpeg_quant:sigma=0.1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(make_defense("adv_train:queries=5"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

// Zero-valued count knobs would make the defense a silent no-op; they must
// be rejected naming the knob (parity with the attack registry's
// zero-iteration rule).
TEST(DefenseRegistry, ZeroCountKnobsRejected) {
  for (const char* spec :
       {"smooth:samples=0", "jpeg_quant:bits=0", "adv_train:epochs=0",  // rhw-lint: allow(spec) stale on purpose
        "adv_train:steps=0", "quanos:samples=0"}) {  // rhw-lint: allow(spec) stale on purpose
    try {
      make_defense(spec);
      FAIL() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no-op"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // Values past INT_MAX must not wrap back into the no-op range.
  EXPECT_THROW(make_defense("smooth:samples=4294967296"),  // rhw-lint: allow(spec) stale on purpose
               std::invalid_argument);
}

TEST(DefenseRegistry, DomainValuesValidated) {
  // Out-of-range values name the option and the offending value.
  EXPECT_THROW(make_defense("smooth:sigma=-0.1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(make_defense("smooth:alpha=0.7"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(make_defense("jpeg_quant:bits=9"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(make_defense("gauss_aug:sigma=0"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(make_defense("adv_train:ratio=1.5"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  try {
    make_defense("adv_train:attack=square");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("attack"), std::string::npos) << msg;
    EXPECT_NE(msg.find("square"), std::string::npos) << msg;
  }
}

TEST(DefenseRegistry, OptionsParseIntoConfigs) {
  auto none = make_defense("none");
  EXPECT_EQ(none->name(), "None");
  EXPECT_FALSE(none->training_time());

  auto adv = make_defense("adv_train:attack=pgd,steps=3,ratio=0.25,epochs=2");
  EXPECT_EQ(adv->name(), "AdvTrain");
  EXPECT_TRUE(adv->training_time());
  EXPECT_TRUE(adv->replicable_by_clone());

  auto smooth = make_defense("smooth:sigma=0.5,samples=4,alpha=0.01");
  EXPECT_EQ(smooth->name(), "Smooth");
  EXPECT_FALSE(smooth->training_time());

  EXPECT_EQ(make_defense("jpeg_quant:bits=3")->name(), "JpegQuant");
  EXPECT_EQ(make_defense("gauss_aug:sigma=0.05")->name(), "GaussAug");
  auto quanos = make_defense("quanos:samples=32,high=8,low=4");
  EXPECT_EQ(quanos->name(), "QUANOS");
  EXPECT_FALSE(quanos->replicable_by_clone());
}

TEST(DefenseRegistry, DisplayNames) {
  EXPECT_EQ(defense_display_name("none"), "None");
  EXPECT_EQ(defense_display_name("adv_train"), "AdvTrain");
  EXPECT_EQ(defense_display_name("smooth:sigma=0.25"), "Smooth");
  EXPECT_EQ(defense_display_name("jpeg_quant"), "JpegQuant");
  EXPECT_EQ(defense_display_name("gauss_aug"), "GaussAug");
  EXPECT_EQ(defense_display_name("quanos"), "QUANOS");
}

// Defenses needing data they were not given fail loudly, naming themselves.
TEST(DefenseRegistry, MissingContextDataThrows) {
  models::Model model = models::build_model("vgg8", 4, 0.125f, 16);
  DefenseContext empty_ctx;
  try {
    make_defense("adv_train:epochs=1")->harden(model, empty_ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adv_train"), std::string::npos)
        << e.what();
  }
  try {
    make_defense("quanos")->harden(model, empty_ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("quanos"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rhw::defenses
