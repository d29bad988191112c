// The attack seam's own rules: which options each attack takes, zero-iteration
// rejection, config parsing, display names and declared pass counts. The
// lookup and error contract shared by all six seams is tested once, in
// tests/core/test_registry.cpp.
#include "attacks/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/rng.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

namespace rhw::attacks {
namespace {

TEST(AttackRegistry, UnknownOptionThrowsNamingIt) {
  try {
    make_attack("pgd:stpes=7");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stpes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pgd:stpes=7"), std::string::npos) << msg;  // rhw-lint: allow(spec) stale on purpose
  }
  EXPECT_THROW(make_attack("fgsm:steps=7"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  // "samples" belongs to eot_pgd, not plain pgd.
  EXPECT_THROW(make_attack("pgd:samples=8"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(make_attack("square:decay=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

// Zero-valued iteration knobs would make the attack a silent no-op (adv ~=
// clean while measuring nothing); they must be rejected naming the knob.
TEST(AttackRegistry, ZeroIterationKnobsRejected) {
  for (const char* spec : {"pgd:steps=0", "eot_pgd:samples=0",  // rhw-lint: allow(spec) stale on purpose
                           "eot_pgd:steps=0", "mifgsm:steps=0",  // rhw-lint: allow(spec) stale on purpose
                           "square:queries=0"}) {  // rhw-lint: allow(spec) stale on purpose
    try {
      make_attack(spec);
      FAIL() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no-op"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // Values past INT_MAX must not wrap back into the no-op range.
  EXPECT_THROW(make_attack("square:queries=4294967296"),  // rhw-lint: allow(spec) stale on purpose
               std::invalid_argument);
  EXPECT_THROW(make_attack("pgd:steps=2147483653"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

TEST(AttackRegistry, OptionsParseIntoConfigs) {
  auto fgsm = make_attack("fgsm:eps=0.25");
  EXPECT_EQ(fgsm->name(), "FGSM");
  EXPECT_FLOAT_EQ(fgsm->epsilon(), 0.25f);
  EXPECT_FALSE(fgsm->gradient_free());

  auto pgd = make_attack("pgd:eps=0.05,steps=3,alpha=0.01,rs=0");
  EXPECT_EQ(pgd->name(), "PGD");
  EXPECT_FLOAT_EQ(pgd->epsilon(), 0.05f);

  auto eot = make_attack("eot_pgd:samples=4");
  EXPECT_EQ(eot->name(), "EOT-PGD");

  auto mi = make_attack("mifgsm:decay=0.9,steps=5");
  EXPECT_EQ(mi->name(), "MI-FGSM");

  auto square = make_attack("square:queries=50,p=0.2");
  EXPECT_EQ(square->name(), "Square");
  EXPECT_TRUE(square->gradient_free());
}

TEST(AttackRegistry, SetEpsilonOverridesSpec) {
  auto attack = make_attack("pgd:eps=0.3");
  attack->set_epsilon(0.07f);
  EXPECT_FLOAT_EQ(attack->epsilon(), 0.07f);
}

TEST(AttackRegistry, DisplayNames) {
  EXPECT_EQ(attack_display_name("fgsm"), "FGSM");
  EXPECT_EQ(attack_display_name("pgd:steps=3"), "PGD");
  EXPECT_EQ(attack_display_name("eot_pgd"), "EOT-PGD");
  EXPECT_EQ(attack_display_name("mifgsm"), "MI-FGSM");
  EXPECT_EQ(attack_display_name("square"), "Square");
}

// Pass-through module counting the forward/backward calls an attack makes.
// Its identity hook carries a seeder, so the net counts as stochastic and
// EOT-PGD keeps every gradient sample (the declared upper bound).
class CountingNet final : public nn::Module {
 public:
  explicit CountingNet(nn::Module& inner) : inner_(&inner) {
    set_post_hook([](Tensor&) {}, /*gated=*/false, [](uint64_t) {});
  }
  std::vector<nn::Param*> parameters() override {
    return inner_->parameters();
  }
  std::vector<nn::Module*> children() override { return {inner_}; }
  std::string type_name() const override { return "CountingNet"; }
  void set_training(bool training) override {
    nn::Module::set_training(training);
    inner_->set_training(training);
  }

  int64_t forwards = 0;
  int64_t backwards = 0;

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
  nn::Module* inner_;
};

// The sweep scheduler prices cells with Attack::passes(); the declared
// counts must be the calls perturb() really makes, for every key.
TEST(AttackRegistry, DeclaredPassesMatchCountedCalls) {
  nn::Sequential net;
  net.emplace<nn::Linear>(8, 16);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(16, 3);
  rhw::RandomEngine rng(21);
  nn::kaiming_init(net, rng);
  const Tensor x = Tensor::rand_uniform({4, 8}, rng, 0.2f, 0.8f);
  const std::vector<int64_t> labels{0, 1, 2, 0};

  for (const std::string& key : AttackRegistry::instance().keys()) {
    const AttackPtr attack = make_attack(key);
    CountingNet counted(net);
    AttackContext ctx;
    ctx.grad_net = &counted;
    ctx.eval_net = &counted;
    ctx.seed = 5;
    (void)attack->perturb(ctx, x, labels);
    const AttackPasses declared = attack->passes();
    EXPECT_EQ(counted.forwards, declared.forward) << key;
    EXPECT_EQ(counted.backwards, declared.backward) << key;
    EXPECT_GT(declared.forward, 0) << key;
  }
}

}  // namespace
}  // namespace rhw::attacks
