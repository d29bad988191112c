// The attack seam: one stable interface, many swappable adversaries.
//
// Mirrors the hardware-backend seam (hw/backend.hpp): every adversary the
// repo evaluates — white-box gradient attacks, stochastic-aware adaptive
// attacks, gradient-free black-box attacks — implements Attack, and is
// constructed by string through attacks::AttackRegistry
// ("pgd:steps=7,alpha=0.01", see attacks/registry.hpp). Evaluation harnesses
// (attacks/evaluate.hpp, exp::SweepEngine) never name concrete attacks;
// swapping an attack is swapping a spec string.
//
// Threading/determinism contract: an Attack instance is an immutable
// configuration — perturb() is const and draws every random decision from
// streams derived (core/rng.hpp derive_stream_seed) off ctx.seed, so the
// same (attack, context, batch) is bit-reproducible and concurrent sweep
// cells can each hold their own cheap instance.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace rhw::attacks {

using nn::Tensor;

// Everything an attack may touch while crafting one batch.
//
// grad_net is the gradient source: the paper's attack modes make it either
// the software baseline (Attack-SW, SH) or the hardware model itself (HH).
// eval_net is the deployed model under attack — gradient-free attacks query
// it (noise hooks active: a black-box attacker only ever sees the noisy
// hardware), gradient attacks ignore it. seed is the per-batch craft seed
// derived by the evaluation harness; all attack randomness (random starts,
// EOT noise resampling, black-box proposals) must flow from it.
struct AttackContext {
  nn::Module* grad_net = nullptr;
  nn::Module* eval_net = nullptr;
  uint64_t seed = 0;
};

// Network calls one perturb() makes per batch at a nonzero epsilon: forward()
// and backward() calls into the net the attack queries (grad_net for
// gradient attacks, eval_net for gradient-free ones). Counted on a
// stochastic net — EOT-PGD collapses to one gradient sample per step on a
// net without noise streams. exp::SweepEngine prices its cells with these
// counts to dispatch the longest first; tests/attacks/test_attack_registry
// checks them against counted calls for every registered key.
struct AttackPasses {
  int64_t forward = 0;
  int64_t backward = 0;
};

// Abstract adversary. Implementations are small config-holding classes
// registered in attacks/registry.cpp; the free-function cores (fgsm.hpp,
// pgd.hpp, mifgsm.hpp, square.hpp) stay usable directly.
class Attack {
 public:
  virtual ~Attack() = default;

  // Display name for tables/plots/JSON ("FGSM", "EOT-PGD", "Square").
  virtual std::string name() const = 0;

  // L-inf budget. Sweeps construct one attack per grid cell and override the
  // spec's eps with the cell's epsilon-axis value.
  virtual float epsilon() const = 0;
  virtual void set_epsilon(float eps) = 0;

  // True for black-box attacks that never touch grad_net (Square). These are
  // the control arm of the gradient-obfuscation audit: no amount of gradient
  // noise can mask a model from an attack that uses no gradients.
  virtual bool gradient_free() const { return false; }

  // Forward/backward network calls per batch (see AttackPasses).
  virtual AttackPasses passes() const = 0;

  // Crafts adversarial examples for one batch. Must not mutate x; must be
  // deterministic given (config, ctx, x, labels). May reseed ctx nets' noise
  // streams (EOT resampling, black-box queries) — the evaluation harness
  // re-pins eval streams afterwards, see attacks/evaluate.hpp.
  virtual Tensor perturb(const AttackContext& ctx, const Tensor& x,
                         const std::vector<int64_t>& labels) const = 0;
};

using AttackPtr = std::unique_ptr<Attack>;

}  // namespace rhw::attacks
