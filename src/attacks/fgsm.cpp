#include "attacks/fgsm.hpp"

namespace rhw::attacks {

namespace {

Tensor backprop_to_input(nn::Module& net, const Tensor& x,
                         const std::vector<int64_t>& labels) {
  const Tensor logits = net.forward(x);
  nn::SoftmaxCrossEntropy loss;
  loss.forward(logits, labels);
  return net.backward(loss.backward());
}

}  // namespace

Tensor input_gradient(nn::Module& net, const Tensor& x,
                      const std::vector<int64_t>& labels, bool with_noise) {
  const bool was_training = net.training();
  net.set_training(false);
  // An attack reads dL/dx only: no layer computes a parameter gradient.
  nn::Module::ParamGradsDisabledScope input_only;
  Tensor grad;
  if (with_noise) {
    grad = backprop_to_input(net, x, labels);
  } else {
    nn::Module::HooksDisabledScope no_noise;
    grad = backprop_to_input(net, x, labels);
  }
  net.set_training(was_training);
  return grad;
}

Tensor fgsm(nn::Module& grad_net, const Tensor& x,
            const std::vector<int64_t>& labels, const FgsmConfig& cfg) {
  if (cfg.epsilon == 0.f) return x;
  Tensor grad = input_gradient(grad_net, x, labels);
  grad.sign_();
  Tensor adv = x;
  adv.add_scaled_(grad, cfg.epsilon);
  adv.clamp_(cfg.clip_lo, cfg.clip_hi);
  return adv;
}

}  // namespace rhw::attacks
