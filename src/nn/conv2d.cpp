#include "nn/conv2d.hpp"

#include <stdexcept>

#include "core/engine_registry.hpp"

namespace rhw::nn {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, bool bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_("weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      bias_("bias", Tensor({bias ? out_channels : 0})) {}

std::vector<Param*> Conv2d::parameters() {
  std::vector<Param*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

Tensor Conv2d::do_forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape_str());
  }
  input_ = x;
  geom_ = ConvGeom{in_c_, x.dim(2), x.dim(3), kernel_, kernel_, stride_, pad_};
  const int64_t n = x.dim(0);

  // Fused batched path: the engine im2cols the whole batch (chunked) into
  // one wide column buffer, runs a single [out_c x col_rows] x
  // [col_rows x chunk*oh*ow] GEMM, and adds the bias in its vectorized
  // scatter epilogue — no per-sample small GEMMs, no scalar bias loop.
  Tensor out({n, out_c_, geom_.out_h(), geom_.out_w()});
  core::active_engine().conv2d_forward(
      geom_, n, x.data(), out_c_, weight_.value.data(),
      has_bias_ ? bias_.value.data() : nullptr, out.data());
  return out;
}

Tensor Conv2d::do_backward(const Tensor& grad_out) {
  // Fused batched path, the adjoint of do_forward: one wide W^T GEMM per
  // chunk for the input gradient, and dW/db over the engine's fixed sample
  // groups — skipped entirely inside ParamGradsDisabledScope (attacks).
  Tensor grad_in(input_.shape());
  const bool param_grads = param_grads_enabled();
  core::active_engine().conv2d_backward(
      geom_, input_.dim(0), input_.data(), out_c_, weight_.value.data(),
      grad_out.data(), grad_in.data(),
      param_grads ? weight_.grad.data() : nullptr,
      param_grads && has_bias_ ? bias_.grad.data() : nullptr);
  return grad_in;
}

}  // namespace rhw::nn
