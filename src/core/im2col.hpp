// im2col / col2im for convolution lowering.
//
// Layout: input activations are [C, H, W] per sample. The column buffer is
// [C*KH*KW, OH*OW] per sample, row-major with leading dimension `ld` >=
// OH*OW, so that a weight matrix [OC, C*KH*KW] times the column buffer yields
// [OC, OH*OW]. A wider `ld` lets several samples' columns sit side by side
// in one [C*KH*KW x batch*OH*OW] buffer feeding a single GEMM — the
// batch-fused lowering core::Engine::conv2d_forward / conv2d_backward use.
// One sample on its own passes ld = col_cols().
#pragma once

#include <cstdint>

namespace rhw {

struct ConvGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel_h = 0, kernel_w = 0;
  int64_t stride = 1;
  int64_t pad = 0;

  int64_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  int64_t col_rows() const { return in_c * kernel_h * kernel_w; }
  int64_t col_cols() const { return out_h() * out_w(); }
};

// Expands one sample's activations into the column buffer (col_rows rows of
// col_cols values, row stride ld; caller-allocated).
void im2col(const ConvGeom& g, const float* input, float* columns, int64_t ld);

// Scatter-adds one sample's column buffer (row stride ld) back into an
// input-shaped gradient buffer (caller must zero it first if accumulation
// from zero is desired). The exact adjoint of im2col.
void col2im(const ConvGeom& g, const float* columns, float* input_grad,
            int64_t ld);

}  // namespace rhw
