#include "core/im2col.hpp"

#include <algorithm>

namespace rhw {

void im2col(const ConvGeom& g, const float* input, float* columns,
            int64_t ld) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t plane = g.in_h * g.in_w;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* chan = input + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out_row = columns + row * ld;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * g.stride + kh - g.pad;
          float* dst = out_row + y * ow;
          if (in_y < 0 || in_y >= g.in_h) {
            std::fill(dst, dst + ow, 0.f);
            continue;
          }
          const float* src_row = chan + in_y * g.in_w;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t in_x = x * g.stride + kw - g.pad;
            dst[x] = (in_x >= 0 && in_x < g.in_w) ? src_row[in_x] : 0.f;
          }
        }
      }
    }
  }
}

void col2im(const ConvGeom& g, const float* columns, float* input_grad,
            int64_t ld) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t plane = g.in_h * g.in_w;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* chan = input_grad + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* col_row = columns + row * ld;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * g.stride + kh - g.pad;
          if (in_y < 0 || in_y >= g.in_h) continue;
          float* dst_row = chan + in_y * g.in_w;
          const float* src = col_row + y * ow;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t in_x = x * g.stride + kw - g.pad;
            if (in_x >= 0 && in_x < g.in_w) dst_row[in_x] += src[x];
          }
        }
      }
    }
  }
}

}  // namespace rhw
