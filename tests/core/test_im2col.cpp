#include "core/im2col.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace rhw {
namespace {

TEST(ConvGeom, OutputDims) {
  ConvGeom g{3, 32, 32, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 1024);

  ConvGeom s{1, 8, 8, 3, 3, 2, 1};
  EXPECT_EQ(s.out_h(), 4);

  ConvGeom nopad{1, 5, 5, 3, 3, 1, 0};
  EXPECT_EQ(nopad.out_h(), 3);
}

TEST(Im2col, IdentityKernel1x1) {
  ConvGeom g{2, 3, 3, 1, 1, 1, 0};
  std::vector<float> in(18);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(g, in.data(), cols.data(), g.col_cols());
  // 1x1 kernel: columns == input planes flattened
  for (size_t i = 0; i < in.size(); ++i) EXPECT_EQ(cols[i], in[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> in{1, 2, 3, 4};
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(g, in.data(), cols.data(), g.col_cols());
  // Kernel position (0,0) at output (0,0) reads input (-1,-1) -> 0.
  EXPECT_EQ(cols[0], 0.f);
  // Kernel center (1,1) at output (0,0) reads input (0,0) -> 1.
  EXPECT_EQ(cols[4 * g.col_cols() + 0], 1.f);
  // Kernel center at output (1,1) reads input (1,1) -> 4.
  EXPECT_EQ(cols[4 * g.col_cols() + 3], 4.f);
}

TEST(Im2col, StrideSkipsPositions) {
  ConvGeom g{1, 4, 4, 2, 2, 2, 0};
  std::vector<float> in(16);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  ASSERT_EQ(g.out_h(), 2);
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * g.col_cols()));
  im2col(g, in.data(), cols.data(), g.col_cols());
  // Kernel (0,0): outputs sample inputs (0,0), (0,2), (2,0), (2,2).
  EXPECT_EQ(cols[0], 0.f);
  EXPECT_EQ(cols[1], 2.f);
  EXPECT_EQ(cols[2], 8.f);
  EXPECT_EQ(cols[3], 10.f);
}

// col2im is the exact adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Im2col, Col2imIsAdjoint) {
  ConvGeom g{3, 7, 6, 3, 3, 2, 1};
  RandomEngine rng(17);
  const int64_t in_size = g.in_c * g.in_h * g.in_w;
  const int64_t col_size = g.col_rows() * g.col_cols();
  std::vector<float> x(static_cast<size_t>(in_size));
  std::vector<float> y(static_cast<size_t>(col_size));
  for (auto& v : x) v = rng.uniform(-1.f, 1.f);
  for (auto& v : y) v = rng.uniform(-1.f, 1.f);

  std::vector<float> cols(static_cast<size_t>(col_size));
  im2col(g, x.data(), cols.data(), g.col_cols());
  double lhs = 0;
  for (int64_t i = 0; i < col_size; ++i) lhs += cols[i] * y[i];

  std::vector<float> back(static_cast<size_t>(in_size), 0.f);
  col2im(g, y.data(), back.data(), g.col_cols());
  double rhs = 0;
  for (int64_t i = 0; i < in_size; ++i) rhs += x[i] * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// The strided form places a sample's columns side by side with others':
// writing at column offset cc of a 2*cc-wide buffer gives the packed
// columns, and col2im reads them back from the same place.
TEST(Im2col, LeadingDimensionPlacesSamplesSideBySide) {
  ConvGeom g{2, 5, 4, 3, 3, 1, 1};
  RandomEngine rng(19);
  const int64_t cr = g.col_rows(), cc = g.col_cols();
  std::vector<float> x(static_cast<size_t>(g.in_c * g.in_h * g.in_w));
  for (auto& v : x) v = rng.uniform(-1.f, 1.f);

  std::vector<float> packed(static_cast<size_t>(cr * cc));
  im2col(g, x.data(), packed.data(), cc);
  std::vector<float> wide(static_cast<size_t>(cr * 2 * cc), -7.f);
  im2col(g, x.data(), wide.data() + cc, 2 * cc);
  for (int64_t r = 0; r < cr; ++r) {
    for (int64_t c = 0; c < cc; ++c) {
      EXPECT_EQ(wide[r * 2 * cc + cc + c], packed[r * cc + c]);
      EXPECT_EQ(wide[r * 2 * cc + c], -7.f);  // the neighbour is untouched
    }
  }

  std::vector<float> from_packed(x.size(), 0.f), from_wide(x.size(), 0.f);
  col2im(g, packed.data(), from_packed.data(), cc);
  col2im(g, wide.data() + cc, from_wide.data(), 2 * cc);
  EXPECT_EQ(from_packed, from_wide);
}

TEST(Im2col, Col2imAccumulatesOverlaps) {
  // 3x3 kernel, stride 1: interior input pixels are read 9 times, so
  // col2im(ones) counts each pixel's usage.
  ConvGeom g{1, 5, 5, 3, 3, 1, 1};
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * g.col_cols()),
                          1.f);
  std::vector<float> grad(25, 0.f);
  col2im(g, cols.data(), grad.data(), g.col_cols());
  EXPECT_EQ(grad[12], 9.f);  // center pixel
  EXPECT_EQ(grad[0], 4.f);   // corner pixel
}

}  // namespace
}  // namespace rhw
