// EngineRegistry seam tests: engine knob validation, the numeric contract
// from engine.hpp (alpha==0 / beta==0 / NaN propagation), simd parity versus
// the naive reference, the fused batched conv against a per-sample
// reference, and the active-engine selection machinery (EngineScope,
// determinism).
#include "core/engine_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/gemm.hpp"
#include "core/gemm_simd.hpp"
#include "core/im2col.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace rhw {
namespace {

std::vector<float> random_matrix(int64_t rows, int64_t cols,
                                 RandomEngine& rng) {
  std::vector<float> m(static_cast<size_t>(rows * cols));
  for (auto& v : m) v = rng.uniform(-1.f, 1.f);
  return m;
}

// Engines accumulate in different orders, so parity versus naive holds to a
// FLOP-scaled tolerance: eps * k * |values|~1 with headroom.
float flop_tol(int64_t k) {
  return 1e-6f * static_cast<float>(std::max<int64_t>(k, 1)) * 8.f + 1e-6f;
}

const char* const kAllEngines[] = {"naive", "simd"};

// The exact error make_engine(spec) throws.
std::string engine_error(const std::string& spec) {
  try {
    core::make_engine(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error for '" + spec + "'";
}

// -- registry surface ---------------------------------------------------------

TEST(EngineRegistry, UnknownOptionThrows) {
  EXPECT_THROW(core::make_engine("naive:x=1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(core::make_engine("simd:lanes=4"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  // The tile is fixed at 6x16; the old tile knobs are unknown options.
  EXPECT_EQ(engine_error("simd:mr=6"),  // rhw-lint: allow(spec) stale on purpose
            "engine spec 'simd:mr=6': engine simd: unknown option(s): mr");
}

TEST(EngineRegistry, RemovedBlockedKeyIsUnknown) {
  EXPECT_EQ(engine_error("blocked"),
            "unknown compute engine 'blocked'; registered: naive simd");
}

TEST(EngineRegistry, InvalidKnobValuesThrow) {
  EXPECT_THROW(core::make_engine("simd:threads=-1"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(core::make_engine("simd:threads=0.5"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
  EXPECT_THROW(core::make_engine("simd:threads=2"), std::invalid_argument);  // rhw-lint: allow(spec) stale on purpose
}

TEST(EngineRegistry, SimdThreadsIsZeroOrOne) {
  EXPECT_EQ(core::make_engine("simd:threads=1")->spec(), "simd:threads=1");
  try {
    core::make_engine("simd:threads=3");  // rhw-lint: allow(spec) stale on purpose
    FAIL() << "simd:threads=3 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "engine spec 'simd:threads=3': engine simd: threads=3 is not "
                 "a thread mode (0 = shared pool, 1 = serial)");
  }
  // The rejected value is reported as written, not wrapped to a signed one.
  EXPECT_EQ(engine_error("simd:threads=18446744073709551615"),  // rhw-lint: allow(spec) stale on purpose
            "engine spec 'simd:threads=18446744073709551615': engine simd: "
            "threads=18446744073709551615 is not a thread mode (0 = shared "
            "pool, 1 = serial)");
}

TEST(EngineRegistry, CanonicalSpecSpellsOutEveryKnob) {
  EXPECT_EQ(core::make_engine("naive")->spec(), "naive");
  EXPECT_EQ(core::make_engine("simd")->spec(), "simd:threads=0");
  // Canonical specs round-trip through the registry unchanged.
  for (const char* key : kAllEngines) {
    const auto spec = core::make_engine(key)->spec();
    EXPECT_EQ(core::make_engine(spec)->spec(), spec) << key;
  }
}

// -- numeric contract ---------------------------------------------------------

class EngineContract : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineContract, AlphaZeroNeverReadsInputs) {
  auto engine = core::make_engine(GetParam());
  std::vector<float> c{1.f, 2.f, 3.f, 4.f};
  engine->gemm(false, false, 2, 2, 8, 0.f, nullptr, 8, nullptr, 2, 2.f,
               c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 2.f);
  EXPECT_FLOAT_EQ(c[3], 8.f);
}

TEST_P(EngineContract, BetaZeroOverwritesStaleNaN) {
  auto engine = core::make_engine(GetParam());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{1, 0, 0, 1};
  std::vector<float> c{nan, nan, nan, nan};
  engine->gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, b.data(), 2, 0.f,
               c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 1.f);
  EXPECT_FLOAT_EQ(c[1], 2.f);
  EXPECT_FLOAT_EQ(c[2], 3.f);
  EXPECT_FLOAT_EQ(c[3], 4.f);
}

TEST_P(EngineContract, NaNInInputsPropagates) {
  // A zero row in A multiplying a NaN in B still yields NaN (0 * NaN = NaN)
  // for every engine.
  auto engine = core::make_engine(GetParam());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a{0, 0, 1, 1};   // row 0 all zeros
  const std::vector<float> b{nan, 1, 2, 3};
  std::vector<float> c(4, 0.f);
  engine->gemm(false, false, 2, 2, 2, 1.f, a.data(), 2, b.data(), 2, 0.f,
               c.data(), 2);
  EXPECT_TRUE(std::isnan(c[0])) << engine->spec() << " c[0]=" << c[0];
  EXPECT_TRUE(std::isnan(c[2]));
}

TEST_P(EngineContract, DeterministicAcrossRepeats) {
  auto engine = core::make_engine(GetParam());
  RandomEngine rng(31);
  const int64_t m = 67, n = 45, k = 123;  // crosses the parallel threshold
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> first(static_cast<size_t>(m * n), 0.f);
  engine->gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
               first.data(), n);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<float> again(static_cast<size_t>(m * n), 0.f);
    engine->gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
                 again.data(), n);
    ASSERT_EQ(first, again) << engine->spec() << " rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineContract,
                         ::testing::ValuesIn(kAllEngines));

// -- parity versus naive ------------------------------------------------------

class EngineParity
    : public ::testing::TestWithParam<std::tuple<const char*, bool, bool>> {};

TEST_P(EngineParity, MatchesNaiveAcrossShapes) {
  const auto [spec, ta, tb] = GetParam();
  auto engine = core::make_engine(spec);
  auto naive = core::make_engine("naive");
  // Sizes chosen to hit full tiles, edge tiles, packing, and the parallel
  // threshold; leading dims padded to exercise the strided paths.
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1}, {5, 3, 4}, {17, 9, 33}, {64, 48, 96}, {70, 31, 129}};
  for (const auto& [m, n, k] : shapes) {
    RandomEngine rng(static_cast<uint64_t>(m * 31 + n * 7 + k) + (ta ? 64 : 0) +
                     (tb ? 128 : 0));
    const int64_t pad = (m + n + k) % 3;  // mix tight and loose lds
    const int64_t lda = (ta ? m : k) + pad;
    const int64_t ldb = (tb ? k : n) + pad;
    const int64_t ldc = n + pad;
    const auto a = random_matrix(ta ? k : m, lda, rng);
    const auto b = random_matrix(tb ? n : k, ldb, rng);
    std::vector<float> c(static_cast<size_t>(m * ldc), 0.25f);
    std::vector<float> c_ref = c;
    engine->gemm(ta, tb, m, n, k, 0.9f, a.data(), lda, b.data(), ldb, 0.4f,
                 c.data(), ldc);
    naive->gemm(ta, tb, m, n, k, 0.9f, a.data(), lda, b.data(), ldb, 0.4f,
                c_ref.data(), ldc);
    const float tol = flop_tol(k);
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], tol)
          << spec << " shape (" << m << "," << n << "," << k << ") ta=" << ta
          << " tb=" << tb << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineParity,
    ::testing::Combine(::testing::Values("simd", "simd:threads=1"),
                       ::testing::Bool(), ::testing::Bool()));

// -- simd split and packing contract -----------------------------------------

// Columns in one packed-B block of the simd engine at this k
// (SimdEngine::kBBlockBytes), and the lane count the shared pool feeds.
int64_t simd_block_cols(int64_t k) {
  constexpr int64_t nr = core::SimdEngine::kNr;
  const int64_t panels = std::max<int64_t>(
      1, core::SimdEngine::kBBlockBytes /
             (nr * k * static_cast<int64_t>(sizeof(float))));
  return panels * nr;
}
int64_t pool_lanes() { return static_cast<int64_t>(global_pool().size()) + 1; }

class SimdSplit : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

// gemm splits over blocks of packed B when n spans at least one block per
// pool lane, else over A's row panels. Either way each C element is one
// micro-kernel call over the full k loop, so the shared-pool engine must
// equal the serial one bit for bit, and both stay within the FLOP-scaled
// tolerance of naive.
TEST_P(SimdSplit, ParallelEqualsSerialBitwise) {
  const auto [ta, tb] = GetParam();
  const int64_t k = 64;
  const int64_t block = simd_block_cols(k);
  // >= max(3, lanes) blocks, the last one ragged, its last panel ragged too.
  const int64_t wide = (std::max<int64_t>(3, pool_lanes()) + 1) * block + 37;
  ASSERT_NE(wide % core::SimdEngine::kNr, 0);
  ASSERT_LT(4, core::SimdEngine::kMr);
  struct Shape {
    const char* what;
    int64_t m, n;
  };
  const Shape shapes[] = {
      {"n-split, ragged block and panel", 13, wide},
      {"n-split, m < mr", 4, wide},
      {"row-panel fallback, small n", 97, 35},
  };
  auto pooled = core::make_engine("simd");
  auto serial = core::make_engine("simd:threads=1");
  auto naive = core::make_engine("naive");
  for (const auto& s : shapes) {
    RandomEngine rng(static_cast<uint64_t>(s.m * 131 + s.n) + (ta ? 1 : 0) +
                     (tb ? 2 : 0));
    const int64_t lda = (ta ? s.m : k) + 3;
    const int64_t ldb = (tb ? k : s.n) + 5;  // > n when B is not transposed
    const int64_t ldc = s.n + 7;
    const auto a = random_matrix(ta ? k : s.m, lda, rng);
    const auto b = random_matrix(tb ? s.n : k, ldb, rng);
    std::vector<float> c(static_cast<size_t>(s.m * ldc), 0.25f);
    std::vector<float> c_serial = c, c_ref = c;
    pooled->gemm(ta, tb, s.m, s.n, k, 0.9f, a.data(), lda, b.data(), ldb,
                 0.4f, c.data(), ldc);
    serial->gemm(ta, tb, s.m, s.n, k, 0.9f, a.data(), lda, b.data(), ldb,
                 0.4f, c_serial.data(), ldc);
    naive->gemm(ta, tb, s.m, s.n, k, 0.9f, a.data(), lda, b.data(), ldb,
                0.4f, c_ref.data(), ldc);
    ASSERT_EQ(c, c_serial) << s.what;
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], flop_tol(k)) << s.what << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transposes, SimdSplit,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(EngineParity, SimdGemvMatchesNaive) {
  auto simd = core::make_engine("simd");
  auto naive = core::make_engine("naive");
  RandomEngine rng(41);
  const int64_t m = 37, n = 53;
  const auto a = random_matrix(m, n, rng);
  for (bool trans : {false, true}) {
    const int64_t xs = trans ? m : n;
    const int64_t ys = trans ? n : m;
    const auto x = random_matrix(xs, 1, rng);
    for (float beta : {0.f, 1.f, 0.5f}) {
      std::vector<float> y(static_cast<size_t>(ys), 1.5f);
      std::vector<float> y_ref = y;
      simd->gemv(trans, m, n, 0.8f, a.data(), n, x.data(), beta, y.data());
      naive->gemv(trans, m, n, 0.8f, a.data(), n, x.data(), beta,
                  y_ref.data());
      const float tol = flop_tol(trans ? m : n);
      for (size_t i = 0; i < y.size(); ++i) {
        ASSERT_NEAR(y[i], y_ref[i], tol)
            << "trans=" << trans << " beta=" << beta << " at " << i;
      }
    }
  }
}

// -- fused batched convolution ------------------------------------------------

// Per-sample reference: im2col + one GEMM per sample + scalar bias loop —
// the shape of the historical nn::Conv2d forward.
void conv_reference(const ConvGeom& g, int64_t batch, const float* input,
                    int64_t out_c, const float* weights, const float* bias,
                    float* out) {
  const int64_t cr = g.col_rows(), cc = g.col_cols();
  const int64_t in_sz = g.in_c * g.in_h * g.in_w;
  std::vector<float> cols(static_cast<size_t>(cr * cc));
  auto naive = core::make_engine("naive");
  for (int64_t i = 0; i < batch; ++i) {
    im2col(g, input + i * in_sz, cols.data(), cc);
    float* dst = out + i * out_c * cc;
    naive->gemm(false, false, out_c, cc, cr, 1.f, weights, cr, cols.data(), cc,
                0.f, dst, cc);
    if (bias) {
      for (int64_t oc = 0; oc < out_c; ++oc) {
        for (int64_t p = 0; p < cc; ++p) dst[oc * cc + p] += bias[oc];
      }
    }
  }
}

class EngineConv : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineConv, FusedForwardMatchesPerSampleReference) {
  auto engine = core::make_engine(GetParam());
  ConvGeom g;
  g.in_c = 3;
  g.in_h = 9;
  g.in_w = 9;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.pad = 1;
  const int64_t batch = 5, out_c = 7;
  RandomEngine rng(51);
  const auto input = random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
  const auto weights = random_matrix(out_c, g.col_rows(), rng);
  const auto bias = random_matrix(out_c, 1, rng);
  const size_t out_sz = static_cast<size_t>(batch * out_c * g.col_cols());
  for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
    std::vector<float> out(out_sz, -9.f), ref(out_sz, -9.f);
    engine->conv2d_forward(g, batch, input.data(), out_c, weights.data(), b,
                           out.data());
    conv_reference(g, batch, input.data(), out_c, weights.data(), b,
                   ref.data());
    const float tol = flop_tol(g.col_rows());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_NEAR(out[i], ref[i], tol)
          << GetParam() << (b ? " with bias" : " no bias") << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineConv,
                         ::testing::ValuesIn(kAllEngines));

TEST(EngineConv, ChunkingInvariance) {
  // A batch large enough to force multiple scratch chunks must produce the
  // same bits as the same conv run one sample at a time through the fused
  // path (per-element accumulation order is chunk-independent).
  auto engine = core::make_engine("simd");
  ConvGeom g;
  g.in_c = 2;
  g.in_h = 6;
  g.in_w = 6;
  g.kernel_h = 3;
  g.kernel_w = 3;
  g.stride = 1;
  g.pad = 1;
  const int64_t batch = 9, out_c = 4;
  RandomEngine rng(61);
  const auto input = random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
  const auto weights = random_matrix(out_c, g.col_rows(), rng);
  const size_t per_sample = static_cast<size_t>(out_c * g.col_cols());
  std::vector<float> whole(static_cast<size_t>(batch) * per_sample, 0.f);
  engine->conv2d_forward(g, batch, input.data(), out_c, weights.data(),
                         nullptr, whole.data());
  std::vector<float> single(static_cast<size_t>(batch) * per_sample, 0.f);
  const int64_t in_sz = g.in_c * g.in_h * g.in_w;
  for (int64_t i = 0; i < batch; ++i) {
    engine->conv2d_forward(g, 1, input.data() + i * in_sz, out_c,
                           weights.data(), nullptr,
                           single.data() + i * per_sample);
  }
  ASSERT_EQ(whole, single);
}

// Per-sample reference backward in double precision: dX through W^T and
// col2im, dW and db summed over every sample.
void conv_backward_reference(const ConvGeom& g, int64_t batch,
                             const float* input, int64_t out_c,
                             const float* weights, const float* grad_out,
                             std::vector<double>& grad_in,
                             std::vector<double>& grad_w,
                             std::vector<double>& grad_b) {
  const int64_t cr = g.col_rows(), cc = g.col_cols();
  const int64_t in_sz = g.in_c * g.in_h * g.in_w;
  grad_in.assign(static_cast<size_t>(batch * in_sz), 0.0);
  grad_w.assign(static_cast<size_t>(out_c * cr), 0.0);
  grad_b.assign(static_cast<size_t>(out_c), 0.0);
  std::vector<float> cols(static_cast<size_t>(cr * cc));
  std::vector<float> dcols(cols.size());
  std::vector<float> dx(static_cast<size_t>(in_sz));
  for (int64_t i = 0; i < batch; ++i) {
    const float* go = grad_out + i * out_c * cc;
    im2col(g, input + i * in_sz, cols.data(), cc);
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int64_t p = 0; p < cc; ++p) {
        const double v = go[oc * cc + p];
        grad_b[static_cast<size_t>(oc)] += v;
        for (int64_t r = 0; r < cr; ++r) {
          grad_w[static_cast<size_t>(oc * cr + r)] += v * cols[r * cc + p];
        }
      }
    }
    for (int64_t r = 0; r < cr; ++r) {
      for (int64_t p = 0; p < cc; ++p) {
        double acc = 0.0;
        for (int64_t oc = 0; oc < out_c; ++oc) {
          acc += static_cast<double>(weights[oc * cr + r]) * go[oc * cc + p];
        }
        dcols[r * cc + p] = static_cast<float>(acc);
      }
    }
    std::fill(dx.begin(), dx.end(), 0.f);
    col2im(g, dcols.data(), dx.data(), cc);
    for (int64_t j = 0; j < in_sz; ++j) {
      grad_in[static_cast<size_t>(i * in_sz + j)] = dx[j];
    }
  }
}

// 16x16 outputs make kConvGradGroupCols / 256 = 8-sample groups, so a batch
// of 20 reduces dW over three groups (8, 8, 4).
TEST_P(EngineConv, FusedBackwardMatchesPerSampleReference) {
  auto engine = core::make_engine(GetParam());
  const ConvGeom g{3, 16, 16, 3, 3, 1, 1};
  const int64_t batch = 20, out_c = 5;
  ASSERT_EQ(core::kConvGradGroupCols / g.col_cols(), 8);
  RandomEngine rng(71);
  const auto input = random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
  const auto weights = random_matrix(out_c, g.col_rows(), rng);
  const auto grad_out = random_matrix(batch, out_c * g.col_cols(), rng);
  std::vector<double> ref_in, ref_w, ref_b;
  conv_backward_reference(g, batch, input.data(), out_c, weights.data(),
                          grad_out.data(), ref_in, ref_w, ref_b);

  // grad_in is overwritten; grad_w / grad_b accumulate onto what is there.
  std::vector<float> grad_in(ref_in.size(), -9.f);
  std::vector<float> grad_w(ref_w.size(), 1.f);
  std::vector<float> grad_b(ref_b.size(), 1.f);
  engine->conv2d_backward(g, batch, input.data(), out_c, weights.data(),
                          grad_out.data(), grad_in.data(), grad_w.data(),
                          grad_b.data());
  for (size_t i = 0; i < grad_in.size(); ++i) {
    ASSERT_NEAR(grad_in[i], ref_in[i], flop_tol(out_c * 9)) << "dX " << i;
  }
  const float w_tol = flop_tol(batch * g.col_cols());
  for (size_t i = 0; i < grad_w.size(); ++i) {
    ASSERT_NEAR(grad_w[i], 1.0 + ref_w[i], w_tol) << "dW " << i;
  }
  for (size_t i = 0; i < grad_b.size(); ++i) {
    ASSERT_NEAR(grad_b[i], 1.0 + ref_b[i], w_tol) << "db " << i;
  }

  // The null-dW form computes the same input gradient, bit for bit.
  std::vector<float> grad_in_only(ref_in.size(), -9.f);
  engine->conv2d_backward(g, batch, nullptr, out_c, weights.data(),
                          grad_out.data(), grad_in_only.data(), nullptr,
                          nullptr);
  EXPECT_EQ(grad_in_only, grad_in);
}

// The fused conv at a batch wide enough that both the forward GEMM (k =
// col_rows) and the input-gradient GEMM (k = out_c) split over blocks of B:
// the shared-pool simd engine must match the serial one bit for bit.
TEST(EngineConv, SimdWideBatchParallelEqualsSerialBitwise) {
  auto pooled = core::make_engine("simd");
  auto serial = core::make_engine("simd:threads=1");
  const ConvGeom g{4, 12, 12, 3, 3, 1, 1};
  const int64_t out_c = 8;
  const int64_t ohw = g.col_cols();
  const int64_t widest_block =
      std::max(simd_block_cols(g.col_rows()), simd_block_cols(out_c));
  const int64_t batch = (pool_lanes() + 1) * widest_block / ohw + 1;
  RandomEngine rng(81);
  const auto input = random_matrix(batch, g.in_c * g.in_h * g.in_w, rng);
  const auto weights = random_matrix(out_c, g.col_rows(), rng);
  const auto bias = random_matrix(out_c, 1, rng);
  const auto grad_out = random_matrix(batch, out_c * ohw, rng);

  const size_t out_sz = static_cast<size_t>(batch * out_c * ohw);
  std::vector<float> out(out_sz), out_serial(out_sz);
  pooled->conv2d_forward(g, batch, input.data(), out_c, weights.data(),
                         bias.data(), out.data());
  serial->conv2d_forward(g, batch, input.data(), out_c, weights.data(),
                         bias.data(), out_serial.data());
  ASSERT_EQ(out, out_serial);

  const size_t in_sz = input.size();
  std::vector<float> grad_in(in_sz), grad_in_serial(in_sz);
  std::vector<float> grad_w(weights.size(), 0.f), grad_w_serial = grad_w;
  std::vector<float> grad_b(bias.size(), 0.f), grad_b_serial = grad_b;
  pooled->conv2d_backward(g, batch, input.data(), out_c, weights.data(),
                          grad_out.data(), grad_in.data(), grad_w.data(),
                          grad_b.data());
  serial->conv2d_backward(g, batch, input.data(), out_c, weights.data(),
                          grad_out.data(), grad_in_serial.data(),
                          grad_w_serial.data(), grad_b_serial.data());
  ASSERT_EQ(grad_in, grad_in_serial);
  ASSERT_EQ(grad_w, grad_w_serial);
  ASSERT_EQ(grad_b, grad_b_serial);
}

// -- active-engine selection --------------------------------------------------

TEST(EngineScope, SelectsAndRestores) {
  const std::string before = core::active_engine().spec();
  {
    core::EngineScope scope("naive");
    EXPECT_EQ(core::active_engine().spec(), "naive");
    {
      core::EngineScope inner("simd:threads=1");
      EXPECT_EQ(core::active_engine().spec(), "simd:threads=1");
    }
    EXPECT_EQ(core::active_engine().spec(), "naive");
  }
  EXPECT_EQ(core::active_engine().spec(), before);
}

// An engine that only records that its gemm ran.
class RecordingEngine : public core::Engine {
 public:
  explicit RecordingEngine(bool* called)
      : core::Engine("recording"), called_(called) {}
  std::string key() const override { return "recording"; }
  void gemm(bool, bool, int64_t, int64_t, int64_t, float, const float*,
            int64_t, const float*, int64_t, float, float*,
            int64_t) const override {
    *called_ = true;
  }

 private:
  bool* called_;
};

TEST(EngineScope, FreeGemmRoutesThroughActiveEngine) {
  // The free-function dispatcher reaches the scoped engine, and only while
  // its scope is open.
  bool called = false;
  std::vector<float> c{0.f};
  const std::vector<float> a{1.f}, b{1.f};
  {
    core::EngineScope scope(std::make_shared<RecordingEngine>(&called));
    gemm(false, false, 1, 1, 1, 1.f, a.data(), 1, b.data(), 1, 0.f, c.data(),
         1);
  }
  EXPECT_TRUE(called);
  EXPECT_FLOAT_EQ(c[0], 0.f);
  called = false;
  gemm(false, false, 1, 1, 1, 1.f, a.data(), 1, b.data(), 1, 0.f, c.data(),
       1);
  EXPECT_FALSE(called);
  EXPECT_FLOAT_EQ(c[0], 1.f);
}

TEST(EngineScope, SetActiveEngineRejectsNull) {
  EXPECT_THROW(core::set_active_engine(core::EnginePtr{}),
               std::invalid_argument);
}

TEST(EngineRegistry, FastPathReportsWithoutCrashing) {
  // Informational only — just make sure the runtime dispatch query is safe
  // to call and stable.
  const bool first = core::SimdEngine::fast_path();
  EXPECT_EQ(core::SimdEngine::fast_path(), first);
}

}  // namespace
}  // namespace rhw
