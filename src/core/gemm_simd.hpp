// SimdEngine: register-tiled packed-panel GEMM (the `simd` engine key).
//
// The micro-kernel keeps a 6 x 16 accumulator tile in registers across the
// whole k loop, reading A from 6-wide k-major packed panels and B from
// 16-wide packed panels. One source compiles everywhere:
//
//   * x86-64: a second copy of the micro-kernel is built with
//     target("avx2,fma") and selected at runtime via __builtin_cpu_supports —
//     no global -mavx2 flag, the binary still runs on SSE2-only hosts;
//   * aarch64: the baseline copy (GCC vector extensions, 8-float lanes)
//     lowers to NEON (Advanced SIMD is baseline);
//   * anywhere else: the baseline copy lowers to whatever the target has,
//     worst case scalar code — the portable fallback.
//
// The tile is fixed at 6x16: a 6x2-vector accumulator tile plus one B strip
// fills the sixteen 256-bit registers of AVX2, and it measured fastest on
// the VGG-8 conv GEMM shape (docs/ENGINES.md). B is packed in bounded
// per-task blocks (kBBlockBytes). This is the default engine.
#pragma once

#include "core/engine.hpp"

namespace rhw::core {

class SimdEngine : public Engine {
 public:
  // threads: 0 = shared pool, 1 = always serial. Throws
  // std::invalid_argument on any other value.
  explicit SimdEngine(uint64_t threads);

  std::string key() const override { return "simd"; }

  // Micro-tile rows and columns.
  static constexpr int64_t kMr = 6;
  static constexpr int64_t kNr = 16;

  // Packed-B bytes one gemm task holds at a time (a fraction of a typical
  // L2): B is packed in blocks of max(1, kBBlockBytes / (kNr * k * 4)) whole
  // kNr-wide panels. gemm splits over these blocks when there are at least
  // as many as pool lanes, else over A's row panels with B packed once.
  static constexpr int64_t kBBlockBytes = int64_t{64} << 10;

  void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, int64_t lda, const float* b,
            int64_t ldb, float beta, float* c, int64_t ldc) const override;

  // Vectorized gemv: lane-parallel accumulation (see the determinism note in
  // engine.hpp — per spec the lane split is fixed, so results are
  // reproducible; they differ from the scalar reference by rounding only).
  void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
            int64_t lda, const float* x, float beta, float* y) const override;

  // True when the runtime-dispatched fast path (AVX2+FMA on x86-64, NEON on
  // aarch64) is active rather than the portable baseline. Informational —
  // benchmarks and CI logs record it.
  static bool fast_path();

 private:
  uint64_t threads_;
};

}  // namespace rhw::core
