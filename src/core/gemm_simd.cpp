#include "core/gemm_simd.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
// Safe without -mavx2: every intrinsic carries its own target attribute and
// is only reachable from the pragma-target functions below.
#include <immintrin.h>
#endif

#include "core/thread_pool.hpp"

// The baseline helpers pass and return vf8 by value; without -mavx that is a
// different (two-register) calling convention, which GCC flags with -Wpsabi.
// Every such function is internal to this translation unit and inlined, so
// the ABI note has no cross-TU consequence.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace rhw::core {

namespace {

// Eight-float SIMD lane written with GCC vector extensions: one source body
// lowers to AVX2 (under the target pragma below), to a pair of NEON q-ops on
// aarch64, to SSE pairs on baseline x86-64, and to scalar code elsewhere.
typedef float vf8 __attribute__((vector_size(32)));

// Unaligned load/store — packed panels and C rows are only float-aligned.
// The memcpy compiles to a single (v)movups under optimization.
inline vf8 load8(const float* p) {
  vf8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store8(float* p, vf8 v) { std::memcpy(p, &v, sizeof(v)); }
inline vf8 splat8(float x) { return vf8{x, x, x, x, x, x, x, x}; }

// The tile in 8-float vectors: kTileRows rows of kTileVecs vectors each.
constexpr int kTileRows = static_cast<int>(SimdEngine::kMr);
constexpr int kTileVecs = static_cast<int>(SimdEngine::kNr / 8);

// The micro-kernel contract, shared by both ISA copies: a kTileRows x
// (kTileVecs*8) accumulator tile lives in registers across the entire k
// loop; A arrives as a kTileRows-wide k-major panel (ap[p*kTileRows + r])
// and B as a kTileVecs*8-wide panel (bp[p*kTileVecs*8 + j]), both
// zero-padded to full tile width so edge handling never branches inside the
// hot loop. alpha is applied once at write-back; the caller has already run
// the beta prologue, so write-back is a pure +=.
using MicroKernelFn = void (*)(int64_t k, const float* ap, const float* bp,
                               float* c, int64_t ldc, int64_t mr_eff,
                               int64_t nr_eff, float alpha);
using GemvAccumFn = void (*)(bool, int64_t, int64_t, float, const float*,
                             int64_t, const float*, float*);

// Portable baseline copy: whatever the compiler's default target offers
// (NEON on aarch64, SSE2 on x86-64, scalar elsewhere).
void base_kernel(int64_t k, const float* ap, const float* bp, float* c,
                 int64_t ldc, int64_t mr_eff, int64_t nr_eff, float alpha) {
  vf8 acc[kTileRows][kTileVecs] = {};
  for (int64_t p = 0; p < k; ++p) {
    vf8 bv[kTileVecs];
    const float* brow = bp + p * (kTileVecs * 8);
    for (int v = 0; v < kTileVecs; ++v) bv[v] = load8(brow + v * 8);
    const float* arow = ap + p * kTileRows;
    for (int r = 0; r < kTileRows; ++r) {
      const vf8 av = splat8(arow[r]);
      for (int v = 0; v < kTileVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
  const vf8 alphav = splat8(alpha);
  if (mr_eff == kTileRows && nr_eff == kTileVecs * 8) {
    for (int r = 0; r < kTileRows; ++r) {
      float* crow = c + r * ldc;
      for (int v = 0; v < kTileVecs; ++v) {
        store8(crow + v * 8, load8(crow + v * 8) + alphav * acc[r][v]);
      }
    }
  } else {
    // Edge tile: spill the full register tile, add back the valid window.
    float tile[kTileRows][kTileVecs * 8];
    for (int r = 0; r < kTileRows; ++r) {
      for (int v = 0; v < kTileVecs; ++v) store8(&tile[r][v * 8], acc[r][v]);
    }
    for (int64_t r = 0; r < mr_eff; ++r) {
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < nr_eff; ++j) crow[j] += alpha * tile[r][j];
    }
  }
}

// y-accumulation half of gemv; the engine method runs the beta/alpha
// prologue first. Lane-parallel with a fixed split (8-wide body + scalar
// tail), so the per-element order is a pure function of n — deterministic.
// always_inline is load-bearing: the body is baseline code, but it inlines
// into the target("avx2,fma") wrapper below and is then compiled with the
// caller's ISA — one source, every instruction set.
[[gnu::always_inline]] inline void gemv_accum_body(bool trans_a, int64_t m,
                                                   int64_t n, float alpha,
                                                   const float* a, int64_t lda,
                                                   const float* x, float* y) {
  if (!trans_a) {
    for (int64_t i = 0; i < m; ++i) {
      const float* row = a + i * lda;
      vf8 acc = {};
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) acc += load8(row + j) * load8(x + j);
      float lanes[8];
      store8(lanes, acc);
      float s = 0.f;
      for (int t = 0; t < 8; ++t) s += lanes[t];
      for (; j < n; ++j) s += row[j] * x[j];
      y[i] += alpha * s;
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      const float xv = alpha * x[i];
      const vf8 xvv = splat8(xv);
      const float* row = a + i * lda;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        store8(y + j, load8(y + j) + xvv * load8(row + j));
      }
      for (; j < n; ++j) y[j] += xv * row[j];
    }
  }
}

void base_gemv(bool trans_a, int64_t m, int64_t n, float alpha,
               const float* a, int64_t lda, const float* x, float* y) {
  gemv_accum_body(trans_a, m, n, alpha, a, lda, x, y);
}

#if defined(__x86_64__)
// Second copy for AVX2+FMA hosts, selected at runtime — the binary itself
// stays runnable on SSE2-only machines. The kernel is hand-written with
// intrinsics rather than reusing base_kernel's body: GCC's generic-vector
// lowering of that body spills accumulators and splits broadcasts
// (vbroadcastss xmm + vinsertf128), costing ~2x; the intrinsic form keeps
// the tile in ymm registers and lets B loads fold into the FMAs. A plain
// function (not a template) because `#pragma GCC target` does not reliably
// attach to template instantiations.
#pragma GCC push_options
#pragma GCC target("avx2,fma")

void avx2_kernel(int64_t k, const float* ap, const float* bp, float* c,
                 int64_t ldc, int64_t mr_eff, int64_t nr_eff, float alpha) {
  __m256 acc[kTileRows][kTileVecs];
  for (int r = 0; r < kTileRows; ++r) {
    for (int v = 0; v < kTileVecs; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  const float* arow = ap;
  const float* brow = bp;
  int64_t p = 0;
  // Unrolled by 2: per-element accumulation order stays the plain k order
  // (both halves feed the same accumulator back to back), so the unroll is
  // invisible numerically — it only hides loop overhead.
  for (; p + 2 <= k; p += 2, arow += 2 * kTileRows, brow += 2 * kTileVecs * 8) {
    __m256 bv[kTileVecs];
    for (int v = 0; v < kTileVecs; ++v) bv[v] = _mm256_loadu_ps(brow + v * 8);
    for (int r = 0; r < kTileRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      for (int v = 0; v < kTileVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
    for (int v = 0; v < kTileVecs; ++v) {
      bv[v] = _mm256_loadu_ps(brow + kTileVecs * 8 + v * 8);
    }
    for (int r = 0; r < kTileRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + kTileRows + r);
      for (int v = 0; v < kTileVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
  for (; p < k; ++p, arow += kTileRows, brow += kTileVecs * 8) {
    __m256 bv[kTileVecs];
    for (int v = 0; v < kTileVecs; ++v) bv[v] = _mm256_loadu_ps(brow + v * 8);
    for (int r = 0; r < kTileRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      for (int v = 0; v < kTileVecs; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
  if (mr_eff == kTileRows && nr_eff == kTileVecs * 8) {
    const __m256 alphav = _mm256_set1_ps(alpha);
    for (int r = 0; r < kTileRows; ++r) {
      float* crow = c + r * ldc;
      for (int v = 0; v < kTileVecs; ++v) {
        const __m256 cv = _mm256_fmadd_ps(alphav, acc[r][v],
                                          _mm256_loadu_ps(crow + v * 8));
        _mm256_storeu_ps(crow + v * 8, cv);
      }
    }
  } else {
    float tile[kTileRows][kTileVecs * 8];
    for (int r = 0; r < kTileRows; ++r) {
      for (int v = 0; v < kTileVecs; ++v) {
        _mm256_storeu_ps(&tile[r][v * 8], acc[r][v]);
      }
    }
    for (int64_t r = 0; r < mr_eff; ++r) {
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < nr_eff; ++j) crow[j] += alpha * tile[r][j];
    }
  }
}

// The generic-vector gemv body compiles cleanly; reuse it under AVX2.
void avx2_gemv(bool trans_a, int64_t m, int64_t n, float alpha,
               const float* a, int64_t lda, const float* x, float* y) {
  gemv_accum_body(trans_a, m, n, alpha, a, lda, x, y);
}

#pragma GCC pop_options
#endif

MicroKernelFn pick_kernel() {
#if defined(__x86_64__)
  if (SimdEngine::fast_path()) return avx2_kernel;
#endif
  return base_kernel;
}

GemvAccumFn pick_gemv() {
#if defined(__x86_64__)
  if (SimdEngine::fast_path()) return avx2_gemv;
#endif
  return base_gemv;
}

// Packs op(A) into ceil(m/kMr) k-major panels of kMr rows each
// (dst[p*kMr + r] = opA[i0+r][p]), zero-padding short panels so the
// micro-kernel never reads past the matrix. Padding rows contribute nothing
// to valid outputs and padded outputs are never written back.
void pack_a(bool trans_a, int64_t m, int64_t k, const float* a, int64_t lda,
            float* out) {
  constexpr int64_t mr = SimdEngine::kMr;
  const int64_t panels = (m + mr - 1) / mr;
  for (int64_t pi = 0; pi < panels; ++pi) {
    const int64_t i0 = pi * mr;
    const int64_t rows = std::min(mr, m - i0);
    float* dst = out + pi * mr * k;
    if (!trans_a) {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t r = 0; r < mr; ++r) {
          dst[p * mr + r] = r < rows ? a[(i0 + r) * lda + p] : 0.f;
        }
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        const float* src = a + p * lda + i0;
        for (int64_t r = 0; r < mr; ++r) {
          dst[p * mr + r] = r < rows ? src[r] : 0.f;
        }
      }
    }
  }
}

// Packs op(B) into ceil(n/kNr) panels of kNr columns (dst[p*kNr + j] =
// opB[p][j0+j]), zero-padded like pack_a.
void pack_b(bool trans_b, int64_t k, int64_t n, const float* b, int64_t ldb,
            float* out) {
  constexpr int64_t nr = SimdEngine::kNr;
  const int64_t panels = (n + nr - 1) / nr;
  for (int64_t pj = 0; pj < panels; ++pj) {
    const int64_t j0 = pj * nr;
    const int64_t cols = std::min(nr, n - j0);
    float* dst = out + pj * nr * k;
    if (!trans_b) {
      for (int64_t p = 0; p < k; ++p) {
        const float* src = b + p * ldb + j0;
        for (int64_t j = 0; j < nr; ++j) {
          dst[p * nr + j] = j < cols ? src[j] : 0.f;
        }
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t j = 0; j < nr; ++j) {
          dst[p * nr + j] = j < cols ? b[(j0 + j) * ldb + p] : 0.f;
        }
      }
    }
  }
}

}  // namespace

bool SimdEngine::fast_path() {
#if defined(__x86_64__)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#elif defined(__aarch64__)
  return true;  // Advanced SIMD is baseline; the "portable" copy IS NEON.
#else
  return false;
#endif
}

SimdEngine::SimdEngine(uint64_t threads)
    : Engine("simd:threads=" + std::to_string(threads)), threads_(threads) {
  if (threads != 0 && threads != 1) {
    throw std::invalid_argument(
        "engine simd: threads=" + std::to_string(threads) +
        " is not a thread mode (0 = shared pool, 1 = serial)");
  }
}

void SimdEngine::gemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                      int64_t k, float alpha, const float* a, int64_t lda,
                      const float* b, int64_t ldb, float beta, float* c,
                      int64_t ldc) const {
  detail::scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.f) return;

  constexpr int64_t mr = kMr, nr = kNr;
  const int64_t mpanels = (m + mr - 1) / mr;
  const int64_t npanels = (n + nr - 1) / nr;
  std::vector<float> ap(static_cast<size_t>(mpanels * mr * k));
  pack_a(trans_a, m, k, a, lda, ap.data());
  const MicroKernelFn kern = pick_kernel();

  // B is packed a block of whole nr-wide panels at a time, never in full: a
  // block holds as many panels as fit kBBlockBytes (at least one, at most
  // all of them), so the scratch of one task is bounded by a function of k,
  // not a copy of B.
  const int64_t panel_floats = nr * k;
  const int64_t block_panels = std::clamp<int64_t>(
      kBBlockBytes / (panel_floats * static_cast<int64_t>(sizeof(float))), 1,
      npanels);
  const int64_t block_cols = block_panels * nr;
  const int64_t nblocks = (npanels + block_panels - 1) / block_panels;
  const int64_t col_step = trans_b ? ldb : 1;  // op(B) column j: b + j*step

  // C[rows of A panels [pi0, pi1)] x [B panels of `bp`, starting at column
  // j_begin, covering n_cols columns] — one micro-kernel call per tile.
  auto tiles = [&](int64_t pi0, int64_t pi1, const float* bp, int64_t j_begin,
                   int64_t n_cols) {
    const int64_t panels = (n_cols + nr - 1) / nr;
    for (int64_t pi = pi0; pi < pi1; ++pi) {
      const int64_t i0 = pi * mr;
      const int64_t mr_eff = std::min(mr, m - i0);
      const float* apanel = ap.data() + pi * mr * k;
      float* crow = c + i0 * ldc + j_begin;
      for (int64_t pj = 0; pj < panels; ++pj) {
        const int64_t j0 = pj * nr;
        kern(k, apanel, bp + pj * panel_floats, crow + j0, ldc, mr_eff,
             std::min(nr, n_cols - j0), alpha);
      }
    }
  };
  // Blocks [blk_begin, blk_end) of B, each packed into one task-local
  // buffer and run against every A panel.
  auto run_blocks = [&](int64_t blk_begin, int64_t blk_end) {
    std::vector<float> bp(static_cast<size_t>(block_panels * panel_floats));
    for (int64_t blk = blk_begin; blk < blk_end; ++blk) {
      const int64_t j0 = blk * block_cols;
      const int64_t cols = std::min(block_cols, n - j0);
      pack_b(trans_b, k, cols, b + j0 * col_step, ldb, bp.data());
      tiles(0, mpanels, bp.data(), j0, cols);
    }
  };

  // Every C element is one micro-kernel call over the full k loop in k
  // order, whichever split runs it, so any thread count (and the block
  // size) gives bit-identical results. threads=1 forces serial; small
  // products stay serial to skip synchronization overhead.
  const int64_t flops = m * n * k;
  if (threads_ == 1 || flops < (1 << 16)) {
    run_blocks(0, nblocks);
    return;
  }
  const int64_t lanes = static_cast<int64_t>(global_pool().size()) + 1;
  if (nblocks >= lanes) {
    parallel_for(nblocks, run_blocks);
    return;
  }
  // Too few B blocks to feed the pool: B is small (under `lanes` blocks),
  // so pack it once and split over A's row panels instead.
  std::vector<float> bp(static_cast<size_t>(npanels * panel_floats));
  pack_b(trans_b, k, n, b, ldb, bp.data());
  parallel_for(mpanels, [&](int64_t pi0, int64_t pi1) {
    tiles(pi0, pi1, bp.data(), 0, n);
  });
}

void SimdEngine::gemv(bool trans_a, int64_t m, int64_t n, float alpha,
                      const float* a, int64_t lda, const float* x, float beta,
                      float* y) const {
  const int64_t len = trans_a ? n : m;
  if (beta == 0.f) {
    std::fill(y, y + len, 0.f);
  } else if (beta != 1.f) {
    for (int64_t j = 0; j < len; ++j) y[j] *= beta;
  }
  if (alpha == 0.f || m == 0 || n == 0) return;  // never reads A or x
  pick_gemv()(trans_a, m, n, alpha, a, lda, x, y);
}

}  // namespace rhw::core
