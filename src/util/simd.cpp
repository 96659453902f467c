#include "util/simd.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/logging.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PLEXUS_SIMD_X86 1
#include <immintrin.h>
#else
#define PLEXUS_SIMD_X86 0
#endif

// The scalar fallback is pinned non-vectorized on x86 so "scalar" means the
// same thing on every build (and `speedup_vs_serial` in micro_kernels measures
// SIMD against a true scalar loop, not whatever the autovectorizer produced
// for the baseline ISA). Elsewhere there is no vector target to compare
// against, so the compiler may do its best.
#if PLEXUS_SIMD_X86 && !defined(__clang__)
#define PLEXUS_SCALAR_ATTR __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define PLEXUS_SCALAR_ATTR
#endif

namespace plexus::simd {

namespace {

// ---------------------------------------------------------------------------
// Elementwise kernels. Plain loops cloned per target attribute: every
// operation is one correctly-rounded mul/add/div/sqrt per element, so any
// vectorization of the loop is bitwise-identical to the scalar run.

#define PLEXUS_DEFINE_ELEMENTWISE(SUFFIX, ATTR)                                                    \
  ATTR void relu_##SUFFIX(const float* x, float* y, std::int64_t n) {                              \
    for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;                         \
  }                                                                                                \
  ATTR void relu_backward_##SUFFIX(const float* q, const float* dy, float* dx, std::int64_t n) {   \
    for (std::int64_t i = 0; i < n; ++i) dx[i] = q[i] > 0.0f ? dy[i] : 0.0f;                       \
  }                                                                                                \
  ATTR void adam_step_##SUFFIX(float* p, const float* g, float* m, float* v, std::int64_t n,       \
                               float beta1, float beta2, float lr, float eps, float weight_decay,  \
                               float bc1, float bc2) {                                             \
    if (weight_decay != 0.0f) {                                                                    \
      for (std::int64_t i = 0; i < n; ++i) {                                                       \
        float gi = g[i];                                                                           \
        gi += weight_decay * p[i];                                                                 \
        m[i] = beta1 * m[i] + (1.0f - beta1) * gi;                                                 \
        v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;                                            \
        const float mhat = m[i] / bc1;                                                             \
        const float vhat = v[i] / bc2;                                                             \
        p[i] -= lr * mhat / (std::sqrt(vhat) + eps);                                               \
      }                                                                                            \
    } else {                                                                                       \
      for (std::int64_t i = 0; i < n; ++i) {                                                       \
        const float gi = g[i];                                                                     \
        m[i] = beta1 * m[i] + (1.0f - beta1) * gi;                                                 \
        v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;                                            \
        const float mhat = m[i] / bc1;                                                             \
        const float vhat = v[i] / bc2;                                                             \
        p[i] -= lr * mhat / (std::sqrt(vhat) + eps);                                               \
      }                                                                                            \
    }                                                                                              \
  }

PLEXUS_DEFINE_ELEMENTWISE(scalar, PLEXUS_SCALAR_ATTR)
#if PLEXUS_SIMD_X86
PLEXUS_DEFINE_ELEMENTWISE(avx2, __attribute__((target("avx2"))))
PLEXUS_DEFINE_ELEMENTWISE(avx512, __attribute__((target("avx512f"))))
#endif
#undef PLEXUS_DEFINE_ELEMENTWISE

// ---------------------------------------------------------------------------
// Row kernels: the axpy `c[j] += v * b[j]` over the feature dimension is the
// inner loop of SpMM (and, register-blocked, of the GEMM tile). The vector bodies use
// separate mul + add intrinsics (never FMA — one rounding per operation, same
// as the scalar expression) and handle the tail with scalar ops (AVX2) or a
// masked lane set (AVX-512), so every feature width is bitwise-identical to
// the serial reference.

PLEXUS_SCALAR_ATTR void spmm_rows_scalar(const std::int64_t* rp, const std::int32_t* ci,
                                         const float* va, const float* b, std::int64_t ldb,
                                         float* c, std::int64_t ldc, std::int64_t r0,
                                         std::int64_t r1, std::int64_t n, bool accumulate) {
  for (std::int64_t r = r0; r < r1; ++r) {
    float* crow = c + r * ldc;
    if (!accumulate && n > 0) std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
      const float v = va[k];
      const float* brow = b + static_cast<std::int64_t>(ci[k]) * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  }
}

// GEMM micro-tile (see Kernels::gemm_tile). Every target keeps one C tile in
// registers across the whole k range and updates each element in the same
// order: kk ascending, `c + (alpha * a) * b` as one multiply and one add, and
// no update at all where alpha * a == 0 (a branch in the scalar tile, a
// masked add or blend in the vector tiles). Targets differ only in the tile
// shape, so their results are bitwise-identical.
constexpr std::int64_t kScalarMr = 4;
constexpr std::int64_t kScalarNr = 4;

PLEXUS_SCALAR_ATTR void gemm_tile_scalar(const float* a, std::int64_t a_rs, std::int64_t a_ks,
                                         const float* b, std::int64_t ldb, float* c,
                                         std::int64_t ldc, std::int64_t rows, std::int64_t cols,
                                         std::int64_t kc, float alpha, float beta) {
  float acc[kScalarMr][kScalarNr] = {};
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) {
      const float cv = beta == 0.0f ? 0.0f : c[r * ldc + j];
      acc[r][j] = beta == 0.0f || beta == 1.0f ? cv : cv * beta;
    }
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = b + kk * ldb;
    for (std::int64_t r = 0; r < rows; ++r) {
      const float av = alpha * a[r * a_rs + kk * a_ks];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < cols; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#if PLEXUS_SIMD_X86

__attribute__((target("avx2"))) void spmm_rows_avx2(const std::int64_t* rp,
                                                    const std::int32_t* ci, const float* va,
                                                    const float* b, std::int64_t ldb, float* c,
                                                    std::int64_t ldc, std::int64_t r0,
                                                    std::int64_t r1, std::int64_t n,
                                                    bool accumulate) {
  for (std::int64_t r = r0; r < r1; ++r) {
    float* crow = c + r * ldc;
    if (!accumulate && n > 0) std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
      const float v = va[k];
      const float* brow = b + static_cast<std::int64_t>(ci[k]) * ldb;
      const __m256 vv = _mm256_set1_ps(v);
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 bj = _mm256_loadu_ps(brow + j);
        const __m256 cj = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j, _mm256_add_ps(cj, _mm256_mul_ps(vv, bj)));
      }
      for (; j < n; ++j) crow[j] += v * brow[j];
    }
  }
}

__attribute__((target("avx512f"))) void spmm_rows_avx512(const std::int64_t* rp,
                                                         const std::int32_t* ci, const float* va,
                                                         const float* b, std::int64_t ldb,
                                                         float* c, std::int64_t ldc,
                                                         std::int64_t r0, std::int64_t r1,
                                                         std::int64_t n, bool accumulate) {
  const std::int64_t full = n & ~static_cast<std::int64_t>(15);
  const __mmask16 tail =
      static_cast<__mmask16>((1u << static_cast<unsigned>(n - full)) - 1u);
  for (std::int64_t r = r0; r < r1; ++r) {
    float* crow = c + r * ldc;
    if (!accumulate && n > 0) std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(float));
    for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
      const float v = va[k];
      const float* brow = b + static_cast<std::int64_t>(ci[k]) * ldb;
      const __m512 vv = _mm512_set1_ps(v);
      std::int64_t j = 0;
      for (; j < full; j += 16) {
        const __m512 bj = _mm512_loadu_ps(brow + j);
        const __m512 cj = _mm512_loadu_ps(crow + j);
        _mm512_storeu_ps(crow + j, _mm512_add_ps(cj, _mm512_mul_ps(vv, bj)));
      }
      if (tail != 0) {
        const __m512 bj = _mm512_maskz_loadu_ps(tail, brow + j);
        const __m512 cj = _mm512_maskz_loadu_ps(tail, crow + j);
        _mm512_mask_storeu_ps(crow + j, tail, _mm512_add_ps(cj, _mm512_mul_ps(vv, bj)));
      }
    }
  }
}

// The vector tiles are 8 x 32 (AVX-512: 16 of 32 zmm hold the tile) and
// 4 x 16 (AVX2: 8 of 16 ymm, leaving room for the blend temporaries). A tile
// narrower than one vector-pair drops to NV = 1; column tails are masked
// loads/stores. Rows past `rows` alias the last real row: they are
// computed, never stored, so full and short tiles share one unrolled body.
// The two layouts, `a_rs == 1` (op(A) = A^T, the dW GEMM) and `a_ks == 1`
// (op(A) = A), are peeled so the unit stride is a compile-time constant.

template <int NV>
__attribute__((target("avx2"), always_inline)) inline void gemm_tile_avx2_body(
    const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols, std::int64_t kc,
    float alpha, float beta) {
  constexpr int kMr = 4;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i mask[NV];
  for (int v = 0; v < NV; ++v) {
    mask[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols) - 8 * v), lane);
  }
  std::int64_t a_off[kMr];
  float* crow[kMr];
  for (int r = 0; r < kMr; ++r) {
    const std::int64_t rr = r < rows ? r : rows - 1;
    a_off[r] = rr * a_rs;
    crow[r] = c + rr * ldc;
  }
  __m256 acc[kMr][NV];
  const __m256 vbeta = _mm256_set1_ps(beta);
  for (int r = 0; r < kMr; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (beta == 0.0f) {
        acc[r][v] = _mm256_setzero_ps();
      } else {
        const __m256 cv = _mm256_maskload_ps(crow[r] + 8 * v, mask[v]);
        acc[r][v] = beta == 1.0f ? cv : _mm256_mul_ps(cv, vbeta);
      }
    }
  }
  const __m256 valpha = _mm256_set1_ps(alpha);
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* ak = a + kk * a_ks;
    const float* bk = b + kk * ldb;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_maskload_ps(bk + 8 * v, mask[v]);
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_mul_ps(valpha, _mm256_broadcast_ss(ak + a_off[r]));
      const __m256 live = _mm256_cmp_ps(av, zero, _CMP_NEQ_UQ);
      for (int v = 0; v < NV; ++v) {
        const __m256 sum = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
        acc[r][v] = _mm256_blendv_ps(acc[r][v], sum, live);
      }
    }
  }
  for (int r = 0; r < kMr; ++r) {
    if (r >= rows) break;
    for (int v = 0; v < NV; ++v) _mm256_maskstore_ps(crow[r] + 8 * v, mask[v], acc[r][v]);
  }
}

template <int NV>
__attribute__((target("avx2"))) void gemm_tile_avx2_nv(
    const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols, std::int64_t kc,
    float alpha, float beta) {
  if (a_rs == 1) {
    gemm_tile_avx2_body<NV>(a, 1, a_ks, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  } else {
    gemm_tile_avx2_body<NV>(a, a_rs, 1, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  }
}

__attribute__((target("avx2"))) void gemm_tile_avx2(
    const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols, std::int64_t kc,
    float alpha, float beta) {
  if (cols > 8) {
    gemm_tile_avx2_nv<2>(a, a_rs, a_ks, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  } else {
    gemm_tile_avx2_nv<1>(a, a_rs, a_ks, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  }
}

template <int NV>
__attribute__((target("avx512f"), always_inline)) inline void gemm_tile_avx512_body(
    const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols, std::int64_t kc,
    float alpha, float beta) {
  constexpr int kMr = 8;
  __mmask16 mask[NV];
  for (int v = 0; v < NV; ++v) {
    const std::int64_t left = cols - 16 * v;
    mask[v] = left >= 16 ? static_cast<__mmask16>(0xffffu)
                         : static_cast<__mmask16>((1u << static_cast<unsigned>(left)) - 1u);
  }
  std::int64_t a_off[kMr];
  float* crow[kMr];
  for (int r = 0; r < kMr; ++r) {
    const std::int64_t rr = r < rows ? r : rows - 1;
    a_off[r] = rr * a_rs;
    crow[r] = c + rr * ldc;
  }
  __m512 acc[kMr][NV];
  const __m512 vbeta = _mm512_set1_ps(beta);
  for (int r = 0; r < kMr; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (beta == 0.0f) {
        acc[r][v] = _mm512_setzero_ps();
      } else {
        const __m512 cv = _mm512_maskz_loadu_ps(mask[v], crow[r] + 16 * v);
        acc[r][v] = beta == 1.0f ? cv : _mm512_mul_ps(cv, vbeta);
      }
    }
  }
  const __m512 valpha = _mm512_set1_ps(alpha);
  const __m512 zero = _mm512_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* ak = a + kk * a_ks;
    const float* bk = b + kk * ldb;
    __m512 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm512_maskz_loadu_ps(mask[v], bk + 16 * v);
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_mul_ps(valpha, _mm512_set1_ps(ak[a_off[r]]));
      const __mmask16 live = _mm512_cmp_ps_mask(av, zero, _CMP_NEQ_UQ);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_mask_add_ps(acc[r][v], live, acc[r][v], _mm512_mul_ps(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < kMr; ++r) {
    if (r >= rows) break;
    for (int v = 0; v < NV; ++v) _mm512_mask_storeu_ps(crow[r] + 16 * v, mask[v], acc[r][v]);
  }
}

template <int NV>
__attribute__((target("avx512f"))) void gemm_tile_avx512_nv(
    const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols, std::int64_t kc,
    float alpha, float beta) {
  if (a_rs == 1) {
    gemm_tile_avx512_body<NV>(a, 1, a_ks, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  } else {
    gemm_tile_avx512_body<NV>(a, a_rs, 1, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  }
}

__attribute__((target("avx512f"))) void gemm_tile_avx512(
    const float* a, std::int64_t a_rs, std::int64_t a_ks, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols, std::int64_t kc,
    float alpha, float beta) {
  if (cols > 16) {
    gemm_tile_avx512_nv<2>(a, a_rs, a_ks, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  } else {
    gemm_tile_avx512_nv<1>(a, a_rs, a_ks, b, ldb, c, ldc, rows, cols, kc, alpha, beta);
  }
}

#endif  // PLEXUS_SIMD_X86

constexpr Kernels kScalarKernels{spmm_rows_scalar,     gemm_tile_scalar, kScalarMr,
                                 kScalarNr,            relu_scalar,      relu_backward_scalar,
                                 adam_step_scalar};
#if PLEXUS_SIMD_X86
constexpr Kernels kAvx2Kernels{spmm_rows_avx2, gemm_tile_avx2, 4,
                               16,             relu_avx2,      relu_backward_avx2,
                               adam_step_avx2};
constexpr Kernels kAvx512Kernels{spmm_rows_avx512, gemm_tile_avx512, 8,
                                 32,               relu_avx512,      relu_backward_avx512,
                                 adam_step_avx512};
#endif

Target best_supported() {
  if (target_supported(Target::Avx512)) return Target::Avx512;
  if (target_supported(Target::Avx2)) return Target::Avx2;
  return Target::Scalar;
}

std::string lower(const char* s) {
  std::string v(s);
  for (char& ch : v) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return v;
}

Target resolve_active() {
  Target pick = best_supported();
  const char* env = std::getenv("PLEXUS_SIMD");
  bool forced = false;
  if (env != nullptr && *env != '\0') {
    const std::string v = lower(env);
    if (v == "auto") {
      // keep best_supported
    } else if (v == "avx512") {
      pick = Target::Avx512;
      forced = true;
    } else if (v == "avx2") {
      pick = Target::Avx2;
      forced = true;
    } else if (v == "scalar") {
      pick = Target::Scalar;
      forced = true;
    } else {
      PLEXUS_LOG(Warn) << "PLEXUS_SIMD=" << env
                       << " not recognized (auto|avx512|avx2|scalar); using auto";
    }
  }
  if (forced && !target_supported(pick)) {
    PLEXUS_LOG(Warn) << "PLEXUS_SIMD=" << env << " not supported by this CPU; falling back to "
                     << target_name(best_supported());
    pick = best_supported();
    forced = false;
  }
  PLEXUS_LOG(Info) << "SIMD target: " << target_name(pick)
                   << (forced ? " (forced via PLEXUS_SIMD)" : " (auto-detected)");
  return pick;
}

}  // namespace

const char* target_name(Target t) {
  switch (t) {
    case Target::Scalar: return "scalar";
    case Target::Avx2: return "avx2";
    case Target::Avx512: return "avx512";
  }
  return "?";
}

bool target_supported(Target t) {
  if (t == Target::Scalar) return true;
#if PLEXUS_SIMD_X86
  if (t == Target::Avx2) return __builtin_cpu_supports("avx2") != 0;
  if (t == Target::Avx512) return __builtin_cpu_supports("avx512f") != 0;
#endif
  return false;
}

Target active_target() {
  static const Target t = resolve_active();
  return t;
}

const Kernels& kernels(Target t) {
  PLEXUS_CHECK(target_supported(t),
               std::string("SIMD target not supported on this CPU: ") + target_name(t));
#if PLEXUS_SIMD_X86
  if (t == Target::Avx2) return kAvx2Kernels;
  if (t == Target::Avx512) return kAvx512Kernels;
#endif
  return kScalarKernels;
}

const Kernels& active_kernels() {
  static const Kernels& k = kernels(active_target());
  return k;
}

// ---------------------------------------------------------------------------
// bf16 wire format.

std::uint16_t bf16_from_f32(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  if ((u & 0x7fffffffu) > 0x7f800000u) {
    // NaN: truncate but force a nonzero mantissa so it stays NaN.
    return static_cast<std::uint16_t>((u >> 16) | 0x0040u);
  }
  // Round to nearest, ties to even on the truncated 16 bits.
  u += 0x7fffu + ((u >> 16) & 1u);
  return static_cast<std::uint16_t>(u >> 16);
}

float f32_from_bf16(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

void bf16_pack(const float* src, std::uint16_t* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = bf16_from_f32(src[i]);
}

void bf16_unpack(const std::uint16_t* src, float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = f32_from_bf16(src[i]);
}

void bf16_assign_f32(float* dst, const std::uint16_t* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = f32_from_bf16(src[i]);
}

void bf16_accumulate_f32(float* dst, const std::uint16_t* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += f32_from_bf16(src[i]);
}

}  // namespace plexus::simd
