// The bitwise contract of the runtime-dispatched SIMD kernels
// (util/simd.hpp): every target's table — scalar, AVX2, AVX-512 — must
// produce bit-for-bit the scalar reference's output for any feature width,
// including widths that exercise the vector tails (1, 7, 15, 33) and the
// empty edge (0). `kernels(target)` pins a specific table, so one process
// covers every target the CPU supports without re-execing under PLEXUS_SIMD.
//
// The bf16 wire-format helpers are property-tested here too: exact
// round-trip for values whose mantissa fits bf16, half-ulp-bounded relative
// error everywhere else (round-to-nearest-even), and sign/inf/NaN handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "dense/matrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace ps = plexus::simd;

namespace {

constexpr std::int64_t kWidths[] = {0, 1, 7, 8, 15, 16, 33, 64};

std::vector<ps::Target> supported_targets() {
  std::vector<ps::Target> out;
  for (const ps::Target t : {ps::Target::Scalar, ps::Target::Avx2, ps::Target::Avx512}) {
    if (ps::target_supported(t)) out.push_back(t);
  }
  return out;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed, float lo = -2.0f,
                                 float hi = 2.0f) {
  plexus::util::CounterRng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform_at(i, lo, hi);
  return v;
}

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want,
                          const char* what, ps::Target t, std::int64_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t gb = 0, wb = 0;
    std::memcpy(&gb, &got[i], 4);
    std::memcpy(&wb, &want[i], 4);
    ASSERT_EQ(gb, wb) << what << ": target " << ps::target_name(t) << ", width " << n
                      << ", element " << i;
  }
}

}  // namespace

TEST(SimdKernels, ScalarAlwaysSupportedAndActiveTargetIs) {
  EXPECT_TRUE(ps::target_supported(ps::Target::Scalar));
  EXPECT_TRUE(ps::target_supported(ps::active_target()));
  EXPECT_STREQ(ps::target_name(ps::Target::Scalar), "scalar");
  EXPECT_STREQ(ps::target_name(ps::Target::Avx2), "avx2");
  EXPECT_STREQ(ps::target_name(ps::Target::Avx512), "avx512");
}

TEST(SimdKernels, SpmmRowsBitwiseAcrossTargetsAndWidths) {
  // Hand-built CSR with empty rows, duplicate columns and hub rows.
  const std::vector<std::int64_t> rp = {0, 3, 3, 7, 8, 12, 15};
  const std::vector<std::int32_t> ci = {0, 4, 9, 1, 1, 5, 8, 0, 2, 3, 6, 7, 9, 9, 4};
  const auto va = random_floats(ci.size(), 11);
  const std::int64_t rows = 6, bro = 10;
  for (const std::int64_t n : kWidths) {
    const auto b = random_floats(static_cast<std::size_t>(bro * n), 13);
    const auto seed_c = random_floats(static_cast<std::size_t>(rows * n), 17);
    for (const bool accumulate : {false, true}) {
      std::vector<float> want = seed_c;
      ps::kernels(ps::Target::Scalar)
          .spmm_rows(rp.data(), ci.data(), va.data(), b.data(), n, want.data(), n, 0, rows, n,
                     accumulate);
      for (const ps::Target t : supported_targets()) {
        std::vector<float> got = seed_c;
        ps::kernels(t).spmm_rows(rp.data(), ci.data(), va.data(), b.data(), n, got.data(), n, 0,
                                 rows, n, accumulate);
        expect_bitwise_equal(got, want, accumulate ? "spmm+=" : "spmm", t, n);
      }
    }
  }
}

TEST(SimdKernels, SpmmRowsMatchesSerialReferenceThroughCsr) {
  // The public contract: any target == spmm_rows_serial on a real Csr.
  plexus::util::CounterRng rng(23);
  const std::int64_t rows = 37, cols = 29;
  std::vector<std::int64_t> rp(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<std::int32_t> ci;
  std::vector<float> va;
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto deg = static_cast<std::int64_t>(rng.uniform_at(static_cast<std::uint64_t>(r)) * 6);
    for (std::int64_t k = 0; k < deg; ++k) {
      const auto u = static_cast<std::uint64_t>(r * 100 + k);
      ci.push_back(static_cast<std::int32_t>(rng.uniform_at(u) * static_cast<double>(cols)));
      va.push_back(rng.uniform_at(u + 1, -1, 1));
    }
    rp[static_cast<std::size_t>(r) + 1] = static_cast<std::int64_t>(ci.size());
  }
  const auto a = plexus::sparse::Csr::from_parts(rows, cols, rp, ci, va);
  for (const std::int64_t n : {std::int64_t{7}, std::int64_t{33}}) {
    plexus::dense::Matrix b(cols, n);
    for (std::int64_t i = 0; i < b.size(); ++i) {
      b.flat()[static_cast<std::size_t>(i)] =
          rng.uniform_at(static_cast<std::uint64_t>(1000 + i), -1, 1);
    }
    plexus::dense::Matrix want(rows, n);
    plexus::sparse::spmm_rows_serial(a, b, want, 0, rows);
    for (const ps::Target t : supported_targets()) {
      plexus::dense::Matrix got(rows, n);
      ps::kernels(t).spmm_rows(a.row_ptr().data(), a.col_idx().data(), a.vals().data(), b.data(),
                               b.cols(), got.data(), got.cols(), 0, rows, n, false);
      for (std::int64_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.flat()[static_cast<std::size_t>(i)],
                  want.flat()[static_cast<std::size_t>(i)])
            << "target " << ps::target_name(t) << ", width " << n << ", element " << i;
      }
    }
  }
}

namespace {

/// Covers a rows x cols block of C with `k`'s own register tiles, the way
/// dense::gemm walks them: every target computes the same product, and the
/// block edges land on short-row and masked-column tiles of a different
/// shape per target.
void gemm_by_tiles(const ps::Kernels& k, const float* a, std::int64_t a_rs, std::int64_t a_ks,
                   const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                   std::int64_t rows, std::int64_t cols, std::int64_t kc, float alpha,
                   float beta) {
  for (std::int64_t i0 = 0; i0 < rows; i0 += k.gemm_mr) {
    for (std::int64_t j0 = 0; j0 < cols; j0 += k.gemm_nr) {
      k.gemm_tile(a + i0 * a_rs, a_rs, a_ks, b + j0, ldb, c + i0 * ldc + j0, ldc,
                  std::min(k.gemm_mr, rows - i0), std::min(k.gemm_nr, cols - j0), kc, alpha,
                  beta);
    }
  }
}

}  // namespace

TEST(SimdKernels, GemmTileBitwiseAcrossTargetsOnPartialTiles) {
  // Row counts around the 4- and 8-row tiles, column counts around the 4-,
  // 16- and 32-wide tiles (and the 8/16-lane vector tails inside them). C and
  // B carry 3 columns of padding that no tile may read into C or write.
  const std::int64_t kc = 13;
  for (const std::int64_t rows : {1, 3, 4, 5, 8, 9, 13}) {
    for (const std::int64_t cols : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47}) {
      const std::int64_t ldb = cols + 3, ldc = cols + 3;
      auto a = random_floats(static_cast<std::size_t>(rows * kc), 41);
      for (std::size_t i = 0; i < a.size(); i += 4) a[i] = i % 8 == 0 ? 0.0f : -0.0f;
      auto b = random_floats(static_cast<std::size_t>(kc * ldb), 43);
      b[0] = std::numeric_limits<float>::infinity();  // meets a[0] == 0: skipped, not NaN
      auto seed_c = random_floats(static_cast<std::size_t>(rows * ldc), 47);
      seed_c[0] = -0.0f;
      // a_rs / a_ks: A read row-major (op(A) = A) and column-major (A^T).
      const std::int64_t layouts[][2] = {{kc, 1}, {1, rows}};
      for (const auto& layout : layouts) {
        for (const float alpha : {1.0f, -0.75f, 0.0f}) {
          for (const float beta : {0.0f, 1.0f, 0.5f}) {
            std::vector<float> want = seed_c;
            if (beta == 0.0f) {
              for (std::int64_t r = 0; r < rows; ++r) {
                for (std::int64_t j = 0; j < cols; ++j) {
                  want[static_cast<std::size_t>(r * ldc + j)] =
                      std::numeric_limits<float>::quiet_NaN();
                }
              }
            }
            const std::vector<float> start = want;
            gemm_by_tiles(ps::kernels(ps::Target::Scalar), a.data(), layout[0], layout[1],
                          b.data(), ldb, want.data(), ldc, rows, cols, kc, alpha, beta);
            for (std::int64_t r = 0; r < rows; ++r) {
              for (std::int64_t j = cols; j < ldc; ++j) {
                const auto idx = static_cast<std::size_t>(r * ldc + j);
                ASSERT_EQ(want[idx], start[idx]) << "scalar tile wrote into C padding";
              }
            }
            for (const ps::Target t : supported_targets()) {
              std::vector<float> got = start;
              gemm_by_tiles(ps::kernels(t), a.data(), layout[0], layout[1], b.data(), ldb,
                            got.data(), ldc, rows, cols, kc, alpha, beta);
              expect_bitwise_equal(got, want, "gemm_tile", t, rows * 1000 + cols);
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ElementwiseAndAdamBitwiseAcrossTargetsAndWidths) {
  for (const std::int64_t n : kWidths) {
    const auto sz = static_cast<std::size_t>(n);
    const auto x = random_floats(sz, 41);
    const auto dy = random_floats(sz, 43);
    const auto g = random_floats(sz, 47, -0.5f, 0.5f);
    const auto p0 = random_floats(sz, 53);
    const auto m0 = random_floats(sz, 59, -0.1f, 0.1f);
    auto v0 = random_floats(sz, 61, 0.0f, 0.1f);

    std::vector<float> relu_want(sz), dx_want(sz);
    ps::kernels(ps::Target::Scalar).relu(x.data(), relu_want.data(), n);
    ps::kernels(ps::Target::Scalar).relu_backward(x.data(), dy.data(), dx_want.data(), n);
    std::vector<float> pw = p0, mw = m0, vw = v0;
    ps::kernels(ps::Target::Scalar)
        .adam_step(pw.data(), g.data(), mw.data(), vw.data(), n, 0.9f, 0.999f, 1e-2f, 1e-8f,
                   0.0f, 1.0f - 0.9f, 1.0f - 0.999f);

    for (const ps::Target t : supported_targets()) {
      std::vector<float> relu_got(sz), dx_got(sz);
      ps::kernels(t).relu(x.data(), relu_got.data(), n);
      ps::kernels(t).relu_backward(x.data(), dy.data(), dx_got.data(), n);
      expect_bitwise_equal(relu_got, relu_want, "relu", t, n);
      expect_bitwise_equal(dx_got, dx_want, "relu_backward", t, n);
      std::vector<float> pg = p0, mg = m0, vg = v0;
      ps::kernels(t).adam_step(pg.data(), g.data(), mg.data(), vg.data(), n, 0.9f, 0.999f, 1e-2f,
                               1e-8f, 0.0f, 1.0f - 0.9f, 1.0f - 0.999f);
      expect_bitwise_equal(pg, pw, "adam p", t, n);
      expect_bitwise_equal(mg, mw, "adam m", t, n);
      expect_bitwise_equal(vg, vw, "adam v", t, n);
    }
  }
}

TEST(SimdKernels, ReluInPlaceBitwiseEqualsOutOfPlace) {
  // The layer applies relu over Q in place and relu_backward over dF_out in
  // place (core/layer.cpp); both must be bitwise the out-of-place result on
  // every target, including the vector tails.
  for (const std::int64_t n : kWidths) {
    const auto sz = static_cast<std::size_t>(n);
    const auto x = random_floats(sz, 71);
    const auto dy = random_floats(sz, 73);
    for (const ps::Target t : supported_targets()) {
      std::vector<float> want(sz), got = x;
      ps::kernels(t).relu(x.data(), want.data(), n);
      ps::kernels(t).relu(got.data(), got.data(), n);
      expect_bitwise_equal(got, want, "relu in place", t, n);

      std::vector<float> dx_want(sz), dx_got = dy;
      ps::kernels(t).relu_backward(x.data(), dy.data(), dx_want.data(), n);
      ps::kernels(t).relu_backward(x.data(), dx_got.data(), dx_got.data(), n);
      expect_bitwise_equal(dx_got, dx_want, "relu_backward in place", t, n);
    }
  }
}

TEST(SimdKernels, ReluBackwardThroughReluOutputMatchesPreActivation) {
  // Hidden layers keep only relu(Q), so backward masks with relu(Q) instead
  // of Q: relu(q) > 0 must hold exactly when q > 0 for every float —
  // signed zeros, NaNs, infinities, denormals and ordinary values alike.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> q = {0.0f,    -0.0f,   kNaN,         -kNaN,     kInf,
                          -kInf,   kDenorm, -kDenorm,     1e-38f,    -1e-38f,
                          1.0f,    -1.0f,   std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest()};
  const auto noise = random_floats(77, 79, -3.0f, 3.0f);
  q.insert(q.end(), noise.begin(), noise.end());
  const auto n = static_cast<std::int64_t>(q.size());
  const auto dy = random_floats(q.size(), 83);
  for (const ps::Target t : supported_targets()) {
    const auto& k = ps::kernels(t);
    std::vector<float> fq(q.size()), want(q.size()), got(q.size());
    k.relu(q.data(), fq.data(), n);
    k.relu_backward(q.data(), dy.data(), want.data(), n);
    k.relu_backward(fq.data(), dy.data(), got.data(), n);
    expect_bitwise_equal(got, want, "relu_backward(relu(q))", t, n);
  }
}

// ---------------------------------------------------------------------------
// bf16 wire-format properties.

TEST(Bf16, ExactRoundTripForSevenBitMantissas) {
  // Any fp32 whose mantissa fits bf16's 7 stored bits survives unchanged.
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 1.5f, -2.25f, 1.984375f, 0.0078125f, 96.0f,
                        -0x1.5p126f, 0x1p-126f}) {
    EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(f)), f) << f;
  }
}

TEST(Bf16, BoundedRelativeErrorEverywhere) {
  // Round-to-nearest-even: at most half a bf16 ulp, i.e. 2^-8 relative.
  plexus::util::CounterRng rng(67);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const auto mag = static_cast<float>(std::exp(rng.uniform_at(2 * i, -30.0f, 30.0f)));
    const float f = rng.uniform_at(2 * i + 1, -1, 1) * mag;
    const float rt = plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(f));
    EXPECT_LE(std::fabs(rt - f), std::fabs(f) * 0x1p-8f) << f;
  }
}

TEST(Bf16, SignedZeroInfNanHandling) {
  const float pz = plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(0.0f));
  const float nz = plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(-0.0f));
  EXPECT_EQ(pz, 0.0f);
  EXPECT_FALSE(std::signbit(pz));
  EXPECT_TRUE(std::signbit(nz));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(inf)), inf);
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(-inf)), -inf);
  const float rtn =
      plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(std::nanf("")));
  EXPECT_TRUE(std::isnan(rtn));
  // A large finite value inside bf16's range must stay finite (the nearest
  // bf16 neighbour of 3.3e38 is below the 3.39e38 bf16 maximum).
  EXPECT_TRUE(std::isfinite(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(3.3e38f))));
}

TEST(Bf16, RoundToNearestEvenTies) {
  // 1 + 2^-8 sits exactly between bf16 neighbours 1.0 and 1 + 2^-7; RNE
  // keeps the even mantissa (1.0). One ulp above the tie rounds up.
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(1.0f + 0x1p-8f)), 1.0f);
  const float above = std::nextafter(1.0f + 0x1p-8f, 2.0f);
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(above)), 1.0f + 0x1p-7f);
  // 1 + 3 * 2^-8: between 1 + 2^-7 and 1 + 2^-6, ties to even = 1 + 2^-6.
  EXPECT_EQ(plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(1.0f + 3 * 0x1p-8f)),
            1.0f + 0x1p-6f);
}

TEST(Bf16, PackUnpackAccumulateAgreeWithScalarHelpers) {
  const auto src = random_floats(257, 71, -8.0f, 8.0f);  // odd length: vector tails
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<std::uint16_t> wire(src.size());
  plexus::simd::bf16_pack(src.data(), wire.data(), n);
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(wire[i], plexus::simd::bf16_from_f32(src[i])) << i;
  }
  std::vector<float> unpacked(src.size());
  plexus::simd::bf16_unpack(wire.data(), unpacked.data(), n);
  std::vector<float> assigned(src.size(), -99.0f);
  plexus::simd::bf16_assign_f32(assigned.data(), wire.data(), n);
  auto acc = random_floats(src.size(), 73);
  const auto acc0 = acc;
  plexus::simd::bf16_accumulate_f32(acc.data(), wire.data(), n);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float w = plexus::simd::f32_from_bf16(wire[i]);
    ASSERT_EQ(unpacked[i], w) << i;
    ASSERT_EQ(assigned[i], w) << i;
    ASSERT_EQ(acc[i], acc0[i] + w) << i;  // accumulation happens in fp32
  }
}
