// Randomized property tests for the dense GEMM (dense/gemm.hpp), mirroring
// test_spmm_properties.cpp:
//   - gemm is bitwise-equal to an exact-order scalar reference (k ascending,
//     `c + (alpha * a) * b`, no update where alpha * a == 0, beta folded into
//     the start value) in all four transpose modes, on ragged shapes, for
//     beta in {0 over NaN garbage, 1, 0.5}, on operands holding +0 and -0,
//     at 1-4 and 8 kernel threads; the k panels of the tall dW shape are
//     crossed too. ctest runs this binary once more per SIMD target
//     (PLEXUS_SIMD), so every register-tile shape meets the same reference
//   - gemm agrees with a naive double-precision triple-loop reference
//   - transpose-mode algebra: op(A)*op(B) == materialised-transpose products
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "dense/gemm.hpp"
#include "dense/matrix.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace pd = plexus::dense;
namespace ps = plexus::simd;
namespace pu = plexus::util;

namespace {

pd::Matrix random_dense(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  pu::CounterRng rng(seed);
  pd::Matrix m(r, c);
  for (std::int64_t i = 0; i < r * c; ++i) {
    m.flat()[static_cast<std::size_t>(i)] = rng.uniform_at(static_cast<std::uint64_t>(i), -1, 1);
  }
  return m;
}

/// Naive triple-loop reference for C = alpha * op(A) * op(B) + beta * C,
/// accumulated in double precision.
pd::Matrix naive_gemm(pd::Trans ta, pd::Trans tb, float alpha, const pd::Matrix& a,
                      const pd::Matrix& b, float beta, const pd::Matrix& c_in) {
  const std::int64_t m = pd::op_rows(a, ta);
  const std::int64_t k = pd::op_cols(a, ta);
  const std::int64_t n = pd::op_cols(b, tb);
  pd::Matrix c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ta == pd::Trans::N ? a.at(i, kk) : a.at(kk, i);
        const float bv = tb == pd::Trans::N ? b.at(kk, j) : b.at(j, kk);
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c.at(i, j) = static_cast<float>(static_cast<double>(alpha) * acc +
                                      static_cast<double>(beta) * static_cast<double>(c_in.at(i, j)));
    }
  }
  return c;
}

float op_at(const pd::Matrix& x, pd::Trans t, std::int64_t r, std::int64_t c) {
  return t == pd::Trans::N ? x.at(r, c) : x.at(c, r);
}

/// The per-element order gemm promises: start from beta * C (+0 when
/// beta == 0, C itself when beta == 1), then for kk ascending add
/// (alpha * a) * b unless alpha * a == 0, one multiply and one add each.
pd::Matrix exact_order_gemm(pd::Trans ta, pd::Trans tb, float alpha, const pd::Matrix& a,
                            const pd::Matrix& b, float beta, const pd::Matrix& c_in) {
  const std::int64_t m = pd::op_rows(a, ta);
  const std::int64_t k = pd::op_cols(a, ta);
  const std::int64_t n = pd::op_cols(b, tb);
  pd::Matrix c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      if (beta == 1.0f) {
        acc = c_in.at(i, j);
      } else if (beta != 0.0f) {
        acc = c_in.at(i, j) * beta;
      }
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * op_at(a, ta, i, kk);
        if (av == 0.0f) continue;
        acc += av * op_at(b, tb, kk, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

/// Random values in [-1, 1) with exact +0 and -0 sprinkled in.
pd::Matrix signed_zero_dense(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  pd::Matrix m = random_dense(r, c, seed);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    if (i % 5 == 2) m.flat()[static_cast<std::size_t>(i)] = 0.0f;
    if (i % 7 == 3) m.flat()[static_cast<std::size_t>(i)] = -0.0f;
  }
  return m;
}

bool bitwise_equal(const pd::Matrix& x, const pd::Matrix& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), static_cast<std::size_t>(x.size()) * sizeof(float)) == 0;
}

/// Runs every (ta, tb, beta) case of one m x n x k shape against the
/// exact-order reference at 1-4 and 8 kernel threads.
void check_exact_order(std::int64_t m, std::int64_t n, std::int64_t k, std::uint64_t seed) {
  const pd::Trans modes[] = {pd::Trans::N, pd::Trans::T};
  for (const pd::Trans ta : modes) {
    for (const pd::Trans tb : modes) {
      pd::Matrix a = ta == pd::Trans::N ? signed_zero_dense(m, k, seed)
                                        : signed_zero_dense(k, m, seed);
      pd::Matrix b = tb == pd::Trans::N ? signed_zero_dense(k, n, seed + 1)
                                        : signed_zero_dense(n, k, seed + 1);
      // op(A) row 0 is all (signed) zeros, so every term of C row 0 is
      // skipped: it must keep its start value, -0 included. op(A) column
      // k-1 is zero too, and the matching op(B) row holds an inf that a
      // missing skip would turn into NaN (0 * inf).
      for (std::int64_t kk = 0; kk < k; ++kk) {
        (ta == pd::Trans::N ? a.at(0, kk) : a.at(kk, 0)) = kk % 2 == 0 ? 0.0f : -0.0f;
      }
      if (k > 0) {
        for (std::int64_t i = 0; i < m; ++i) {
          (ta == pd::Trans::N ? a.at(i, k - 1) : a.at(k - 1, i)) = 0.0f;
        }
        (tb == pd::Trans::N ? b.at(k - 1, n - 1) : b.at(n - 1, k - 1)) =
            std::numeric_limits<float>::infinity();
      }
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        pd::Matrix c0 = beta == 0.0f
                            ? pd::Matrix(m, n, std::numeric_limits<float>::quiet_NaN())
                            : signed_zero_dense(m, n, seed + 2);
        if (beta != 0.0f) {
          for (std::int64_t j = 0; j < n; ++j) c0.at(0, j) = -0.0f;
        }
        const float alpha = seed % 2 == 0 ? 1.0f : -0.75f;
        const pd::Matrix want = exact_order_gemm(ta, tb, alpha, a, b, beta, c0);
        for (const int threads : {1, 2, 3, 4, 8}) {
          pu::ScopedIntraRankThreads scope(threads);
          pd::Matrix c = c0;
          pd::gemm(ta, tb, alpha, a, b, beta, c);
          ASSERT_TRUE(bitwise_equal(c, want))
              << m << "x" << n << "x" << k << " ta=" << (ta == pd::Trans::T)
              << " tb=" << (tb == pd::Trans::T) << " beta=" << beta << " threads=" << threads
              << " simd=" << ps::target_name(ps::active_target());
        }
      }
    }
  }
}

}  // namespace

TEST(GemmProperties, BitwiseEqualsExactOrderReferenceOnRaggedShapes) {
  const std::int64_t sizes[] = {1, 7, 8, 9, 31, 33, 47, 100, 257};
  std::uint64_t seed = 1;
  for (const std::int64_t m : sizes) {
    for (const std::int64_t n : sizes) {
      for (const std::int64_t k : sizes) {
        if (m * n * k > (std::int64_t{1} << 17)) continue;  // keeps the sweep ~1 s
        check_exact_order(m, n, k, seed);
        if (HasFatalFailure()) return;
        seed += 3;
      }
    }
  }
}

TEST(GemmProperties, BitwiseEqualsExactOrderReferenceAcrossKPanels) {
  // The tall dW shape (k = rows >> m, n) is walked in k panels with the C
  // tile reloaded between them; k = 1601 crosses several panel boundaries.
  check_exact_order(47, 33, 1601, 11);
  check_exact_order(100, 47, 1100, 12);
  check_exact_order(9, 128, 0, 13);  // k == 0: C = beta * C
}

TEST(GemmProperties, MatchesNaiveReferenceAllModesRandomized) {
  const pd::Trans modes[] = {pd::Trans::N, pd::Trans::T};
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const std::int64_t m = 9 + static_cast<std::int64_t>(trial) * 11;
    const std::int64_t k = 13 + static_cast<std::int64_t>(trial) * 5;
    const std::int64_t n = 4 + static_cast<std::int64_t>(trial) * 7;
    const float alpha = 0.5f + 0.25f * static_cast<float>(trial);
    const float beta = trial % 3 == 0 ? 0.0f : (trial % 3 == 1 ? 1.0f : -0.75f);
    for (const pd::Trans ta : modes) {
      for (const pd::Trans tb : modes) {
        const pd::Matrix a = ta == pd::Trans::N ? random_dense(m, k, 100 + trial)
                                                : random_dense(k, m, 100 + trial);
        const pd::Matrix b = tb == pd::Trans::N ? random_dense(k, n, 200 + trial)
                                                : random_dense(n, k, 200 + trial);
        pd::Matrix c = random_dense(m, n, 300 + trial);
        const pd::Matrix ref = naive_gemm(ta, tb, alpha, a, b, beta, c);
        pd::gemm(ta, tb, alpha, a, b, beta, c);
        EXPECT_LT(pd::Matrix::max_abs_diff(c, ref), 1e-4f)
            << "trial " << trial << " ta=" << (ta == pd::Trans::T) << " tb="
            << (tb == pd::Trans::T);
      }
    }
  }
}

TEST(GemmProperties, TransposeModesAgreeWithMaterialisedTransposes) {
  const pd::Matrix a = random_dense(21, 17, 1);
  const pd::Matrix b = random_dense(21, 12, 2);
  // A^T * B via mode flags vs an explicit transposed copy: the same op(A)
  // values in the same per-element order, so results must match bitwise.
  const pd::Matrix via_modes = pd::matmul(a, b, pd::Trans::T, pd::Trans::N);
  const pd::Matrix via_copies = pd::matmul(a.transposed(), b);
  EXPECT_EQ(pd::Matrix::max_abs_diff(via_modes, via_copies), 0.0f);
}
