#include "dense/gemm.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace plexus::dense {

std::int64_t op_rows(const Matrix& a, Trans t) { return t == Trans::N ? a.rows() : a.cols(); }
std::int64_t op_cols(const Matrix& a, Trans t) { return t == Trans::N ? a.cols() : a.rows(); }

namespace {

/// Depth of one k panel. Between panels each C tile goes back to memory and
/// is reloaded, so the op(A) and op(B) rows of a panel stay cache-resident
/// while a thread walks its tiles: for the tall dW shape (k = N, m, n <= 128)
/// a panel is at most 512 * 256 * 4 B = 512 KiB, well inside a 1-2 MiB L2.
/// Reloading a float tile is exact, so the depth never changes a result.
constexpr std::int64_t kPanelK = 512;

}  // namespace

void gemm(Trans ta, Trans tb, float alpha, const Matrix& a, const Matrix& b, float beta,
          Matrix& c) {
  const std::int64_t m = op_rows(a, ta);
  const std::int64_t k = op_cols(a, ta);
  const std::int64_t n = op_cols(b, tb);
  PLEXUS_CHECK(op_rows(b, tb) == k, "gemm: inner dimension mismatch");
  PLEXUS_CHECK(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");
  if (m == 0 || n == 0) return;

  // op(A)(i, kk) = a_data[i * a_rs + kk * a_ks]: read in place in both modes.
  const std::int64_t a_rs = ta == Trans::N ? a.cols() : 1;
  const std::int64_t a_ks = ta == Trans::N ? 1 : a.cols();
  // The tile reads op(B) rows with unit column stride. A transposed B is the
  // small weight operand (dX = dQ W^T), so it is packed once.
  Matrix b_packed;
  if (tb == Trans::T) b_packed = b.transposed();
  const Matrix& bn = tb == Trans::T ? b_packed : b;

  // Work is split over output tiles only: each C element is owned by one
  // tile, and each tile walks k ascending from the beta-scaled start, so the
  // result is bitwise-independent of the thread count and the SIMD target.
  const auto& kernels = simd::active_kernels();
  const std::int64_t mr = kernels.gemm_mr;
  const std::int64_t nr = kernels.gemm_nr;
  const std::int64_t col_tiles = (n + nr - 1) / nr;
  const std::int64_t tiles = (m + mr - 1) / mr * col_tiles;
  const auto tile_range = [&](std::int64_t t0, std::int64_t t1) {
    std::int64_t k0 = 0;
    do {  // at least one pass, so k == 0 still applies beta
      const std::int64_t kc = std::min(kPanelK, k - k0);
      const float tile_beta = k0 == 0 ? beta : 1.0f;
      for (std::int64_t t = t0; t < t1; ++t) {
        const std::int64_t i0 = t / col_tiles * mr;
        const std::int64_t j0 = t % col_tiles * nr;
        // With k == 0 the operands are empty and the tile only applies beta.
        const float* at = kc > 0 ? a.data() + i0 * a_rs + k0 * a_ks : nullptr;
        const float* bt = kc > 0 ? bn.data() + k0 * bn.cols() + j0 : nullptr;
        kernels.gemm_tile(at, a_rs, a_ks, bt, bn.cols(), c.row(i0) + j0, c.cols(),
                          std::min(mr, m - i0), std::min(nr, n - j0), kc, alpha, tile_beta);
      }
      k0 += kc;
    } while (k0 < k);
  };
  util::parallel_for(0, tiles, tile_range, /*work_estimate=*/m * n * std::max<std::int64_t>(k, 1));
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  Matrix c(op_rows(a, ta), op_cols(b, tb));
  gemm(ta, tb, 1.0f, a, b, 0.0f, c);
  return c;
}

}  // namespace plexus::dense
