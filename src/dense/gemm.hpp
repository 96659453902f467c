#pragma once
/// \file gemm.hpp
/// Single-precision dense matrix multiply with NN/NT/TN/TT modes.
///
/// The paper's section 5.3 exploits the fact that BLAS GEMM performance differs
/// between transpose modes (TN/NT slower than NN on some platforms) and rewrites
/// dL/dW = SGEMM(H^T, dQ) as (SGEMM(dQ^T, H))^T. We expose explicit modes so the
/// machine model can charge mode-dependent cost while the functional result is
/// identical.

#include "dense/matrix.hpp"

namespace plexus::dense {

enum class Trans { N, T };

/// Number of logical rows of op(A).
std::int64_t op_rows(const Matrix& a, Trans t);
/// Number of logical cols of op(A).
std::int64_t op_cols(const Matrix& a, Trans t);

/// C = alpha * op(A) * op(B) + beta * C. C must be preshaped to
/// (op_rows(A), op_cols(B)); beta == 0 overwrites C without reading it.
/// A transposed A is read in place through strides; a transposed B (the
/// small weight operand) is packed once. Threads split the output into
/// register tiles (util/simd.hpp, Kernels::gemm_tile), each walking k in
/// ascending cache-sized panels, so every element sees one fixed order —
/// bitwise-identical for any thread count and SIMD target.
void gemm(Trans ta, Trans tb, float alpha, const Matrix& a, const Matrix& b, float beta,
          Matrix& c);

/// Convenience: returns op(A) * op(B).
Matrix matmul(const Matrix& a, const Matrix& b, Trans ta = Trans::N, Trans tb = Trans::N);

}  // namespace plexus::dense
