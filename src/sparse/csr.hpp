#pragma once
/// \file csr.hpp
/// Compressed sparse row matrix (fp32 values, 32-bit column indices).
///
/// This is the storage format for adjacency shards. All structural transforms
/// the paper relies on live here: transposition (backward-pass SpMM uses A^T),
/// row/column permutation (section 5.1's single/double permutation schemes),
/// block extraction (2D sharding onto the 3D GPU grid), self-loop insertion and
/// symmetric degree normalisation (section 2.1 preprocessing).

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"

namespace plexus::sparse {

class Csr {
 public:
  Csr() = default;
  Csr(std::int64_t rows, std::int64_t cols);

  /// Row-parallel; a row's entries keep their COO order up to the per-row
  /// sort, so the result (duplicate sums included) is bitwise-identical for
  /// any thread count.
  static Csr from_coo(const Coo& coo, bool sum_duplicates = true);

  std::int64_t rows() const { return num_rows_; }
  std::int64_t cols() const { return num_cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(col_idx_.size()); }

  std::span<const std::int64_t> row_ptr() const { return {row_ptr_.data(), row_ptr_.size()}; }
  std::span<const std::int32_t> col_idx() const { return {col_idx_.data(), col_idx_.size()}; }
  std::span<const float> vals() const { return {vals_.data(), vals_.size()}; }
  std::span<float> vals_mut() { return {vals_.data(), vals_.size()}; }

  std::int64_t row_nnz(std::int64_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// nnz of the row range [r0, r1) — the per-block work estimate of blocked
  /// aggregation (section 5.2); O(1) from the row pointer.
  std::int64_t range_nnz(std::int64_t r0, std::int64_t r1) const {
    return row_ptr_[static_cast<std::size_t>(r1)] - row_ptr_[static_cast<std::size_t>(r0)];
  }

  /// B with B[row_map[u], col_map[v]] = A[u, v]; i.e. B = P_r A P_c^T where the
  /// permutation maps old index -> new index. Row-parallel.
  Csr permuted(std::span<const std::int64_t> row_map, std::span<const std::int64_t> col_map) const;

  /// The same entries in a rows x cols matrix at least this large; the added
  /// rows are empty. Moves the arrays.
  Csr padded_to(std::int64_t rows, std::int64_t cols) &&;

  /// Transposed copy (counting sort; O(nnz)).
  Csr transposed() const;

  /// Sub-block rows [r0, r1) x cols [c0, c1), re-indexed to local coordinates.
  Csr block(std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1) const;

  /// Restriction to rows [r0, r1) keeping the full column space (local row ids).
  Csr row_slice(std::int64_t r0, std::int64_t r1) const;

  /// nnz inside the sub-block without materialising it.
  std::int64_t block_nnz(std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1) const;

  /// Per-row set of referenced columns in [c0, c1) — used by the sparsity-aware
  /// (CAGNET SA) baseline to compute which remote feature rows are needed.
  std::vector<std::int32_t> referenced_cols(std::int64_t c0, std::int64_t c1) const;

  /// Dense (rows x cols) copy; tests only.
  std::vector<float> to_dense() const;

  /// True if structurally equal (same pattern and values).
  static bool equal(const Csr& a, const Csr& b, float tol = 0.0f);

  /// Construction helper used by from_coo / readers: takes ownership of arrays.
  static Csr from_parts(std::int64_t rows, std::int64_t cols, std::vector<std::int64_t> row_ptr,
                        std::vector<std::int32_t> col_idx, std::vector<float> vals);

 private:
  friend Csr normalize_adjacency(const Csr& a, std::int64_t active_nodes);

  /// Puts every row in strictly increasing column order, merging duplicate
  /// columns (summed, or the first kept when !sum_duplicates), and checks the
  /// column range. Rows already strictly increasing stay as they are; the
  /// others get the serial builder's per-row sort, so the result does not
  /// depend on the thread count. Row-parallel.
  void sort_rows(bool sum_duplicates);

  std::int64_t num_rows_ = 0;
  std::int64_t num_cols_ = 0;
  std::vector<std::int64_t> row_ptr_;  // size num_rows_ + 1
  std::vector<std::int32_t> col_idx_;  // size nnz
  std::vector<float> vals_;            // size nnz
};

/// \brief GCN preprocessing (section 2.1): given a square adjacency A restricted
/// to `active_nodes` (rows/cols < active_nodes get self-loops; padded tail stays
/// empty), returns D^{-1/2} (A + I) D^{-1/2} where D is the degree of (A + I).
/// Row-parallel: each row is built on its own, the self loop inserted in
/// column order.
Csr normalize_adjacency(const Csr& a, std::int64_t active_nodes);

/// Symmetrise: returns max(A, A^T) pattern union with value 1.0 entries
/// (generators may emit directed edges; GCN aggregation wants both directions).
Coo symmetrize_edges(const Coo& directed, bool include_reverse = true);

}  // namespace plexus::sparse
