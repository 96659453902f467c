#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace plexus::sparse {

Csr::Csr(std::int64_t rows, std::int64_t cols)
    : num_rows_(rows), num_cols_(cols), row_ptr_(static_cast<std::size_t>(rows) + 1, 0) {}

Csr Csr::from_parts(std::int64_t rows, std::int64_t cols, std::vector<std::int64_t> row_ptr,
                    std::vector<std::int32_t> col_idx, std::vector<float> vals) {
  PLEXUS_CHECK(row_ptr.size() == static_cast<std::size_t>(rows) + 1, "row_ptr size");
  PLEXUS_CHECK(col_idx.size() == vals.size(), "col/val size mismatch");
  PLEXUS_CHECK(row_ptr.back() == static_cast<std::int64_t>(col_idx.size()), "row_ptr/nnz");
  Csr out;
  out.num_rows_ = rows;
  out.num_cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.vals_ = std::move(vals);
  return out;
}

namespace {

/// Runs `body(r0, r1)` over `chunks` row ranges of about equal work, where a
/// row's work is its entry count (from `row_ptr`) plus one. Each row belongs
/// to exactly one range, so bodies that write only their own rows produce
/// the same output for any chunking.
void for_row_ranges(std::span<const std::int64_t> row_ptr, std::int64_t chunks,
                    const util::RangeBody& body) {
  const auto rows = static_cast<std::int64_t>(row_ptr.size()) - 1;
  const std::int64_t work = row_ptr.back() + rows;
  if (work < util::kSerialWorkCutoff || chunks <= 1) {
    body(0, rows);
    return;
  }
  // First row whose cumulative work reaches `target`.
  const auto row_at = [&](std::int64_t target) {
    std::int64_t lo = 0;
    std::int64_t hi = rows;
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (row_ptr[static_cast<std::size_t>(mid)] + mid < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  util::parallel_for_grain(0, chunks, 1, [&](std::int64_t c, std::int64_t, std::int64_t) {
    const std::int64_t r0 = row_at(c * work / chunks);
    const std::int64_t r1 = c + 1 == chunks ? rows : row_at((c + 1) * work / chunks);
    if (r0 < r1) body(r0, r1);
  });
}

/// Chunks for the per-row passes: a few per thread, so hub rows even out.
std::int64_t row_pass_chunks() { return 4 * static_cast<std::int64_t>(util::intra_rank_threads()); }

}  // namespace

Csr Csr::from_coo(const Coo& coo, bool sum_duplicates) {
  const std::int64_t n = coo.nnz();
  Csr out(coo.num_rows, coo.num_cols);
  // Every row range scans the whole COO and takes only its own rows, so a
  // row's entries land in COO order — the order duplicates are summed in —
  // whatever the ranges are.
  const auto scan = [&](std::int64_t r0, std::int64_t r1, const auto& take) {
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t r = coo.rows[static_cast<std::size_t>(i)];
      if (r >= r0 && r < r1) take(i, r);
    }
  };

  // Counting pass.
  util::parallel_for(
      0, out.num_rows_,
      [&](std::int64_t r0, std::int64_t r1) {
        scan(r0, r1, [&](std::int64_t, std::int64_t r) {
          out.row_ptr_[static_cast<std::size_t>(r) + 1]++;
        });
      },
      n);
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  PLEXUS_CHECK(out.row_ptr_.back() == n, "coo row out of range");
  out.col_idx_.resize(static_cast<std::size_t>(n));
  out.vals_.resize(static_cast<std::size_t>(n));

  // Scatter pass: one range per thread, as each range rescans the COO.
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for_row_ranges(out.row_ptr_, util::intra_rank_threads(), [&](std::int64_t r0, std::int64_t r1) {
    scan(r0, r1, [&](std::int64_t i, std::int64_t r) {
      const std::int64_t pos = cursor[static_cast<std::size_t>(r)]++;
      out.col_idx_[static_cast<std::size_t>(pos)] = coo.cols[static_cast<std::size_t>(i)];
      out.vals_[static_cast<std::size_t>(pos)] = coo.vals[static_cast<std::size_t>(i)];
    });
  });

  out.sort_rows(sum_duplicates);
  return out;
}

void Csr::sort_rows(bool sum_duplicates) {
  std::vector<std::int64_t> kept(static_cast<std::size_t>(num_rows_), 0);
  for_row_ranges(row_ptr_, row_pass_chunks(), [&](std::int64_t r0, std::int64_t r1) {
    std::vector<std::int64_t> order;
    std::vector<std::int32_t> cols;
    std::vector<float> vals;
    for (std::int64_t r = r0; r < r1; ++r) {
      const auto b = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]);
      const auto e = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
      bool increasing = true;
      for (std::size_t k = b; k < e; ++k) {
        const std::int32_t c = col_idx_[k];
        PLEXUS_CHECK(c >= 0 && c < num_cols_, "coo col out of range");
        if (k > b && col_idx_[k - 1] >= c) increasing = false;
      }
      if (increasing) {
        kept[static_cast<std::size_t>(r)] = static_cast<std::int64_t>(e - b);
        continue;
      }
      // Sort by column; merge duplicates.
      order.resize(e - b);
      std::iota(order.begin(), order.end(), std::int64_t{0});
      std::sort(order.begin(), order.end(), [&](std::int64_t x, std::int64_t y) {
        return col_idx_[b + static_cast<std::size_t>(x)] < col_idx_[b + static_cast<std::size_t>(y)];
      });
      cols.clear();
      vals.clear();
      for (const std::int64_t idx : order) {
        const std::int32_t c = col_idx_[b + static_cast<std::size_t>(idx)];
        const float v = vals_[b + static_cast<std::size_t>(idx)];
        if (!cols.empty() && cols.back() == c) {
          if (sum_duplicates) vals.back() += v;
          // else: keep first occurrence (pattern dedup)
        } else {
          cols.push_back(c);
          vals.push_back(v);
        }
      }
      std::copy(cols.begin(), cols.end(), col_idx_.begin() + static_cast<std::ptrdiff_t>(b));
      std::copy(vals.begin(), vals.end(), vals_.begin() + static_cast<std::ptrdiff_t>(b));
      kept[static_cast<std::size_t>(r)] = static_cast<std::int64_t>(cols.size());
    }
  });

  std::vector<std::int64_t> new_ptr(row_ptr_.size(), 0);
  std::partial_sum(kept.begin(), kept.end(), new_ptr.begin() + 1);
  if (new_ptr.back() == nnz()) return;  // no duplicates: rows sorted in place
  std::vector<std::int32_t> new_cols(static_cast<std::size_t>(new_ptr.back()));
  std::vector<float> new_vals(new_cols.size());
  for_row_ranges(new_ptr, row_pass_chunks(), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const auto from = row_ptr_[static_cast<std::size_t>(r)];
      const auto len = kept[static_cast<std::size_t>(r)];
      const auto to = new_ptr[static_cast<std::size_t>(r)];
      std::copy_n(col_idx_.begin() + from, len, new_cols.begin() + to);
      std::copy_n(vals_.begin() + from, len, new_vals.begin() + to);
    }
  });
  row_ptr_ = std::move(new_ptr);
  col_idx_ = std::move(new_cols);
  vals_ = std::move(new_vals);
}

Csr Csr::permuted(std::span<const std::int64_t> row_map,
                  std::span<const std::int64_t> col_map) const {
  PLEXUS_CHECK(static_cast<std::int64_t>(row_map.size()) == num_rows_, "row_map size");
  PLEXUS_CHECK(static_cast<std::int64_t>(col_map.size()) == num_cols_, "col_map size");
  Csr out(num_rows_, num_cols_);
  // New row sizes, and the old rows of every new row in old-row order (one
  // each when row_map is a permutation).
  std::vector<std::int64_t> src_ptr(static_cast<std::size_t>(num_rows_) + 1, 0);
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    const std::int64_t nr = row_map[static_cast<std::size_t>(r)];
    PLEXUS_CHECK(nr >= 0 && nr < num_rows_, "row_map entry out of range");
    out.row_ptr_[static_cast<std::size_t>(nr) + 1] += row_nnz(r);
    src_ptr[static_cast<std::size_t>(nr) + 1]++;
  }
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  std::partial_sum(src_ptr.begin(), src_ptr.end(), src_ptr.begin());
  std::vector<std::int64_t> src(static_cast<std::size_t>(num_rows_));
  {
    std::vector<std::int64_t> cursor(src_ptr.begin(), src_ptr.end() - 1);
    for (std::int64_t r = 0; r < num_rows_; ++r) {
      src[static_cast<std::size_t>(cursor[static_cast<std::size_t>(row_map[static_cast<std::size_t>(r)])]++)] = r;
    }
  }
  out.col_idx_.resize(static_cast<std::size_t>(nnz()));
  out.vals_.resize(static_cast<std::size_t>(nnz()));
  // Each new row gathers its entries, then restores sorted columns.
  for_row_ranges(out.row_ptr_, row_pass_chunks(), [&](std::int64_t nr0, std::int64_t nr1) {
    std::vector<std::pair<std::int32_t, float>> rowbuf;
    for (std::int64_t nr = nr0; nr < nr1; ++nr) {
      rowbuf.clear();
      for (std::int64_t s = src_ptr[static_cast<std::size_t>(nr)];
           s < src_ptr[static_cast<std::size_t>(nr) + 1]; ++s) {
        const std::int64_t r = src[static_cast<std::size_t>(s)];
        for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
             k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
          rowbuf.emplace_back(
              static_cast<std::int32_t>(
                  col_map[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])]),
              vals_[static_cast<std::size_t>(k)]);
        }
      }
      std::sort(rowbuf.begin(), rowbuf.end());
      auto pos = static_cast<std::size_t>(out.row_ptr_[static_cast<std::size_t>(nr)]);
      for (const auto& [c, v] : rowbuf) {
        out.col_idx_[pos] = c;
        out.vals_[pos] = v;
        ++pos;
      }
    }
  });
  return out;
}

Csr Csr::padded_to(std::int64_t rows, std::int64_t cols) && {
  PLEXUS_CHECK(rows >= num_rows_ && cols >= num_cols_, "padded_to: cannot shrink");
  row_ptr_.resize(static_cast<std::size_t>(rows) + 1, row_ptr_.back());
  num_rows_ = rows;
  num_cols_ = cols;
  return std::move(*this);
}

Csr Csr::transposed() const {
  Csr out(num_cols_, num_rows_);
  for (const std::int32_t c : col_idx_) out.row_ptr_[static_cast<std::size_t>(c) + 1]++;
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  out.col_idx_.resize(static_cast<std::size_t>(nnz()));
  out.vals_.resize(static_cast<std::size_t>(nnz()));
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int32_t c = col_idx_[static_cast<std::size_t>(k)];
      const std::int64_t pos = cursor[static_cast<std::size_t>(c)]++;
      out.col_idx_[static_cast<std::size_t>(pos)] = static_cast<std::int32_t>(r);
      out.vals_[static_cast<std::size_t>(pos)] = vals_[static_cast<std::size_t>(k)];
    }
  }
  return out;  // columns are sorted because we scan rows in order
}

Csr Csr::block(std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1) const {
  PLEXUS_CHECK(0 <= r0 && r0 <= r1 && r1 <= num_rows_, "block row range");
  PLEXUS_CHECK(0 <= c0 && c0 <= c1 && c1 <= num_cols_, "block col range");
  Csr out(r1 - r0, c1 - c0);
  for (std::int64_t r = r0; r < r1; ++r) {
    const auto b = row_ptr_[static_cast<std::size_t>(r)];
    const auto e = row_ptr_[static_cast<std::size_t>(r) + 1];
    // Columns sorted: binary search the [c0, c1) window.
    const auto* cb = col_idx_.data() + b;
    const auto* ce = col_idx_.data() + e;
    const auto* lo = std::lower_bound(cb, ce, static_cast<std::int32_t>(c0));
    const auto* hi = std::lower_bound(cb, ce, static_cast<std::int32_t>(c1));
    for (const auto* p = lo; p != hi; ++p) {
      out.col_idx_.push_back(static_cast<std::int32_t>(*p - c0));
      out.vals_.push_back(vals_[static_cast<std::size_t>(b + (p - cb))]);
    }
    out.row_ptr_[static_cast<std::size_t>(r - r0) + 1] =
        static_cast<std::int64_t>(out.col_idx_.size());
  }
  return out;
}

Csr Csr::row_slice(std::int64_t r0, std::int64_t r1) const {
  return block(r0, r1, 0, num_cols_);
}

std::int64_t Csr::block_nnz(std::int64_t r0, std::int64_t r1, std::int64_t c0,
                            std::int64_t c1) const {
  std::int64_t total = 0;
  for (std::int64_t r = r0; r < r1; ++r) {
    const auto b = row_ptr_[static_cast<std::size_t>(r)];
    const auto e = row_ptr_[static_cast<std::size_t>(r) + 1];
    const auto* cb = col_idx_.data() + b;
    const auto* ce = col_idx_.data() + e;
    total += std::lower_bound(cb, ce, static_cast<std::int32_t>(c1)) -
             std::lower_bound(cb, ce, static_cast<std::int32_t>(c0));
  }
  return total;
}

std::vector<std::int32_t> Csr::referenced_cols(std::int64_t c0, std::int64_t c1) const {
  std::vector<bool> seen(static_cast<std::size_t>(c1 - c0), false);
  for (const std::int32_t c : col_idx_) {
    if (c >= c0 && c < c1) seen[static_cast<std::size_t>(c - c0)] = true;
  }
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<std::int32_t>(c0 + static_cast<std::int64_t>(i)));
  }
  return out;
}

std::vector<float> Csr::to_dense() const {
  std::vector<float> dense(static_cast<std::size_t>(num_rows_ * num_cols_), 0.0f);
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      dense[static_cast<std::size_t>(r * num_cols_ + col_idx_[static_cast<std::size_t>(k)])] +=
          vals_[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

bool Csr::equal(const Csr& a, const Csr& b, float tol) {
  if (a.num_rows_ != b.num_rows_ || a.num_cols_ != b.num_cols_) return false;
  if (a.row_ptr_ != b.row_ptr_ || a.col_idx_ != b.col_idx_) return false;
  for (std::size_t i = 0; i < a.vals_.size(); ++i) {
    if (std::abs(a.vals_[i] - b.vals_[i]) > tol) return false;
  }
  return true;
}

Csr normalize_adjacency(const Csr& a, std::int64_t active_nodes) {
  PLEXUS_CHECK(a.rows() == a.cols(), "normalize_adjacency: square matrix required");
  PLEXUS_CHECK(active_nodes <= a.rows(), "active_nodes exceeds matrix size");
  const std::int64_t rows = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();

  // Degrees of (A + I) over active nodes, and each output row's length:
  // the row plus a self loop when an active row lacks one.
  std::vector<double> inv_sqrt(static_cast<std::size_t>(rows), 0.0);
  Csr out(rows, rows);
  util::parallel_for(
      0, rows,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          double degree = r < active_nodes ? 1.0 : 0.0;
          bool has_self = false;
          for (std::int64_t k = rp[static_cast<std::size_t>(r)];
               k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
            if (ci[static_cast<std::size_t>(k)] != r) {
              degree += 1.0;
            } else {
              has_self = true;
            }
          }
          inv_sqrt[static_cast<std::size_t>(r)] = degree > 0.0 ? 1.0 / std::sqrt(degree) : 0.0;
          out.row_ptr_[static_cast<std::size_t>(r) + 1] =
              a.row_nnz(r) + (!has_self && r < active_nodes ? 1 : 0);
        }
      },
      a.nnz() + rows);
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  out.col_idx_.resize(static_cast<std::size_t>(out.row_ptr_.back()));
  out.vals_.resize(out.col_idx_.size());

  // (A + I) with normalised values, row by row. In a row with strictly
  // increasing columns the self loop goes to its column position; any other
  // row gets it appended and is sorted by sort_rows below, exactly as the
  // serial COO round trip did.
  for_row_ranges(out.row_ptr_, row_pass_chunks(), [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const auto b = rp[static_cast<std::size_t>(r)];
      const auto e = rp[static_cast<std::size_t>(r) + 1];
      const double inv_r = inv_sqrt[static_cast<std::size_t>(r)];
      auto pos = static_cast<std::size_t>(out.row_ptr_[static_cast<std::size_t>(r)]);
      bool self_pending = out.row_ptr_[static_cast<std::size_t>(r) + 1] -
                              out.row_ptr_[static_cast<std::size_t>(r)] > e - b;
      bool increasing = true;
      for (auto k = b + 1; k < e; ++k) {
        if (ci[static_cast<std::size_t>(k) - 1] >= ci[static_cast<std::size_t>(k)]) {
          increasing = false;
        }
      }
      const auto put_self = [&] {
        out.col_idx_[pos] = static_cast<std::int32_t>(r);
        out.vals_[pos] = static_cast<float>(inv_r * inv_r);
        ++pos;
        self_pending = false;
      };
      for (auto k = b; k < e; ++k) {
        const std::int32_t c = ci[static_cast<std::size_t>(k)];
        if (self_pending && increasing && c > r) put_self();
        const double w = static_cast<double>(va[static_cast<std::size_t>(k)]) * inv_r *
                         inv_sqrt[static_cast<std::size_t>(c)];
        out.col_idx_[pos] = c;
        out.vals_[pos] = static_cast<float>(w);
        ++pos;
      }
      if (self_pending) put_self();
    }
  });
  out.sort_rows(/*sum_duplicates=*/true);
  return out;
}

Coo symmetrize_edges(const Coo& directed, bool include_reverse) {
  Coo out;
  out.num_rows = directed.num_rows;
  out.num_cols = directed.num_cols;
  for (std::int64_t i = 0; i < directed.nnz(); ++i) {
    const std::int64_t r = directed.rows[static_cast<std::size_t>(i)];
    const std::int64_t c = directed.cols[static_cast<std::size_t>(i)];
    out.push(r, c, 1.0f);
    if (include_reverse && r != c) out.push(c, r, 1.0f);
  }
  return out;
}

}  // namespace plexus::sparse
