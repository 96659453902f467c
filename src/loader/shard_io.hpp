#pragma once
/// \file shard_io.hpp
/// Offline 2D-sharded dataset files and the parallel data loader (paper
/// section 5.4).
///
/// Preprocessing writes the adjacency as an R x C grid of CSR block files and
/// the features as R row-block files. A rank that needs rows [r0, r1) and
/// columns [c0, c1) of the adjacency opens only the intersecting block files,
/// merges them, and extracts its exact shard — instead of loading the whole
/// dataset into host memory first (the naive loader, also provided for the
/// comparison the paper reports: 146 GB -> 9 GB and 139 s -> 7 s for
/// ogbn-papers100M on 64 GPUs with 16 x 16 shards).
///
/// Every adjacency window, blocking or streamed, is built by one routine
/// (assemble_adjacency_window) straight from the block files' CSR arrays.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dense/matrix.hpp"
#include "loader/mapped_block.hpp"
#include "sparse/csr.hpp"

namespace plexus::io {

struct ShardedMeta {
  std::int64_t num_nodes = 0;
  std::int64_t feature_dim = 0;
  std::int64_t num_classes = 0;
  std::int32_t grid_rows = 0;
  std::int32_t grid_cols = 0;
  std::int64_t adjacency_nnz = 0;
};

/// Accounting for one load operation.
struct LoadStats {
  std::int64_t bytes_read = 0;
  std::int64_t files_opened = 0;
  std::int64_t peak_host_bytes = 0;  ///< high-water mark of buffered data
  double seconds = 0.0;
};

/// Trainer-level dataset scalars (written by the distributed driver's
/// preprocess step, `core::write_sharded_plexus_dataset`) that ride alongside
/// ShardedMeta: the ShardedMeta shapes describe the *padded* matrices the
/// block files carry, these record what is real inside the padding.
struct PlexusShardMeta {
  std::int64_t valid_nodes = 0;        ///< un-padded node count
  std::int64_t valid_feature_dim = 0;  ///< un-padded feature width
  std::int64_t train_total = 0;        ///< number of training nodes
  std::int32_t scheme = 0;             ///< core::PermutationScheme as int
  std::int32_t adjacency_versions = 1; ///< 1, or 2 under Double permutation
};

/// Per-split node masks (one byte per padded node).
struct ShardedMasks {
  std::vector<std::uint8_t> train;
  std::vector<std::uint8_t> val;
  std::vector<std::uint8_t> test;
};

/// Write `adj` (N x N) and `features` (N x D) into `dir` as grid_rows x
/// grid_cols adjacency blocks + grid_rows feature row blocks + labels.
void write_sharded_dataset(const std::string& dir, const sparse::Csr& adj,
                           const dense::Matrix& features,
                           const std::vector<std::int32_t>& labels, std::int64_t num_classes,
                           std::int32_t grid_rows, std::int32_t grid_cols);

/// Write one CSR matrix as a grid of `<prefix>_<r>_<c>.plx` block files (the
/// layout write_sharded_dataset uses with prefix "adj"). Extra adjacency
/// versions (the Double permutation's odd-layer matrix) go under their own
/// prefix in the same directory.
void write_adjacency_blocks(const std::string& dir, const std::string& prefix,
                            const sparse::Csr& adj, std::int32_t grid_rows,
                            std::int32_t grid_cols);

void write_plexus_meta(const std::string& dir, const PlexusShardMeta& m);

void write_masks(const std::string& dir, const ShardedMasks& masks);

ShardedMeta read_meta(const std::string& dir);

PlexusShardMeta read_plexus_meta(const std::string& dir);

ShardedMasks load_masks(const std::string& dir);

/// One adjacency block file viewed in place: its header and its three CSR
/// arrays as spans into the file bytes (a mapping or the heap-read copy).
struct AdjacencyBlockView {
  const std::string* path = nullptr;  ///< named in every diagnostic
  std::int64_t row0 = 0;              ///< global row of local row 0
  std::int64_t col0 = 0;              ///< global column of local column 0
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::span<const std::int64_t> row_ptr;  ///< rows + 1 entries
  std::span<const std::int32_t> col_idx;  ///< local columns
  std::span<const float> vals;
};

/// Parse one block file: magic, header, then row_ptr / col_idx / vals.
/// Throws std::runtime_error naming the file on a bad magic, a negative header
/// field, a truncated file or a misaligned array.
AdjacencyBlockView parse_adjacency_block(const MappedBlock& block);

/// Window [r0, r1) x [c0, c1) of a matrix, from the blocks intersecting it,
/// ordered by row stripe then column stripe. Counts each window row, then
/// fills row_ptr, col_idx and vals once; a row concatenates its segments in
/// column-stripe order, so its columns come out strictly increasing without
/// a sort. Validates every block's row_ptr over all its rows, and each
/// window row's columns (strictly increasing, inside the block): a failure
/// throws std::runtime_error naming the file.
sparse::Csr assemble_adjacency_window(std::span<const AdjacencyBlockView> blocks,
                                      std::int64_t r0, std::int64_t r1, std::int64_t c0,
                                      std::int64_t c1);

/// Hands out one block file by path; the caller decides how (open or map it,
/// serve it from a cache) and what to count.
using BlockFetch = std::function<std::shared_ptr<const MappedBlock>(const std::string& path)>;

/// Fetch the `<prefix>` block files intersecting [r0, r1) x [c0, c1) of the
/// shard grid with stripe bounds `row_bounds` x `col_bounds`, check each
/// header against its stripe, and assemble the window. The fetched blocks
/// stay pinned until the window is built.
sparse::Csr read_adjacency_window(const std::string& dir, const std::string& prefix,
                                  std::span<const std::int64_t> row_bounds,
                                  std::span<const std::int64_t> col_bounds, std::int64_t r0,
                                  std::int64_t r1, std::int64_t c0, std::int64_t c1,
                                  const BlockFetch& fetch);

/// Parallel loader: merge only the blocks intersecting [r0, r1) x [c0, c1).
/// `prefix` selects the adjacency version ("adj" = the primary matrix).
sparse::Csr load_adjacency_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats = nullptr,
                                 const std::string& prefix = "adj");

/// Parallel loader for a feature row/column window.
dense::Matrix load_feature_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats = nullptr);

/// Path of the `<prefix>_<r>_<c>.plx` block file inside `dir` — the naming
/// contract shared by write_adjacency_blocks and the streamed block cache.
std::string adjacency_block_path(const std::string& dir, const std::string& prefix, int r, int c);

/// Naive loader: reads the *entire* dataset, then extracts the window
/// (the baseline of section 5.4's comparison).
sparse::Csr load_adjacency_block_naive(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                       std::int64_t c0, std::int64_t c1,
                                       LoadStats* stats = nullptr,
                                       const std::string& prefix = "adj");

std::vector<std::int32_t> load_labels(const std::string& dir);

}  // namespace plexus::io
