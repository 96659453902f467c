#include "loader/shard_io.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>

#include "loader/file_io.hpp"
#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace plexus::io {

namespace {

constexpr std::uint64_t kMagic = kPlxMagic;

std::string adj_path(const std::string& dir, const std::string& prefix, int r, int c) {
  return adjacency_block_path(dir, prefix, r, c);
}
std::string feat_path(const std::string& dir, int r) {
  return dir + "/feat_" + std::to_string(r) + ".plx";
}

/// Open one block file for a blocking load, counting it in `stats`.
std::shared_ptr<const MappedBlock> open_counted(const std::string& path, LoadStats& stats) {
  auto block = MappedBlock::open(path);
  stats.files_opened++;
  stats.bytes_read += block->size_bytes();
  return block;
}

}  // namespace

std::string adjacency_block_path(const std::string& dir, const std::string& prefix, int r,
                                 int c) {
  return dir + "/" + prefix + "_" + std::to_string(r) + "_" + std::to_string(c) + ".plx";
}

AdjacencyBlockView parse_adjacency_block(const MappedBlock& block) {
  ByteReader in(block);
  const std::string& path = block.path();
  PLEXUS_CHECK(in.pod<std::uint64_t>() == kMagic, "bad magic in " + path);
  AdjacencyBlockView b;
  b.path = &path;
  b.row0 = in.pod<std::int64_t>();
  b.col0 = in.pod<std::int64_t>();
  b.rows = in.pod<std::int64_t>();
  b.cols = in.pod<std::int64_t>();
  const auto nnz = in.pod<std::int64_t>();
  PLEXUS_CHECK(b.row0 >= 0 && b.col0 >= 0 && b.rows >= 0 && b.cols >= 0 && nnz >= 0,
               "corrupt block header in " + path);
  b.row_ptr = in.array<std::int64_t>(static_cast<std::size_t>(b.rows) + 1);
  b.col_idx = in.array<std::int32_t>(static_cast<std::size_t>(nnz));
  b.vals = in.array<float>(static_cast<std::size_t>(nnz));
  return b;
}

namespace {

/// Local rows of `b` inside the window rows [r0, r1).
std::pair<std::int64_t, std::int64_t> window_rows(const AdjacencyBlockView& b, std::int64_t r0,
                                                  std::int64_t r1) {
  const auto lo = std::clamp(r0 - b.row0, std::int64_t{0}, b.rows);
  return {lo, std::clamp(r1 - b.row0, lo, b.rows)};
}

/// Entry range [k0, k1) of local row `lr` whose columns fall in the window
/// columns [c0, c1). The row's columns must already be validated.
std::pair<std::int64_t, std::int64_t> row_segment(const AdjacencyBlockView& b, std::int64_t lr,
                                                  std::int64_t c0, std::int64_t c1) {
  const auto* first = b.col_idx.data() + b.row_ptr[static_cast<std::size_t>(lr)];
  const auto* last = b.col_idx.data() + b.row_ptr[static_cast<std::size_t>(lr) + 1];
  const auto lc0 = c0 - b.col0;
  const auto lc1 = c1 - b.col0;
  if (lc0 > 0) first = std::lower_bound(first, last, lc0);
  if (lc1 < b.cols) last = std::lower_bound(first, last, lc1);
  return {first - b.col_idx.data(), last - b.col_idx.data()};
}

}  // namespace

sparse::Csr assemble_adjacency_window(std::span<const AdjacencyBlockView> blocks,
                                      std::int64_t r0, std::int64_t r1, std::int64_t c0,
                                      std::int64_t c1) {
  PLEXUS_CHECK(r0 >= 0 && r0 <= r1 && c0 >= 0 && c0 <= c1, "bad adjacency window");
  const std::int64_t rows = r1 - r0;
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);

  // Pass 1: validate every block and count each window row's entries.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const AdjacencyBlockView& b = blocks[i];
    const std::string& path = *b.path;
    if (i > 0) {
      // Same stripe: same rows, columns further right. Next stripe: below.
      const AdjacencyBlockView& p = blocks[i - 1];
      PLEXUS_CHECK(b.row0 == p.row0 ? b.rows == p.rows && b.col0 >= p.col0 + p.cols
                                    : b.row0 >= p.row0 + p.rows,
                   "adjacency block out of stripe order: " + path);
    }
    const auto nnz = static_cast<std::int64_t>(b.col_idx.size());
    // row_ptr contiguity over all rows, not just the window's: a corrupt
    // row_ptr surfaces even when the bad row lies outside the request.
    bool ok = b.row_ptr.front() == 0 && b.row_ptr.back() == nnz;
    for (std::size_t lr = 0; lr + 1 < b.row_ptr.size(); ++lr) {
      ok &= b.row_ptr[lr + 1] >= b.row_ptr[lr];
    }
    PLEXUS_CHECK(ok, "corrupt row pointer in " + path);
    const auto [w0, w1] = window_rows(b, r0, r1);
    for (std::int64_t lr = w0; lr < w1; ++lr) {
      const auto k0 = b.row_ptr[static_cast<std::size_t>(lr)];
      const auto k1 = b.row_ptr[static_cast<std::size_t>(lr) + 1];
      std::int64_t prev = -1;
      bool cols_ok = true;
      for (auto k = k0; k < k1; ++k) {
        const std::int64_t c = b.col_idx[static_cast<std::size_t>(k)];
        cols_ok &= c > prev && c < b.cols;
        prev = c;
      }
      PLEXUS_CHECK(cols_ok, "corrupt column index in " + path);
      const auto [s0, s1] = row_segment(b, lr, c0, c1);
      row_ptr[static_cast<std::size_t>(b.row0 + lr - r0) + 1] += s1 - s0;
    }
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

  // Pass 2: fill one row stripe at a time. A row's segments are appended in
  // the blocks' column-stripe order, which is ascending column order.
  std::vector<std::int32_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<float> vals(col_idx.size());
  for (std::size_t i = 0; i < blocks.size();) {
    std::size_t j = i + 1;
    while (j < blocks.size() && blocks[j].row0 == blocks[i].row0) ++j;
    const auto [w0, w1] = window_rows(blocks[i], r0, r1);
    for (std::int64_t lr = w0; lr < w1; ++lr) {
      auto pos = row_ptr[static_cast<std::size_t>(blocks[i].row0 + lr - r0)];
      for (std::size_t bi = i; bi < j; ++bi) {
        const AdjacencyBlockView& b = blocks[bi];
        const auto [s0, s1] = row_segment(b, lr, c0, c1);
        const auto shift = static_cast<std::int32_t>(b.col0 - c0);
        for (auto k = s0; k < s1; ++k) {
          col_idx[static_cast<std::size_t>(pos + k - s0)] =
              b.col_idx[static_cast<std::size_t>(k)] + shift;
        }
        std::copy(b.vals.begin() + s0, b.vals.begin() + s1,
                  vals.begin() + static_cast<std::ptrdiff_t>(pos));
        pos += s1 - s0;
      }
    }
    i = j;
  }
  return sparse::Csr::from_parts(rows, c1 - c0, std::move(row_ptr), std::move(col_idx),
                                 std::move(vals));
}

sparse::Csr read_adjacency_window(const std::string& dir, const std::string& prefix,
                                  std::span<const std::int64_t> row_bounds,
                                  std::span<const std::int64_t> col_bounds, std::int64_t r0,
                                  std::int64_t r1, std::int64_t c0, std::int64_t c1,
                                  const BlockFetch& fetch) {
  std::vector<std::shared_ptr<const MappedBlock>> pinned;
  std::vector<AdjacencyBlockView> views;
  for (std::size_t r = 0; r + 1 < row_bounds.size(); ++r) {
    if (row_bounds[r + 1] <= r0 || row_bounds[r] >= r1) continue;
    for (std::size_t c = 0; c + 1 < col_bounds.size(); ++c) {
      if (col_bounds[c + 1] <= c0 || col_bounds[c] >= c1) continue;
      pinned.push_back(fetch(adj_path(dir, prefix, static_cast<int>(r), static_cast<int>(c))));
      const AdjacencyBlockView& b = views.emplace_back(parse_adjacency_block(*pinned.back()));
      PLEXUS_CHECK(b.row0 == row_bounds[r] && b.rows == row_bounds[r + 1] - row_bounds[r] &&
                       b.col0 == col_bounds[c] && b.cols == col_bounds[c + 1] - col_bounds[c],
                   "corrupt block header in " + *b.path);
    }
  }
  return assemble_adjacency_window(views, r0, r1, c0, c1);
}

void write_adjacency_blocks(const std::string& dir, const std::string& prefix,
                            const sparse::Csr& adj, std::int32_t grid_rows,
                            std::int32_t grid_cols) {
  std::filesystem::create_directories(dir);
  const auto rb = sparse::block_bounds(adj.rows(), grid_rows);
  const auto cb = sparse::block_bounds(adj.cols(), grid_cols);
  for (int r = 0; r < grid_rows; ++r) {
    for (int c = 0; c < grid_cols; ++c) {
      const auto blk = adj.block(rb[static_cast<std::size_t>(r)], rb[static_cast<std::size_t>(r) + 1],
                                 cb[static_cast<std::size_t>(c)], cb[static_cast<std::size_t>(c) + 1]);
      auto f = open_file(adj_path(dir, prefix, r, c), "wb");
      write_pod(f.get(), kMagic);
      write_pod(f.get(), rb[static_cast<std::size_t>(r)]);
      write_pod(f.get(), cb[static_cast<std::size_t>(c)]);
      write_pod(f.get(), blk.rows());
      write_pod(f.get(), blk.cols());
      write_pod(f.get(), blk.nnz());
      write_array(f.get(), blk.row_ptr().data(), blk.row_ptr().size());
      write_array(f.get(), blk.col_idx().data(), blk.col_idx().size());
      write_array(f.get(), blk.vals().data(), blk.vals().size());
      f.close();
    }
  }
}

void write_sharded_dataset(const std::string& dir, const sparse::Csr& adj,
                           const dense::Matrix& features,
                           const std::vector<std::int32_t>& labels, std::int64_t num_classes,
                           std::int32_t grid_rows, std::int32_t grid_cols) {
  PLEXUS_CHECK(adj.rows() == adj.cols() && adj.rows() == features.rows(), "shape mismatch");
  std::filesystem::create_directories(dir);

  {
    auto f = open_file(dir + "/meta.plx", "wb");
    write_pod(f.get(), kMagic);
    write_pod(f.get(), adj.rows());
    write_pod(f.get(), features.cols());
    write_pod(f.get(), num_classes);
    write_pod(f.get(), grid_rows);
    write_pod(f.get(), grid_cols);
    write_pod(f.get(), adj.nnz());
    f.close();
  }
  {
    auto f = open_file(dir + "/labels.plx", "wb");
    write_pod(f.get(), kMagic);
    write_pod(f.get(), static_cast<std::int64_t>(labels.size()));
    write_array(f.get(), labels.data(), labels.size());
    f.close();
  }

  write_adjacency_blocks(dir, "adj", adj, grid_rows, grid_cols);

  const auto rb = sparse::block_bounds(adj.rows(), grid_rows);
  for (int r = 0; r < grid_rows; ++r) {
    const auto r0 = rb[static_cast<std::size_t>(r)];
    const auto r1 = rb[static_cast<std::size_t>(r) + 1];
    auto f = open_file(feat_path(dir, r), "wb");
    write_pod(f.get(), kMagic);
    write_pod(f.get(), r0);
    write_pod(f.get(), r1 - r0);
    write_pod(f.get(), features.cols());
    write_array(f.get(), features.row(r0), static_cast<std::size_t>((r1 - r0) * features.cols()));
    f.close();
  }
}

void write_plexus_meta(const std::string& dir, const PlexusShardMeta& m) {
  std::filesystem::create_directories(dir);
  auto f = open_file(dir + "/pmeta.plx", "wb");
  write_pod(f.get(), kMagic);
  write_pod(f.get(), m.valid_nodes);
  write_pod(f.get(), m.valid_feature_dim);
  write_pod(f.get(), m.train_total);
  write_pod(f.get(), m.scheme);
  write_pod(f.get(), m.adjacency_versions);
  f.close();
}

void write_masks(const std::string& dir, const ShardedMasks& masks) {
  PLEXUS_CHECK(masks.train.size() == masks.val.size() && masks.val.size() == masks.test.size(),
               "mask length mismatch");
  std::filesystem::create_directories(dir);
  auto f = open_file(dir + "/masks.plx", "wb");
  write_pod(f.get(), kMagic);
  write_pod(f.get(), static_cast<std::int64_t>(masks.train.size()));
  write_array(f.get(), masks.train.data(), masks.train.size());
  write_array(f.get(), masks.val.data(), masks.val.size());
  write_array(f.get(), masks.test.data(), masks.test.size());
  f.close();
}

ShardedMeta read_meta(const std::string& dir) {
  auto f = open_file(dir + "/meta.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kMagic, "bad magic in meta");
  ShardedMeta m;
  m.num_nodes = read_pod<std::int64_t>(f.get(), nullptr);
  m.feature_dim = read_pod<std::int64_t>(f.get(), nullptr);
  m.num_classes = read_pod<std::int64_t>(f.get(), nullptr);
  m.grid_rows = read_pod<std::int32_t>(f.get(), nullptr);
  m.grid_cols = read_pod<std::int32_t>(f.get(), nullptr);
  m.adjacency_nnz = read_pod<std::int64_t>(f.get(), nullptr);
  return m;
}

PlexusShardMeta read_plexus_meta(const std::string& dir) {
  auto f = open_file(dir + "/pmeta.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kMagic, "bad magic in pmeta");
  PlexusShardMeta m;
  m.valid_nodes = read_pod<std::int64_t>(f.get(), nullptr);
  m.valid_feature_dim = read_pod<std::int64_t>(f.get(), nullptr);
  m.train_total = read_pod<std::int64_t>(f.get(), nullptr);
  m.scheme = read_pod<std::int32_t>(f.get(), nullptr);
  m.adjacency_versions = read_pod<std::int32_t>(f.get(), nullptr);
  return m;
}

ShardedMasks load_masks(const std::string& dir) {
  auto f = open_file(dir + "/masks.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kMagic, "bad magic in masks");
  const auto n = read_pod<std::int64_t>(f.get(), nullptr);
  ShardedMasks m;
  m.train = read_array<std::uint8_t>(f.get(), static_cast<std::size_t>(n), nullptr);
  m.val = read_array<std::uint8_t>(f.get(), static_cast<std::size_t>(n), nullptr);
  m.test = read_array<std::uint8_t>(f.get(), static_cast<std::size_t>(n), nullptr);
  return m;
}

sparse::Csr load_adjacency_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats,
                                 const std::string& prefix) {
  util::WallTimer timer;
  const auto meta = read_meta(dir);
  LoadStats local;
  auto out = read_adjacency_window(
      dir, prefix, sparse::block_bounds(meta.num_nodes, meta.grid_rows),
      sparse::block_bounds(meta.num_nodes, meta.grid_cols), r0, r1, c0, c1,
      [&](const std::string& path) { return open_counted(path, local); });
  if (stats != nullptr) {
    stats->files_opened += local.files_opened;
    stats->bytes_read += local.bytes_read;
    // Every intersecting block stays held until the window is built.
    stats->peak_host_bytes = std::max(stats->peak_host_bytes, local.bytes_read);
    stats->seconds += timer.seconds();
  }
  return out;
}

dense::Matrix load_feature_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats) {
  util::WallTimer timer;
  const auto meta = read_meta(dir);
  const auto rb = sparse::block_bounds(meta.num_nodes, meta.grid_rows);
  dense::Matrix out(r1 - r0, c1 - c0);
  for (int r = 0; r < meta.grid_rows; ++r) {
    const auto b0 = rb[static_cast<std::size_t>(r)];
    const auto b1 = rb[static_cast<std::size_t>(r) + 1];
    if (b1 <= r0 || b0 >= r1) continue;
    auto f = open_file(feat_path(dir, r), "rb");
    if (stats != nullptr) stats->files_opened++;
    PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), stats) == kMagic, "bad magic");
    const auto row0 = read_pod<std::int64_t>(f.get(), stats);
    const auto rows = read_pod<std::int64_t>(f.get(), stats);
    const auto cols = read_pod<std::int64_t>(f.get(), stats);
    const auto data = read_array<float>(f.get(), static_cast<std::size_t>(rows * cols), stats);
    for (std::int64_t lr = 0; lr < rows; ++lr) {
      const auto gr = row0 + lr;
      if (gr < r0 || gr >= r1) continue;
      for (std::int64_t c = c0; c < std::min(c1, cols); ++c) {
        out.at(gr - r0, c - c0) = data[static_cast<std::size_t>(lr * cols + c)];
      }
    }
  }
  if (stats != nullptr) stats->seconds += timer.seconds();
  return out;
}

sparse::Csr load_adjacency_block_naive(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                       std::int64_t c0, std::int64_t c1, LoadStats* stats,
                                       const std::string& prefix) {
  util::WallTimer timer;
  const auto meta = read_meta(dir);
  // Read every block, reassemble the full matrix, then slice — the "load the
  // whole dataset into CPU memory first" pattern of many GNN frameworks.
  LoadStats local;
  const auto full = read_adjacency_window(
      dir, prefix, sparse::block_bounds(meta.num_nodes, meta.grid_rows),
      sparse::block_bounds(meta.num_nodes, meta.grid_cols), 0, meta.num_nodes, 0,
      meta.num_nodes, [&](const std::string& path) { return open_counted(path, local); });
  auto out = full.block(r0, r1, c0, c1);
  if (stats != nullptr) {
    stats->files_opened += local.files_opened;
    stats->bytes_read += local.bytes_read;
    // The blocks and the reassembled matrix are held together.
    const auto full_bytes = full.nnz() * 8 + (full.rows() + 1) * 8;
    stats->peak_host_bytes = std::max(stats->peak_host_bytes, local.bytes_read + full_bytes);
    stats->seconds += timer.seconds();
  }
  return out;
}

std::vector<std::int32_t> load_labels(const std::string& dir) {
  auto f = open_file(dir + "/labels.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kMagic, "bad magic in labels");
  const auto n = read_pod<std::int64_t>(f.get(), nullptr);
  return read_array<std::int32_t>(f.get(), static_cast<std::size_t>(n), nullptr);
}

}  // namespace plexus::io
