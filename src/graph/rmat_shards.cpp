#include "graph/rmat_shards.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "loader/file_io.hpp"
#include "loader/shard_io.hpp"
#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace plexus::graph {

namespace {

namespace fs = std::filesystem;

std::int64_t round_up(std::int64_t v, std::int64_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

using detail::RmatDraw;
using detail::RmatDrawByAttempt;
using detail::RmatDrawByPair;

/// One entry of the normalised, permuted adjacency, in padded coordinates.
/// `major` = column block << 32 | row, so the sort compares two integers.
struct EdgeRec {
  std::uint64_t major = 0;
  std::int32_t col = 0;
  float val = 0.0f;
};

/// Orders records (column block, row, column): the concatenation of the
/// parts x parts block files in column-block-major order, each block holding
/// its rows in order with columns ascending — exactly the canonical CSR
/// block layout io::write_adjacency_blocks produces. Strict: every (row,
/// column) occurs once.
struct EdgeRecLess {
  bool operator()(const EdgeRec& x, const EdgeRec& y) const {
    return x.major != y.major ? x.major < y.major : x.col < y.col;
  }
};

/// Spill-to-disk sorter: buffer up to `max_buffered` records, sort + spill
/// sorted runs, k-way merge on the final sweep. Runs entirely in memory when
/// everything fits in one buffer. Sorting runs on the calling thread's
/// engine (util::parallel_sort), so `Less` must order the records strictly:
/// no two may compare equivalent. The sort's merge scratch lives as long as
/// the buffer, so repeated spills reuse one allocation. Every run stays open
/// during the merge, so callers should keep total records / max_buffered
/// comfortably below the process fd limit.
template <typename Rec, typename Less>
class ExternalSorter {
 public:
  ExternalSorter(std::string run_prefix, std::size_t max_buffered, Less less)
      : prefix_(std::move(run_prefix)),
        max_buffered_(std::max<std::size_t>(max_buffered, 2)),
        less_(less) {
    buf_.reserve(max_buffered_);
    scratch_.reserve(max_buffered_);
  }
  ~ExternalSorter() {
    for (const auto& path : runs_) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  }

  void push(const Rec& r) {
    buf_.push_back(r);
    if (buf_.size() >= max_buffered_) spill();
  }

  /// Lets `fill(buffer)` append at most `max_records` (<= max_buffered)
  /// records straight into the buffer, spilling it first unless they fit.
  template <typename Fill>
  void append(std::size_t max_records, Fill&& fill) {
    if (buf_.size() + max_records > max_buffered_) spill();
    fill(buf_);
  }

  /// Takes over an already sorted run file: merged like a spilled run and
  /// removed with them.
  void adopt_run(std::string path) { runs_.push_back(std::move(path)); }

  /// The buffer plus the merge scratch of util::parallel_sort.
  std::int64_t peak_bytes() const {
    return static_cast<std::int64_t>(2 * max_buffered_ * sizeof(Rec));
  }

  /// Single sorted sweep over everything pushed; fn returning false stops
  /// early. The sorter is consumed.
  template <typename Fn>
  void merge(Fn&& fn) {
    if (runs_.empty()) {
      util::parallel_sort(buf_, less_, scratch_);
      for (const auto& r : buf_) {
        if (!fn(r)) break;
      }
      release_buffers();
      return;
    }
    spill();
    release_buffers();
    struct Run {
      io::File file;
      std::vector<Rec> buf;
      std::size_t pos = 0;
      std::size_t len = 0;
    };
    std::vector<Run> runs;
    runs.reserve(runs_.size());
    for (const auto& path : runs_) {
      runs.push_back(Run{io::open_file(path, "rb"), std::vector<Rec>(std::size_t{1} << 13), 0, 0});
    }
    auto refill = [](Run& run) {
      run.len = io::checked_fread(run.buf.data(), sizeof(Rec), run.buf.size(), run.file.get());
      run.pos = 0;
      return run.len > 0;
    };
    struct Head {
      Rec rec;
      std::size_t run;
    };
    // std::push_heap builds a max-heap, so "after" = strictly greater under
    // less_, ties broken toward the earlier run.
    auto heap_after = [this](const Head& x, const Head& y) {
      if (less_(y.rec, x.rec)) return true;
      if (less_(x.rec, y.rec)) return false;
      return x.run > y.run;
    };
    std::vector<Head> heap;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (refill(runs[i])) heap.push_back(Head{runs[i].buf[runs[i].pos++], i});
    }
    std::make_heap(heap.begin(), heap.end(), heap_after);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_after);
      Head h = heap.back();
      heap.pop_back();
      if (!fn(h.rec)) break;
      Run& run = runs[h.run];
      if (run.pos < run.len || refill(run)) {
        heap.push_back(Head{run.buf[run.pos++], h.run});
        std::push_heap(heap.begin(), heap.end(), heap_after);
      }
    }
  }

 private:
  void release_buffers() {
    std::vector<Rec>().swap(buf_);
    std::vector<Rec>().swap(scratch_);
  }

  void spill() {
    if (buf_.empty()) return;
    util::parallel_sort(buf_, less_, scratch_);
    runs_.push_back(prefix_ + "_" + std::to_string(runs_.size()) + ".run");
    auto f = io::open_file(runs_.back(), "wb");
    io::write_array(f.get(), buf_.data(), buf_.size());
    f.close();
    buf_.clear();
  }

  std::string prefix_;
  std::size_t max_buffered_;
  Less less_;
  std::vector<Rec> buf_;
  std::vector<Rec> scratch_;
  std::vector<std::string> runs_;
};

/// Reads a file of `Rec`s in blocks, calling fn(rec) for each in order.
template <typename Rec, typename Fn>
void for_each_record(const std::string& path, Fn&& fn) {
  auto in = io::open_file(path, "rb");
  std::vector<Rec> buf(std::size_t{1} << 13);
  for (;;) {
    const std::size_t got = io::checked_fread(buf.data(), sizeof(Rec), buf.size(), in.get());
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) fn(buf[i]);
  }
}

/// Appends `Rec`s to a new file through a block buffer.
template <typename Rec>
class RecordWriter {
 public:
  explicit RecordWriter(const std::string& path) : file_(io::open_file(path, "wb")) {
    buf_.reserve(std::size_t{1} << 13);
  }
  void push(const Rec& r) {
    buf_.push_back(r);
    if (buf_.size() == buf_.capacity()) flush();
  }
  void close() {
    flush();
    file_.close();
  }

 private:
  void flush() {
    io::write_array(file_.get(), buf_.data(), buf_.size());
    buf_.clear();
  }
  io::File file_;
  std::vector<Rec> buf_;
};

/// Stream-write one adjacency version as a parts x parts grid of block
/// files, byte-identical to io::write_adjacency_blocks over the assembled
/// CSR. `sorter` holds the EdgeRecs in EdgeRecLess order, i.e. exactly one
/// block file's content at a time.
std::int64_t write_blocks_streamed(const std::string& dir, const std::string& prefix,
                                   std::int64_t padded, int parts,
                                   ExternalSorter<EdgeRec, EdgeRecLess>& sorter,
                                   std::int64_t* peak_buffer_bytes) {
  const auto rb = sparse::block_bounds(padded, parts);
  const auto cb = sparse::block_bounds(padded, parts);
  const std::int64_t rw = padded / parts;
  const std::int64_t cw = padded / parts;
  const std::int64_t total_blocks = static_cast<std::int64_t>(parts) * parts;

  std::vector<std::int64_t> counts(static_cast<std::size_t>(rw), 0);
  std::vector<std::int32_t> col_idx;
  std::vector<float> vals;
  std::int64_t nnz_total = 0;
  // Stream order is column-block major (the sort key), so the linear block
  // index is cblk * parts + rblk; decode r/c from it when flushing.
  std::int64_t cur = 0;

  auto flush_current = [&] {
    const int r = static_cast<int>(cur % parts);
    const int c = static_cast<int>(cur / parts);
    const std::int64_t rows = rb[static_cast<std::size_t>(r) + 1] - rb[static_cast<std::size_t>(r)];
    std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
    for (std::int64_t i = 0; i < rows; ++i) {
      row_ptr[static_cast<std::size_t>(i) + 1] =
          row_ptr[static_cast<std::size_t>(i)] + counts[static_cast<std::size_t>(i)];
    }
    auto f = io::open_file(
        dir + "/" + prefix + "_" + std::to_string(r) + "_" + std::to_string(c) + ".plx", "wb");
    io::write_pod(f.get(), io::kPlxMagic);
    io::write_pod(f.get(), rb[static_cast<std::size_t>(r)]);
    io::write_pod(f.get(), cb[static_cast<std::size_t>(c)]);
    io::write_pod(f.get(), rows);
    io::write_pod(f.get(), cb[static_cast<std::size_t>(c) + 1] - cb[static_cast<std::size_t>(c)]);
    io::write_pod(f.get(), static_cast<std::int64_t>(col_idx.size()));
    io::write_array(f.get(), row_ptr.data(), row_ptr.size());
    io::write_array(f.get(), col_idx.data(), col_idx.size());
    io::write_array(f.get(), vals.data(), vals.size());
    f.close();
    nnz_total += static_cast<std::int64_t>(col_idx.size());
    *peak_buffer_bytes =
        std::max(*peak_buffer_bytes,
                 static_cast<std::int64_t>(col_idx.size() * 8 + row_ptr.size() * 8));
    std::fill(counts.begin(), counts.end(), 0);
    col_idx.clear();
    vals.clear();
    ++cur;
  };

  sorter.merge([&](const EdgeRec& e) {
    const auto cblk = static_cast<std::int64_t>(e.major >> 32);
    const auto row = static_cast<std::int64_t>(e.major & 0xffffffffULL);
    const std::int64_t rblk = row / rw;
    while (cur < cblk * parts + rblk) flush_current();
    counts[static_cast<std::size_t>(row - rblk * rw)]++;
    col_idx.push_back(static_cast<std::int32_t>(e.col - cblk * cw));
    vals.push_back(e.val);
    return true;
  });
  while (cur < total_blocks) flush_current();
  return nnz_total;
}

}  // namespace

RmatShardsSpec proxy_shards_spec(const DatasetInfo& info, std::int64_t target_nodes,
                                 std::uint64_t seed) {
  PLEXUS_CHECK(target_nodes >= 64, "proxy too small");
  PLEXUS_CHECK(info.kind == GraphClass::Social || info.kind == GraphClass::CoPurchase ||
                   info.kind == GraphClass::Citation,
               "proxy_shards_spec: only the power-law (RMAT) dataset classes stream to disk");
  const double avg_deg = info.avg_degree();
  RmatShardsSpec spec;
  spec.scale = static_cast<int>(std::ceil(std::log2(static_cast<double>(target_nodes))));
  const auto n = std::int64_t{1} << spec.scale;
  spec.target_edges = static_cast<std::int64_t>(static_cast<double>(n) * avg_deg / 2.0);
  spec.a = info.kind == GraphClass::Social ? 0.55 : 0.57;
  spec.b = 0.19;
  spec.c = 0.19;
  spec.d = 1.0 - spec.a - 0.38;
  spec.seed = seed;
  spec.feature_dim = info.feature_dim;
  spec.num_classes = info.num_classes;
  spec.label_signal = 0.5f;
  return spec;
}

RmatShardsResult rmat_to_shards(const std::string& dir, const RmatShardsSpec& spec) {
  PLEXUS_CHECK(spec.scale >= 1 && spec.scale < 31, "rmat scale out of range");
  PLEXUS_CHECK(std::abs(spec.a + spec.b + spec.c + spec.d - 1.0) < 1e-9,
               "rmat probabilities must sum to 1");
  PLEXUS_CHECK(spec.target_edges > 0, "rmat_to_shards: target_edges must be positive");
  PLEXUS_CHECK(spec.parts > 0, "rmat_to_shards: parts must be positive");
  PLEXUS_CHECK(spec.num_layers >= 1, "need at least one layer");
  PLEXUS_CHECK(spec.scheme >= 0 && spec.scheme <= 2, "rmat_to_shards: bad scheme");
  PLEXUS_CHECK(spec.feature_dim >= 1 && spec.num_classes >= 1, "rmat_to_shards: bad dims");
  const util::ScopedProcessThreads setup_threads;

  const std::int64_t n = std::int64_t{1} << spec.scale;
  const std::int64_t padded = round_up(n, std::max<std::int64_t>(1, spec.pad_multiple));
  const std::int64_t padded_dim =
      round_up(spec.feature_dim, std::max<std::int64_t>(1, spec.pad_multiple));
  PLEXUS_CHECK(padded % spec.parts == 0,
               "rmat_to_shards: parts must divide padded nodes (set pad_multiple to the grid "
               "volume)");

  fs::create_directories(dir);
  const std::string spill = spec.tmp_dir.empty() ? dir + "/.spill" : spec.tmp_dir;
  fs::create_directories(spill);
  const auto chunk_records =
      static_cast<std::size_t>(std::max<std::int64_t>(spec.chunk_edges, 16));

  RmatShardsResult result;
  result.num_nodes = n;
  result.padded_nodes = padded;

  // ---- Phase A: the graph::rmat attempt stream, window by window
  // (detail::rmat_window_end), each cut into sub-windows of at most
  // chunk_records attempts that are generated on the pool straight into the
  // sorter's buffer. The sort by (pair, attempt) also takes the sorted run of
  // first draws left by the earlier windows; keeping the first draw of every
  // pair compacts both into the next such run and counts the distinct pairs.
  // Generation stops once that count reaches target_edges or at the attempt
  // cap: the first target_edges distinct pairs in attempt order then all lie
  // in the windows seen, so the accepted set is graph::rmat's, shortfall at
  // the cap included.
  const detail::RmatShape shape{spec.scale, spec.a, spec.b, spec.c, spec.seed};
  const std::int64_t cap = detail::rmat_attempt_cap(spec.target_edges);
  const auto sub_window = static_cast<std::int64_t>(chunk_records);
  std::string firsts_path;
  std::int64_t distinct = 0;
  for (std::int64_t covered = 0, window = 0; covered < cap && distinct < spec.target_edges;
       ++window) {
    const std::int64_t end = detail::rmat_window_end(covered, spec.target_edges);
    ExternalSorter<RmatDraw, RmatDrawByPair> by_pair(spill + "/pairs" + std::to_string(window),
                                                     chunk_records, RmatDrawByPair{});
    if (!firsts_path.empty()) by_pair.adopt_run(firsts_path);
    for (std::int64_t a0 = covered; a0 < end; a0 += sub_window) {
      const std::int64_t a1 = std::min(end, a0 + sub_window);
      by_pair.append(static_cast<std::size_t>(a1 - a0), [&](std::vector<RmatDraw>& buf) {
        detail::rmat_draws(shape, a0, a1, buf);
      });
    }
    firsts_path = spill + "/firsts" + std::to_string(window) + ".run";
    RecordWriter<RmatDraw> firsts(firsts_path);
    distinct = 0;
    std::uint64_t prev_key = 0;
    by_pair.merge([&](const RmatDraw& r) {
      const std::uint64_t key = detail::rmat_pair_key(r.edge);
      if (distinct == 0 || key != prev_key) {
        firsts.push(r);
        prev_key = key;
        ++distinct;
      }
      return true;
    });
    firsts.close();
    result.peak_buffer_bytes = std::max(result.peak_buffer_bytes, by_pair.peak_bytes());
    covered = end;
  }

  // ---- Phase B: the first draws in attempt order -> the first
  // target_edges become the accepted edge list, streamed to a flat file
  // while node degrees accumulate.
  const std::string edges_path = spill + "/edges.bin";
  std::vector<std::int64_t> deg(static_cast<std::size_t>(n), 0);
  {
    ExternalSorter<RmatDraw, RmatDrawByAttempt> by_attempt(spill + "/byattempt", chunk_records,
                                                           RmatDrawByAttempt{});
    for_each_record<RmatDraw>(firsts_path, [&](const RmatDraw& r) { by_attempt.push(r); });
    fs::remove(firsts_path);
    result.peak_buffer_bytes = std::max(result.peak_buffer_bytes, by_attempt.peak_bytes());

    RecordWriter<std::int32_t> out(edges_path);
    std::int64_t accepted = 0;
    by_attempt.merge([&](const RmatDraw& r) {
      const auto u = static_cast<std::int64_t>(r.edge >> 32);
      const auto v = static_cast<std::int64_t>(r.edge & 0xffffffffULL);
      deg[static_cast<std::size_t>(u)]++;
      deg[static_cast<std::size_t>(v)]++;
      out.push(static_cast<std::int32_t>(u));
      out.push(static_cast<std::int32_t>(v));
      ++accepted;
      return accepted < spec.target_edges;
    });
    out.close();
    result.num_edges = accepted;
  }

  // ---- Phase C: node-level derivations, exactly the finalize_graph +
  // preprocess_graph recipes (datasets.cpp / preprocess.cpp).
  const auto labels = degree_based_labels(deg, spec.num_classes, spec.seed);
  std::vector<double> inv_sqrt(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    // normalize_adjacency's degree of (A + I): 1.0 for the active row plus
    // 1.0 per off-diagonal entry, accumulated in double.
    const double degree = 1.0 + static_cast<double>(deg[static_cast<std::size_t>(r)]);
    inv_sqrt[static_cast<std::size_t>(r)] = 1.0 / std::sqrt(degree);
  }

  std::vector<std::int64_t> p_r;
  std::vector<std::int64_t> p_c;
  switch (spec.scheme) {
    case 0:
      p_r = util::identity_permutation(padded);
      p_c = p_r;
      break;
    case 1:
      p_r = util::random_permutation(padded, util::hash_combine(spec.preprocess_seed, 1));
      p_c = p_r;
      break;
    default:
      p_r = util::random_permutation(padded, util::hash_combine(spec.preprocess_seed, 1));
      p_c = util::random_permutation(padded, util::hash_combine(spec.preprocess_seed, 2));
      break;
  }
  const auto p_c_inv = util::invert_permutation(p_c);

  std::vector<std::uint8_t> train;
  std::vector<std::uint8_t> val;
  std::vector<std::uint8_t> test;
  make_split_masks(n, 0.6, 0.2, spec.seed, train, val, test);
  std::int64_t train_total = 0;
  for (const auto m : train) train_total += m != 0 ? 1 : 0;

  // ---- Phase D: each adjacency version streams edges.bin through an
  // external sort into block files. Both directions of every edge plus the
  // self-loop row get the normalize_adjacency value, computed with the same
  // double-precision expression so the floats match bit for bit.
  const bool two_versions = spec.scheme == 2;
  const auto stream_version = [&](const std::string& prefix,
                                  const std::vector<std::int64_t>& row_map,
                                  const std::vector<std::int64_t>& col_map) {
    ExternalSorter<EdgeRec, EdgeRecLess> sorter(spill + "/" + prefix, chunk_records,
                                                EdgeRecLess{});
    const std::int64_t col_width = padded / spec.parts;
    const auto push = [&](std::size_t u, std::size_t v, float w) {
      const std::int64_t row = row_map[u];
      const std::int64_t col = col_map[v];
      sorter.push(EdgeRec{static_cast<std::uint64_t>(col / col_width) << 32 |
                              static_cast<std::uint64_t>(row),
                          static_cast<std::int32_t>(col), w});
    };
    for_each_record<std::array<std::int32_t, 2>>(edges_path, [&](const auto& edge) {
      const auto u = static_cast<std::size_t>(edge[0]);
      const auto v = static_cast<std::size_t>(edge[1]);
      const auto w = static_cast<float>(inv_sqrt[u] * inv_sqrt[v]);
      push(u, v, w);
      push(v, u, w);
    });
    for (std::int64_t r = 0; r < n; ++r) {
      const auto inv = inv_sqrt[static_cast<std::size_t>(r)];
      push(static_cast<std::size_t>(r), static_cast<std::size_t>(r), static_cast<float>(inv * inv));
    }
    result.peak_buffer_bytes = std::max(result.peak_buffer_bytes, sorter.peak_bytes());
    return write_blocks_streamed(dir, prefix, padded, spec.parts, sorter,
                                 &result.peak_buffer_bytes);
  };
  result.adjacency_nnz = stream_version("adj", p_r, p_c);
  if (two_versions) {
    const auto odd_nnz = stream_version("adjo", p_c, p_r);
    PLEXUS_CHECK(odd_nnz == result.adjacency_nnz, "rmat_to_shards: version nnz mismatch");
  }

  // ---- Phase E: metadata, labels, masks, features — small or streamed.
  {
    auto f = io::open_file(dir + "/meta.plx", "wb");
    io::write_pod(f.get(), io::kPlxMagic);
    io::write_pod(f.get(), padded);
    io::write_pod(f.get(), padded_dim);
    io::write_pod(f.get(), spec.num_classes);
    io::write_pod(f.get(), static_cast<std::int32_t>(spec.parts));
    io::write_pod(f.get(), static_cast<std::int32_t>(spec.parts));
    io::write_pod(f.get(), result.adjacency_nnz);
    f.close();
  }
  {
    // Labels and masks live in the final layer's output permutation.
    const auto& p_out = (spec.num_layers - 1) % 2 == 0 ? p_r : p_c;
    std::vector<std::int32_t> labels_out(static_cast<std::size_t>(padded), 0);
    io::ShardedMasks masks;
    masks.train.assign(static_cast<std::size_t>(padded), 0);
    masks.val.assign(static_cast<std::size_t>(padded), 0);
    masks.test.assign(static_cast<std::size_t>(padded), 0);
    for (std::int64_t u = 0; u < n; ++u) {
      const auto dst = static_cast<std::size_t>(p_out[static_cast<std::size_t>(u)]);
      labels_out[dst] = labels[static_cast<std::size_t>(u)];
      masks.train[dst] = train[static_cast<std::size_t>(u)];
      masks.val[dst] = val[static_cast<std::size_t>(u)];
      masks.test[dst] = test[static_cast<std::size_t>(u)];
    }
    auto f = io::open_file(dir + "/labels.plx", "wb");
    io::write_pod(f.get(), io::kPlxMagic);
    io::write_pod(f.get(), static_cast<std::int64_t>(labels_out.size()));
    io::write_array(f.get(), labels_out.data(), labels_out.size());
    f.close();
    io::write_masks(dir, masks);
  }
  {
    io::PlexusShardMeta pm;
    pm.valid_nodes = n;
    pm.valid_feature_dim = spec.feature_dim;
    pm.train_total = train_total;
    pm.scheme = static_cast<std::int32_t>(spec.scheme);
    pm.adjacency_versions = two_versions ? 2 : 1;
    io::write_plexus_meta(dir, pm);
  }
  {
    // Feature row stripes, a block of rows at a time, filled row-parallel:
    // row p_c[u] carries node u's synthetic features (graph.cpp recipe),
    // padding rows stay zero.
    const util::CounterRng rng(util::hash_combine(spec.seed, 0xfea7));
    const auto rb = sparse::block_bounds(padded, spec.parts);
    constexpr std::int64_t kBlockRows = 4096;
    std::vector<float> block;
    for (int r = 0; r < spec.parts; ++r) {
      const auto r0 = rb[static_cast<std::size_t>(r)];
      const auto r1 = rb[static_cast<std::size_t>(r) + 1];
      auto f = io::open_file(dir + "/feat_" + std::to_string(r) + ".plx", "wb");
      io::write_pod(f.get(), io::kPlxMagic);
      io::write_pod(f.get(), r0);
      io::write_pod(f.get(), r1 - r0);
      io::write_pod(f.get(), padded_dim);
      for (std::int64_t b0 = r0; b0 < r1; b0 += kBlockRows) {
        const std::int64_t b1 = std::min(r1, b0 + kBlockRows);
        block.assign(static_cast<std::size_t>((b1 - b0) * padded_dim), 0.0f);
        util::parallel_for(
            b0, b1,
            [&](std::int64_t d0, std::int64_t d1) {
              for (std::int64_t dst = d0; dst < d1; ++dst) {
                const auto u = p_c_inv[static_cast<std::size_t>(dst)];
                if (u >= n) continue;
                float* row = block.data() + (dst - b0) * padded_dim;
                for (std::int64_t k = 0; k < spec.feature_dim; ++k) {
                  row[k] = rng.uniform_at(static_cast<std::uint64_t>(u * spec.feature_dim + k),
                                          -1.0f, 1.0f);
                }
                if (spec.label_signal != 0.0f) {
                  row[labels[static_cast<std::size_t>(u)] % spec.feature_dim] +=
                      spec.label_signal;
                }
              }
            },
            (b1 - b0) * spec.feature_dim);
        io::write_array(f.get(), block.data(), block.size());
      }
      f.close();
    }
  }

  fs::remove_all(spill);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      result.bytes_written += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return result;
}

}  // namespace plexus::graph
