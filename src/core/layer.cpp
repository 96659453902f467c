#include "core/layer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <span>
#include <string>
#include <utility>

#include "core/shard_stream.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "sim/kernels.hpp"
#include "sparse/partition2d.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace plexus::core {

namespace {

/// Retire the oldest in-flight per-block collectives until at most
/// `depth - 1` remain (depth 1 = fully blocking). Exposed comm time is
/// charged inside wait() from the handle's completion ordering.
void trim_pipeline(std::deque<comm::CommHandle>& inflight, int depth) {
  while (static_cast<int>(inflight.size()) >= depth) {
    inflight.front().wait();
    inflight.pop_front();
  }
}

void drain_pipeline(std::deque<comm::CommHandle>& inflight) {
  while (!inflight.empty()) {
    inflight.front().wait();
    inflight.pop_front();
  }
}

}  // namespace

const char* aggregation_name(Aggregation a) { return util::enum_name(a); }

bool aggregation_from_string(std::string_view s, Aggregation& out) {
  return util::enum_from_string(s, out);
}

Aggregation default_aggregation() {
  const char* s = std::getenv("PLEXUS_AGG");
  if (s == nullptr || *s == '\0') return Aggregation::Dense;
  Aggregation a = Aggregation::Dense;
  if (!aggregation_from_string(s, a)) return Aggregation::Dense;  // malformed: default
  return a;
}

std::optional<Aggregation> env_aggregation() {
  const char* s = std::getenv("PLEXUS_AGG");
  if (s == nullptr || *s == '\0') return std::nullopt;
  Aggregation a = Aggregation::Dense;
  if (!aggregation_from_string(s, a)) return std::nullopt;  // malformed: inherit
  return a;
}

DistGcnLayer::DistGcnLayer(std::int64_t padded_nodes, const Grid3D& grid, int rank,
                           int layer_index, int num_layers, std::int64_t in_dim_padded,
                           std::int64_t out_dim_padded, std::int64_t in_dim_valid,
                           std::int64_t out_dim_valid, const AdjacencyShard* adj,
                           const PlexusOptions& opts, std::uint64_t seed, ShardStream* stream,
                           const LayerStreamPlan* stream_plan)
    : grid_(&grid),
      adj_(adj),
      stream_(stream),
      splan_(stream_plan),
      opts_(opts),
      layer_(layer_index),
      roles_(roles_for_layer(layer_index)) {
  PLEXUS_CHECK(layer_index >= 0 && layer_index < num_layers, "bad layer index");
  const Coords c = grid.coords_of(rank);
  ext_p_ = grid.extent(roles_.p);
  ext_q_ = grid.extent(roles_.q);
  ext_r_ = grid.extent(roles_.r);
  coord_p_ = Grid3D::coord(c, roles_.p);
  coord_q_ = Grid3D::coord(c, roles_.q);
  coord_r_ = Grid3D::coord(c, roles_.r);
  p_group_ = grid.group_along(roles_.p, rank);
  q_group_ = grid.group_along(roles_.q, rank);
  r_group_ = grid.group_along(roles_.r, rank);

  rows_r_ = padded_nodes / ext_r_;
  rows_p_ = padded_nodes / ext_p_;
  din_q_ = in_dim_padded / ext_q_;
  dout_p_ = out_dim_padded / ext_p_;
  PLEXUS_CHECK(in_dim_padded % ext_q_ == 0 && out_dim_padded % ext_p_ == 0,
               "layer dims must be padded to the grid volume");
  if (adj_ != nullptr) {
    PLEXUS_CHECK(adj_->a.rows() == rows_r_ && adj_->a.cols() == rows_p_,
                 "adjacency shard does not match layer roles");
  } else {
    PLEXUS_CHECK(stream_ != nullptr && splan_ != nullptr,
                 "layer needs an adjacency shard or a stream plan");
    PLEXUS_CHECK(splan_->rows.size() == rows_r_ && splan_->cols.size() == rows_p_,
                 "stream plan does not match layer roles");
    // The selective exchange plans from the resident nnz structure, which a
    // streamed shard does not have — the model forces Dense when streaming.
    PLEXUS_CHECK(opts_.aggregation == Aggregation::Dense,
                 "streaming epochs require dense aggregation");
  }

  // W block (rows = Q slice of Din, cols = P slice of Dout), flat 1/R slice.
  const Slice wrows = uniform_slice(in_dim_padded, ext_q_, coord_q_);
  const Slice wcols = uniform_slice(out_dim_padded, ext_p_, coord_p_);
  const dense::Matrix w_block = init_weight_block(seed, layer_index, wrows.begin, wcols.begin,
                                                  wrows.size(), wcols.size(), in_dim_valid,
                                                  out_dim_valid);
  w_slice_ = flat_slice(w_block, ext_r_, coord_r_);
  dw_slice_.assign(w_slice_.size(), 0.0f);
  adam_ = dense::Adam(w_slice_.size(), opts.adam);
}

void DistGcnLayer::restore_state(std::span<const float> w, std::span<const float> m,
                                 std::span<const float> v, std::int64_t adam_t) {
  PLEXUS_CHECK(w.size() == w_slice_.size(), "restored weight slice size mismatch");
  std::copy(w.begin(), w.end(), w_slice_.begin());
  adam_.set_state(m, v, adam_t);
}

comm::CommHandle DistGcnLayer::igathered_weights(sim::RankContext& ctx, dense::Matrix& w_block) {
  w_block = dense::Matrix(din_q_, dout_p_);
  return ctx.comm.iall_gather<float>(r_group_, w_slice_, w_block.flat());
}

dense::Matrix DistGcnLayer::gathered_weights(sim::RankContext& ctx) {
  dense::Matrix w_block;
  igathered_weights(ctx, w_block).wait();
  return w_block;
}

dense::Matrix DistGcnLayer::gather_weight_block(sim::RankContext& ctx) {
  return gathered_weights(ctx);
}

int DistGcnLayer::resolve_depth(sim::RankContext& ctx, const sparse::Csr& a,
                                const std::vector<std::int64_t>& bounds,
                                std::int64_t dense_rows, comm::GroupId gid,
                                comm::Collective op, int* cache) {
  if (opts_.pipeline_depth > 0) return opts_.pipeline_depth;
  if (*cache > 0) return *cache;
  // Adaptive (pipeline_depth == 0): pick the depth from the exact per-block
  // costs — the fastest block's noise-free SpMM time (noise only slows blocks
  // down, so this lower-bounds the hiding window) against the largest block's
  // ring time on this group's links.
  const int nb = static_cast<int>(bounds.size()) - 1;
  double t_spmm_min = 0.0;
  std::int64_t max_rows = 0;
  bool any = false;
  for (int k = 0; k < nb; ++k) {
    const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
    const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
    if (b0 == b1) continue;
    const sim::SpmmShape shape{a.range_nnz(b0, b1), b1 - b0, dense_rows, din_q_};
    const double t = sim::spmm_time(*ctx.machine, shape);
    t_spmm_min = any ? std::min(t_spmm_min, t) : t;
    max_rows = std::max(max_rows, b1 - b0);
    any = true;
  }
  const auto& g = ctx.comm.world().group(gid);
  // Price what the links actually carry: bf16 wire halves the per-element
  // volume, shrinking the hiding window and therefore the adaptive depth.
  const auto eb = static_cast<std::int64_t>(ctx.comm.wire_float_bytes());
  const double t_ring = comm::collective_time(op, eb * max_rows * din_q_, g.size(), g.link,
                                              g.a2a_distance_penalty);
  *cache = comm::choose_pipeline_depth(t_spmm_min, t_ring, nb);
  return *cache;
}

namespace {

/// Largest block length and nonempty block count of a bounds vector.
void bounds_shape(const std::vector<std::int64_t>& bounds, std::int64_t* max_rows,
                  int* nonempty) {
  *max_rows = 0;
  *nonempty = 0;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    const std::int64_t len = bounds[k + 1] - bounds[k];
    if (len == 0) continue;
    ++*nonempty;
    *max_rows = std::max(*max_rows, len);
  }
}

}  // namespace

int DistGcnLayer::resolve_depth_streamed(sim::RankContext& ctx,
                                         const std::vector<std::int64_t>& bounds,
                                         std::int64_t dense_rows, comm::GroupId gid,
                                         comm::Collective op, int* cache) {
  if (opts_.pipeline_depth > 0) return opts_.pipeline_depth;
  if (*cache > 0) return *cache;
  const int nb = static_cast<int>(bounds.size()) - 1;
  std::int64_t max_rows = 0;
  int nonempty = 0;
  bounds_shape(bounds, &max_rows, &nonempty);
  const std::int64_t est_nnz =
      std::max<std::int64_t>(1, splan_->est_nnz / std::max(1, nonempty));
  const sim::SpmmShape shape{est_nnz, std::max<std::int64_t>(1, max_rows), dense_rows, din_q_};
  const double t_spmm = sim::spmm_time(*ctx.machine, shape);
  const auto& g = ctx.comm.world().group(gid);
  const auto eb = static_cast<std::int64_t>(ctx.comm.wire_float_bytes());
  const double t_ring = comm::collective_time(op, eb * max_rows * din_q_, g.size(), g.link,
                                              g.a2a_distance_penalty);
  *cache = comm::choose_pipeline_depth(t_spmm, t_ring, nb);
  return *cache;
}

int DistGcnLayer::resolve_prefetch_depth(sim::RankContext& ctx,
                                         const std::vector<std::int64_t>& bounds,
                                         std::int64_t dense_rows, int* cache) {
  const int nb = static_cast<int>(bounds.size()) - 1;
  if (opts_.prefetch_depth > 0) return std::clamp(opts_.prefetch_depth, 1, std::max(1, nb));
  if (*cache > 0) return *cache;
  std::int64_t max_rows = 0;
  int nonempty = 0;
  bounds_shape(bounds, &max_rows, &nonempty);
  const std::int64_t est_nnz =
      std::max<std::int64_t>(1, splan_->est_nnz / std::max(1, nonempty));
  // On-disk bytes of one block window: col idx (i32) + value (f32) per
  // nonzero, plus the row-pointer run.
  const std::int64_t block_bytes = est_nnz * 8 + (max_rows + 1) * 8;
  const double t_disk = static_cast<double>(block_bytes) / ctx.machine->disk_bw;
  const sim::SpmmShape shape{est_nnz, std::max<std::int64_t>(1, max_rows), dense_rows, din_q_};
  const double t_spmm = sim::spmm_time(*ctx.machine, shape);
  std::int64_t depth = comm::choose_pipeline_depth(t_spmm, t_disk, nb);
  if (opts_.rss_budget_bytes >= 0) {
    // In-flight windows are pinned (they dodge the cache's trim), so the
    // prefetch window itself must fit the budget.
    depth = std::min(depth, std::max<std::int64_t>(1, opts_.rss_budget_bytes / block_bytes));
  }
  *cache = std::clamp(static_cast<int>(depth), 1, std::max(1, nb));
  return *cache;
}

void DistGcnLayer::build_sparse_plan(sim::RankContext& ctx, SparsePlan& plan,
                                     const sparse::Csr& a, std::int64_t rows,
                                     std::int64_t dense_rows, int G, comm::GroupId gid,
                                     bool scatter) {
  plan.built = true;
  plan.sparse = false;
  plan.scatter = scatter;
  plan.blocks.clear();
  if (G <= 1) return;  // nothing to exchange: dense fallback
  const int nb = std::max(1, opts_.agg_row_blocks);
  PLEXUS_CHECK(rows % G == 0, "sparse aggregation: rows not padded to the group");
  plan.bounds = sparse::block_bounds_aligned(rows, nb, G);
  const int nblk = static_cast<int>(plan.bounds.size()) - 1;

  // Support scan: which rows of each block my CSR shard actually touches.
  std::vector<std::vector<std::int32_t>> support(static_cast<std::size_t>(nblk));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(nblk), 0);
  for (int k = 0; k < nblk; ++k) {
    const std::int64_t b0 = plan.bounds[static_cast<std::size_t>(k)];
    const std::int64_t b1 = plan.bounds[static_cast<std::size_t>(k) + 1];
    auto& s = support[static_cast<std::size_t>(k)];
    for (std::int64_t r = b0; r < b1; ++r) {
      if (a.row_nnz(r) > 0) s.push_back(static_cast<std::int32_t>(r - b0));
    }
    counts[static_cast<std::size_t>(k)] = static_cast<std::int64_t>(s.size());
  }

  // Gather every member's per-block support counts: the shared input for the
  // dense-vs-sparse decision (and the straggler term of the cost model), so
  // every member decides identically.
  std::vector<std::int64_t> all_counts(static_cast<std::size_t>(nblk) * static_cast<std::size_t>(G));
  ctx.comm.all_gather<std::int64_t>(gid, counts, all_counts);

  const auto& g = ctx.comm.world().group(gid);
  // Feature payloads are priced at their wire width (fp32 or bf16): the
  // dense-vs-sparse choice must compare what the links would really carry.
  const auto wire_eb = static_cast<std::int64_t>(ctx.comm.wire_float_bytes());
  double t_dense = 0.0, t_sparse = 0.0;
  std::int64_t max_support = 0, max_blk_rows = 0;
  int nonempty = 0;
  for (int k = 0; k < nblk; ++k) {
    const std::int64_t blk_rows =
        plan.bounds[static_cast<std::size_t>(k) + 1] - plan.bounds[static_cast<std::size_t>(k)];
    if (blk_rows == 0) continue;
    ++nonempty;
    std::int64_t s_max = 0;
    for (int m = 0; m < G; ++m) {
      s_max = std::max(s_max, all_counts[static_cast<std::size_t>(m) *
                                             static_cast<std::size_t>(nblk) +
                                         static_cast<std::size_t>(k)]);
    }
    const std::int64_t dense_bytes = blk_rows * din_q_ * wire_eb;
    const std::int64_t support_bytes = s_max * din_q_ * wire_eb;
    t_dense += comm::dense_aggregation_time(dense_bytes, scatter, G, g.link,
                                            g.a2a_distance_penalty);
    t_sparse += comm::sparse_aggregation_time(dense_bytes, support_bytes, scatter, G, g.link,
                                              g.a2a_distance_penalty);
    max_support = std::max(max_support, s_max);
    max_blk_rows = std::max(max_blk_rows, blk_rows);
  }
  if (nonempty == 0) return;
  if (opts_.aggregation == Aggregation::Auto && t_sparse >= t_dense) return;
  plan.sparse = true;

  // Group-uniform pipeline depth: the sparse loop interleaves two collective
  // stages on one group, so unlike the dense path every member must post the
  // same op sequence — resolve the adaptive choice to the group max.
  int depth = opts_.pipeline_depth;
  if (depth <= 0) {
    double t_spmm_min = 0.0;
    bool any = false;
    for (int k = 0; k < nblk; ++k) {
      const std::int64_t b0 = plan.bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = plan.bounds[static_cast<std::size_t>(k) + 1];
      if (b0 == b1) continue;
      const sim::SpmmShape shape{a.range_nnz(b0, b1), b1 - b0, dense_rows, din_q_};
      const double t = sim::spmm_time(*ctx.machine, shape);
      t_spmm_min = any ? std::min(t_spmm_min, t) : t;
      any = true;
    }
    const double t_ring = comm::sparse_aggregation_time(
        max_blk_rows * din_q_ * wire_eb, max_support * din_q_ * wire_eb, scatter, G, g.link,
        g.a2a_distance_penalty);
    const int local = comm::choose_pipeline_depth(t_spmm_min, t_ring, nonempty);
    depth = static_cast<int>(ctx.comm.all_reduce_max_scalar(gid, static_cast<double>(local)));
  }
  plan.depth = std::max(1, depth);

  // Per-block row-list exchange + persistent staging. Each block's rows are
  // split into G equal chunks, chunk c owned by member c; the ascending
  // support list is naturally packed by destination chunk.
  plan.blocks.resize(static_cast<std::size_t>(nblk));
  for (int k = 0; k < nblk; ++k) {
    auto& blk = plan.blocks[static_cast<std::size_t>(k)];
    blk.b0 = plan.bounds[static_cast<std::size_t>(k)];
    blk.b1 = plan.bounds[static_cast<std::size_t>(k) + 1];
    if (blk.b0 == blk.b1) continue;
    const std::int64_t cr = (blk.b1 - blk.b0) / G;  // chunk rows
    blk.send_rows = std::move(support[static_cast<std::size_t>(k)]);
    std::vector<std::vector<std::int32_t>> to_owner(static_cast<std::size_t>(G));
    for (const auto r : blk.send_rows) {
      const auto c = static_cast<std::size_t>(r / cr);
      to_owner[c].push_back(static_cast<std::int32_t>(r - static_cast<std::int64_t>(c) * cr));
    }
    ctx.comm.all_to_all_v<std::int32_t>(gid, to_owner, blk.src_rows);
    blk.send_counts.resize(static_cast<std::size_t>(G));
    blk.recv_counts.resize(static_cast<std::size_t>(G));
    std::int64_t recv_total = 0;
    for (int m = 0; m < G; ++m) {
      blk.send_counts[static_cast<std::size_t>(m)] =
          static_cast<std::int64_t>(to_owner[static_cast<std::size_t>(m)].size()) * din_q_;
      blk.recv_counts[static_cast<std::size_t>(m)] =
          static_cast<std::int64_t>(blk.src_rows[static_cast<std::size_t>(m)].size()) * din_q_;
      recv_total += blk.recv_counts[static_cast<std::size_t>(m)];
    }
    blk.send_buf.resize(blk.send_rows.size() * static_cast<std::size_t>(din_q_));
    blk.recv_buf.resize(static_cast<std::size_t>(recv_total));
    if (!scatter) blk.chunk_buf.resize(static_cast<std::size_t>(cr * din_q_));
  }
}

void DistGcnLayer::fold_sparse_chunk(const SparseBlockPlan& blk, std::span<float> out) const {
  // Zero-prefill, then accumulate every contribution in canonical member
  // order — per element the same left-fold over (mostly +0.0) partials the
  // dense transports apply, so the reduced values match the dense collectives
  // bitwise.
  std::fill(out.begin(), out.end(), 0.0f);
  const float* src = blk.recv_buf.data();
  for (const auto& rows : blk.src_rows) {
    for (const auto r : rows) {
      float* dst = out.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(din_q_);
      for (std::int64_t d = 0; d < din_q_; ++d) dst[d] += src[d];
      src += din_q_;
    }
  }
}

dense::Matrix DistGcnLayer::forward(sim::RankContext& ctx, const dense::Matrix& f_in, bool last,
                                    std::uint64_t epoch_seed, KernelTimers& timers) {
  PLEXUS_CHECK(f_in.rows() == rows_p_ && f_in.cols() == din_q_, "forward input block shape");
  const sim::Machine& m = *ctx.machine;

  // ---- Step 1: aggregation H = SpMM(A, F), all-reduced over the P group.
  // Blocked aggregation (section 5.2) as a true software pipeline: block k's
  // all-reduce executes on the comm thread while later blocks' SpMMs run
  // here, with up to pipeline_depth - 1 collectives in flight. The exposed
  // communication charge falls out of each handle's completion ordering
  // against this rank's clock — there is no hand-fed overlap credit.
  //
  // The weight gather over R depends only on w_slice_, so it is posted before
  // the aggregation and retired just before the combination GEMM: on the sim
  // timeline it hides behind the SpMM blocks instead of charging full latency.
  h_ = dense::Matrix(rows_r_, din_q_);
  const int nb = std::max(1, opts_.agg_row_blocks);

  dense::Matrix w_block;
  comm::CommHandle w_gather = igathered_weights(ctx, w_block);

  // Sparse selective aggregation (lazily planned; Auto may fall back to
  // dense). The plan build runs its own collectives, so it happens here — in
  // SPMD lockstep at every member's first forward.
  if (opts_.aggregation != Aggregation::Dense && !fwd_sparse_.built) {
    build_sparse_plan(ctx, fwd_sparse_, adj_->a, rows_r_, rows_p_, ext_p_, p_group_,
                      /*scatter=*/false);
  }
  const bool sparse_agg = opts_.aggregation != Aggregation::Dense && fwd_sparse_.sparse;

  // The streamed path charges the block's own nnz (== range_nnz of the
  // assembled shard), so the sim cost — noise seed included — is identical
  // to the resident path's.
  auto charge_spmm_block = [&](std::int64_t nnz, std::int64_t b0, std::int64_t b1, int k) {
    const sim::SpmmShape shape{nnz, b1 - b0, rows_p_, din_q_};
    const std::uint64_t noise_seed = util::hash_combine(
        epoch_seed, util::hash_combine(static_cast<std::uint64_t>(layer_),
                                       util::hash_combine(static_cast<std::uint64_t>(ctx.rank()),
                                                          static_cast<std::uint64_t>(k))));
    const double t_block = sim::spmm_time(m, shape) * sim::spmm_noise_factor(m, shape, noise_seed);
    ctx.comm.charge_compute(t_block);
    timers.spmm += t_block;
  };

  if (stream_ != nullptr) {
    // Out-of-core aggregation (the streaming epoch): block loads are posted
    // as IO handles into their own pipeline deque, so disk reads (and any
    // cache misses behind them) overlap earlier blocks' SpMMs exactly like
    // the per-block collectives do. Only the wait that compute could not
    // cover lands in timers.io_exposed.
    const auto bounds = sparse::block_bounds(rows_r_, nb);
    const int depth = resolve_depth_streamed(ctx, bounds, rows_p_, p_group_,
                                             comm::Collective::AllReduce, &fwd_depth_);
    const int pf = resolve_prefetch_depth(ctx, bounds, rows_p_, &fwd_io_depth_);
    std::deque<std::pair<std::future<BlockLoad>, int>> loads;
    int next = 0;
    auto fill = [&] {
      while (static_cast<int>(loads.size()) < pf && next < nb) {
        const int k = next++;
        const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
        const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
        if (b0 == b1) continue;
        loads.emplace_back(stream_->post(splan_->version, splan_->rows.begin + b0,
                                         splan_->rows.begin + b1, splan_->cols.begin,
                                         splan_->cols.end, /*transpose=*/false),
                           k);
      }
    };
    fill();
    std::deque<comm::CommHandle> inflight;
    while (!loads.empty()) {
      const int k = loads.front().second;
      util::WallTimer io_timer;
      BlockLoad bl = loads.front().first.get();
      timers.io_exposed += io_timer.seconds();
      timers.io_bytes += bl.bytes_read;
      loads.pop_front();
      fill();  // repost before computing, so the IO worker never idles
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      sparse::spmm_into_rows(bl.csr, f_in, h_, b0);
      charge_spmm_block(bl.csr.nnz(), b0, b1, k);
      std::span<float> rows{h_.row(b0), static_cast<std::size_t>((b1 - b0) * din_q_)};
      inflight.push_back(ctx.comm.iall_reduce_sum<float>(p_group_, rows));
      trim_pipeline(inflight, depth);
    }
    drain_pipeline(inflight);
  } else if (sparse_agg) {
    // Per block: SpMM, pack the support rows, sparse all-to-all to the chunk
    // owners; on retire, fold the received contributions into the reduced
    // chunk and re-gather the equal chunks with a dense all-gather. Two
    // pipelined stages, both trimmed to the plan's group-uniform depth.
    const auto& bounds = fwd_sparse_.bounds;
    const int nblk = static_cast<int>(bounds.size()) - 1;
    std::deque<std::pair<comm::CommHandle, int>> exchange;
    std::deque<comm::CommHandle> gathers;
    auto advance_exchange = [&]() {
      exchange.front().first.wait();
      auto& blk = fwd_sparse_.blocks[static_cast<std::size_t>(exchange.front().second)];
      fold_sparse_chunk(blk, blk.chunk_buf);
      std::span<float> rows{h_.row(blk.b0), static_cast<std::size_t>((blk.b1 - blk.b0) * din_q_)};
      gathers.push_back(ctx.comm.iall_gather<float>(
          p_group_, std::span<const float>(blk.chunk_buf), rows));
      exchange.pop_front();
    };
    for (int k = 0; k < nblk; ++k) {
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      if (b0 == b1) continue;  // bounds are grid-derived, identical on all members
      sparse::spmm_rows(adj_->a, f_in, h_, b0, b1);
      charge_spmm_block(adj_->a.range_nnz(b0, b1), b0, b1, k);
      auto& blk = fwd_sparse_.blocks[static_cast<std::size_t>(k)];
      float* sp = blk.send_buf.data();
      for (const auto r : blk.send_rows) {
        std::memcpy(sp, h_.row(b0 + r), static_cast<std::size_t>(din_q_) * sizeof(float));
        sp += din_q_;
      }
      exchange.emplace_back(
          ctx.comm.iall_to_all_v<float>(p_group_, std::span<const float>(blk.send_buf),
                                        blk.send_counts.data(), std::span<float>(blk.recv_buf),
                                        blk.recv_counts.data()),
          k);
      while (static_cast<int>(exchange.size()) >= fwd_sparse_.depth) advance_exchange();
      trim_pipeline(gathers, fwd_sparse_.depth);
    }
    while (!exchange.empty()) advance_exchange();
    drain_pipeline(gathers);
  } else {
    const auto bounds = sparse::block_bounds(rows_r_, nb);
    const int depth = resolve_depth(ctx, adj_->a, bounds, rows_p_, p_group_,
                                    comm::Collective::AllReduce, &fwd_depth_);
    std::deque<comm::CommHandle> inflight;
    for (int k = 0; k < nb; ++k) {
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      if (b0 == b1) continue;  // bounds are grid-derived, identical on all members
      sparse::spmm_rows(adj_->a, f_in, h_, b0, b1);
      charge_spmm_block(adj_->a.range_nnz(b0, b1), b0, b1, k);
      std::span<float> rows{h_.row(b0), static_cast<std::size_t>((b1 - b0) * din_q_)};
      inflight.push_back(ctx.comm.iall_reduce_sum<float>(p_group_, rows));
      trim_pipeline(inflight, depth);
    }
    drain_pipeline(inflight);
  }

  // ---- Step 2: combination Q = SGEMM(H, W), all-reduced over the Q group.
  w_gather.wait();
  q_pre_ = dense::matmul(h_, w_block);
  const double t_gemm = sim::gemm_time(m, rows_r_, dout_p_, din_q_, dense::Trans::N,
                                       dense::Trans::N);
  ctx.comm.charge_compute(t_gemm);
  timers.gemm += t_gemm;
  ctx.comm.all_reduce_sum<float>(q_group_, q_pre_.flat());

  // ---- Step 3: activation.
  if (last) return q_pre_;
  dense::Matrix f_out = dense::relu(q_pre_);
  const double t_act = sim::elementwise_time(m, q_pre_.size());
  ctx.comm.charge_compute(t_act);
  timers.elementwise += t_act;
  return f_out;
}

dense::Matrix DistGcnLayer::backward(sim::RankContext& ctx, const dense::Matrix& df_out,
                                     bool last, KernelTimers& timers, FinalReduce final_reduce,
                                     std::span<float> grad_slice) {
  PLEXUS_CHECK(df_out.rows() == rows_r_ && df_out.cols() == dout_p_, "backward input shape");
  const sim::Machine& m = *ctx.machine;

  // W is needed only for the dH GEMM: post the R-group gather now so it
  // overlaps relu' and the dW GEMM (a blocking gather here used to charge its
  // full latency every backward pass).
  dense::Matrix w_block;
  comm::CommHandle w_gather = igathered_weights(ctx, w_block);

  // dQ = dF_out (last layer: the loss grad, read in place) or
  // dF_out ⊙ relu'(Q) (eq. 2.4).
  dense::Matrix relu_grad;
  if (!last) {
    relu_grad = dense::Matrix(rows_r_, dout_p_);
    dense::relu_backward(q_pre_, df_out, relu_grad);
    const double t = sim::elementwise_time(m, relu_grad.size(), 3.0);
    ctx.comm.charge_compute(t);
    timers.elementwise += t;
  }
  const dense::Matrix& dq = last ? df_out : relu_grad;

  // dW = H^T dQ (eq. 2.5), reduce-scattered over the R group (Alg. 2 line 3).
  // Section 5.3 tuning replaces the slow transpose-first GEMM by the reversed
  // order (SGEMM(dQ^T, H))^T, which dispatches in the fast mode. The
  // reduce-scatter result is not needed until apply_grad, so it is posted
  // asynchronously and hides behind the rest of the backward pass.
  if (opts_.gemm_dw_tuning) {
    dw_block_ = dense::matmul(dq, h_, dense::Trans::T, dense::Trans::N).transposed();
    const double t = sim::gemm_time(m, din_q_, dout_p_, rows_r_, dense::Trans::N, dense::Trans::T) +
                     sim::elementwise_time(m, dw_block_.size());
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  } else {
    dw_block_ = dense::matmul(h_, dq, dense::Trans::T, dense::Trans::N);
    const double t = sim::gemm_time(m, din_q_, dout_p_, rows_r_, dense::Trans::T, dense::Trans::N);
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  }
  dw_handle_ = ctx.comm.ireduce_scatter_sum<float>(r_group_, dw_block_.flat(), dw_slice_);

  // dH = dQ W^T (eq. 2.6), all-reduced over the P group (Alg. 2 lines 4-6).
  w_gather.wait();
  dense::Matrix dh = dense::matmul(dq, w_block, dense::Trans::N, dense::Trans::T);
  {
    const double t = sim::gemm_time(m, rows_r_, din_q_, dout_p_, dense::Trans::N, dense::Trans::T);
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  }
  ctx.comm.all_reduce_sum<float>(p_group_, dh.flat());

  // dF = SpMM(A^T, dH) (eq. 2.7), blocked over output rows — the backward
  // mirror of section 5.2. The final R-group collective pipelines behind the
  // next block's SpMM: per-block all-reduces for the hidden layers, or (layer
  // 0 with trainable features) per-block reduce-scatters whose R-aligned row
  // blocks land directly on the caller's resharded flat gradient slice.
  dense::Matrix df_in(rows_p_, din_q_);
  const int nb = std::max(1, opts_.agg_row_blocks);
  const bool scatter = final_reduce == FinalReduce::ReduceScatter;
  if (scatter) {
    PLEXUS_CHECK(grad_slice.size() ==
                     static_cast<std::size_t>(rows_p_ / ext_r_ * din_q_),
                 "backward: grad_slice does not match the resharded feature slice");
  }

  // Sparse selective aggregation for the reducing directions (None has no
  // collective to sparsify). Lazily planned like the forward direction;
  // rebuilt if the caller switches the final-reduce shape.
  bool sparse_agg = false;
  if (final_reduce != FinalReduce::None && opts_.aggregation != Aggregation::Dense) {
    if (!bwd_sparse_.built || bwd_sparse_.scatter != scatter) {
      build_sparse_plan(ctx, bwd_sparse_, adj_->a_t, rows_p_, rows_r_, ext_r_, r_group_,
                        scatter);
    }
    sparse_agg = bwd_sparse_.sparse;
  }

  auto charge_spmm_block = [&](std::int64_t nnz, std::int64_t b0, std::int64_t b1) {
    const sim::SpmmShape shape{nnz, b1 - b0, rows_r_, din_q_};
    const double t = sim::spmm_time(m, shape);
    ctx.comm.charge_compute(t);
    timers.spmm += t;
  };

  if (stream_ != nullptr) {
    // Streamed dF: rows [b0, b1) of A^T are the column window [b0, b1) of A,
    // so the stream loads that window and transposes it on the IO worker —
    // the counting sort hides behind compute too. Bitwise-identical to rows
    // [b0, b1) of the resident transpose (same canonical source-row order).
    const auto bounds = scatter ? sparse::block_bounds_aligned(rows_p_, nb, ext_r_)
                                : sparse::block_bounds(rows_p_, nb);
    const int depth =
        final_reduce == FinalReduce::None
            ? 1
            : resolve_depth_streamed(ctx, bounds, rows_r_, r_group_,
                                     scatter ? comm::Collective::ReduceScatter
                                             : comm::Collective::AllReduce,
                                     &bwd_depth_);
    const int pf = resolve_prefetch_depth(ctx, bounds, rows_r_, &bwd_io_depth_);
    std::deque<std::pair<std::future<BlockLoad>, int>> loads;
    int next = 0;
    auto fill = [&] {
      while (static_cast<int>(loads.size()) < pf && next < nb) {
        const int k = next++;
        const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
        const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
        if (b0 == b1) continue;
        loads.emplace_back(stream_->post(splan_->version, splan_->rows.begin,
                                         splan_->rows.end, splan_->cols.begin + b0,
                                         splan_->cols.begin + b1, /*transpose=*/true),
                           k);
      }
    };
    fill();
    std::deque<comm::CommHandle> inflight;
    while (!loads.empty()) {
      const int k = loads.front().second;
      util::WallTimer io_timer;
      BlockLoad bl = loads.front().first.get();
      timers.io_exposed += io_timer.seconds();
      timers.io_bytes += bl.bytes_read;
      loads.pop_front();
      fill();
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      sparse::spmm_into_rows(bl.csr, dh, df_in, b0);
      charge_spmm_block(bl.csr.nnz(), b0, b1);
      std::span<const float> rows{df_in.row(b0), static_cast<std::size_t>((b1 - b0) * din_q_)};
      if (final_reduce == FinalReduce::AllReduce) {
        std::span<float> inout{df_in.row(b0), rows.size()};
        inflight.push_back(ctx.comm.iall_reduce_sum<float>(r_group_, inout));
        trim_pipeline(inflight, depth);
      } else if (scatter) {
        std::span<float> out =
            grad_slice.subspan(static_cast<std::size_t>(b0 / ext_r_ * din_q_),
                               rows.size() / static_cast<std::size_t>(ext_r_));
        inflight.push_back(ctx.comm.ireduce_scatter_sum<float>(r_group_, rows, out));
        trim_pipeline(inflight, depth);
      }
    }
    drain_pipeline(inflight);
    if (scatter) return {};
    return df_in;
  }

  if (sparse_agg) {
    // Mirror of the forward sparse pipeline over the R group: SpMM, pack,
    // sparse all-to-all; on retire, fold into the reduced chunk. Hidden
    // layers re-gather the chunks into df_in; layer 0 folds directly onto
    // the caller's grad-slice chunk (the reduce-scatter's destination).
    const auto& bounds = bwd_sparse_.bounds;
    const int nblk = static_cast<int>(bounds.size()) - 1;
    std::deque<std::pair<comm::CommHandle, int>> exchange;
    std::deque<comm::CommHandle> gathers;
    auto advance_exchange = [&]() {
      exchange.front().first.wait();
      auto& blk = bwd_sparse_.blocks[static_cast<std::size_t>(exchange.front().second)];
      if (scatter) {
        const std::int64_t cr = (blk.b1 - blk.b0) / ext_r_;
        fold_sparse_chunk(blk,
                          grad_slice.subspan(static_cast<std::size_t>(blk.b0 / ext_r_ * din_q_),
                                             static_cast<std::size_t>(cr * din_q_)));
      } else {
        fold_sparse_chunk(blk, blk.chunk_buf);
        std::span<float> rows{df_in.row(blk.b0),
                              static_cast<std::size_t>((blk.b1 - blk.b0) * din_q_)};
        gathers.push_back(ctx.comm.iall_gather<float>(
            r_group_, std::span<const float>(blk.chunk_buf), rows));
      }
      exchange.pop_front();
    };
    for (int k = 0; k < nblk; ++k) {
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      if (b0 == b1) continue;
      sparse::spmm_rows(adj_->a_t, dh, df_in, b0, b1);
      charge_spmm_block(adj_->a_t.range_nnz(b0, b1), b0, b1);
      auto& blk = bwd_sparse_.blocks[static_cast<std::size_t>(k)];
      float* sp = blk.send_buf.data();
      for (const auto r : blk.send_rows) {
        std::memcpy(sp, df_in.row(b0 + r), static_cast<std::size_t>(din_q_) * sizeof(float));
        sp += din_q_;
      }
      exchange.emplace_back(
          ctx.comm.iall_to_all_v<float>(r_group_, std::span<const float>(blk.send_buf),
                                        blk.send_counts.data(), std::span<float>(blk.recv_buf),
                                        blk.recv_counts.data()),
          k);
      while (static_cast<int>(exchange.size()) >= bwd_sparse_.depth) advance_exchange();
      trim_pipeline(gathers, bwd_sparse_.depth);
    }
    while (!exchange.empty()) advance_exchange();
    drain_pipeline(gathers);
    if (scatter) return {};
    return df_in;
  }

  const auto bounds = scatter ? sparse::block_bounds_aligned(rows_p_, nb, ext_r_)
                              : sparse::block_bounds(rows_p_, nb);
  const int depth =
      final_reduce == FinalReduce::None
          ? 1
          : resolve_depth(ctx, adj_->a_t, bounds, rows_r_, r_group_,
                          scatter ? comm::Collective::ReduceScatter
                                  : comm::Collective::AllReduce,
                          &bwd_depth_);
  std::deque<comm::CommHandle> inflight;
  for (int k = 0; k < nb; ++k) {
    const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
    const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
    if (b0 == b1) continue;
    sparse::spmm_rows(adj_->a_t, dh, df_in, b0, b1);
    charge_spmm_block(adj_->a_t.range_nnz(b0, b1), b0, b1);
    std::span<const float> rows{df_in.row(b0), static_cast<std::size_t>((b1 - b0) * din_q_)};
    if (final_reduce == FinalReduce::AllReduce) {
      std::span<float> inout{df_in.row(b0), rows.size()};
      inflight.push_back(ctx.comm.iall_reduce_sum<float>(r_group_, inout));
      trim_pipeline(inflight, depth);
    } else if (scatter) {
      std::span<float> out =
          grad_slice.subspan(static_cast<std::size_t>(b0 / ext_r_ * din_q_),
                             rows.size() / static_cast<std::size_t>(ext_r_));
      inflight.push_back(ctx.comm.ireduce_scatter_sum<float>(r_group_, rows, out));
      trim_pipeline(inflight, depth);
    }
  }
  drain_pipeline(inflight);
  if (scatter) return {};
  return df_in;
}

void DistGcnLayer::apply_grad(sim::RankContext& ctx, KernelTimers& timers) {
  // Retire the dW reduce-scatter posted in backward(); by now it has usually
  // been fully hidden behind the remaining backward compute.
  if (dw_handle_.valid()) dw_handle_.wait();
  adam_.step(w_slice_, dw_slice_);
  const double t = sim::elementwise_time(*ctx.machine, static_cast<std::int64_t>(w_slice_.size()),
                                         6.0);
  ctx.comm.charge_compute(t);
  timers.elementwise += t;
}

}  // namespace plexus::core
