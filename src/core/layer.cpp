#include "core/layer.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <span>
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

std::optional<Aggregation> env_aggregation() {
  return util::env_enum<Aggregation>("PLEXUS_AGG");
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

comm::CommHandle DistGcnLayer::igathered_weights(sim::RankContext& ctx) {
  ensure_shape(w_block_, din_q_, dout_p_);
  return ctx.comm.iall_gather<float>(r_group_, w_slice_, w_block_.flat());
}

int DistGcnLayer::adaptive_depth(sim::RankContext& ctx, const sparse::Csr* a,
                                 const std::vector<std::int64_t>& bounds,
                                 std::int64_t dense_rows, double t_other, int nblocks) const {
  double t_spmm = 0.0;
  if (a == nullptr) {
    std::int64_t max_rows = 0;
    int nonempty = 0;
    bounds_shape(bounds, &max_rows, &nonempty);
    const sim::SpmmShape shape{std::max<std::int64_t>(1, splan_->est_nnz / std::max(1, nonempty)),
                               std::max<std::int64_t>(1, max_rows), dense_rows, din_q_};
    t_spmm = sim::spmm_time(*ctx.machine, shape);
  } else {
    bool any = false;
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::int64_t b0 = bounds[k];
      const std::int64_t b1 = bounds[k + 1];
      if (b0 == b1) continue;
      const sim::SpmmShape shape{a->range_nnz(b0, b1), b1 - b0, dense_rows, din_q_};
      const double t = sim::spmm_time(*ctx.machine, shape);
      t_spmm = any ? std::min(t_spmm, t) : t;
      any = true;
    }
  }
  return comm::choose_pipeline_depth(t_spmm, t_other, nblocks);
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
  std::int64_t depth = adaptive_depth(ctx, nullptr, bounds, dense_rows, t_disk, nb);
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
    const double t_ring = comm::sparse_aggregation_time(
        max_blk_rows * din_q_ * wire_eb, max_support * din_q_ * wire_eb, scatter, G, g.link,
        g.a2a_distance_penalty);
    const int local = adaptive_depth(ctx, &a, plan.bounds, dense_rows, t_ring, nonempty);
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

void DistGcnLayer::aggregate(sim::RankContext& ctx, bool fwd, const dense::Matrix& x,
                             dense::Matrix& out, FinalReduce reduce, std::span<float> grad_slice,
                             std::uint64_t epoch_seed, KernelTimers& timers) {
  const sim::Machine& m = *ctx.machine;
  // Forward H = SpMM(A, F) reduces over P; backward dF = SpMM(A^T, dH) over R.
  const sparse::Csr* a = adj_ == nullptr ? nullptr : fwd ? &adj_->a : &adj_->a_t;
  const std::int64_t rows = fwd ? rows_r_ : rows_p_;
  const std::int64_t in_rows = fwd ? rows_p_ : rows_r_;
  const int G = fwd ? ext_p_ : ext_r_;
  const comm::GroupId gid = fwd ? p_group_ : r_group_;
  const bool scatter = reduce == FinalReduce::ReduceScatter;
  const int nb = std::max(1, opts_.agg_row_blocks);

  // Exchange. Sparse selective aggregation is planned lazily (Auto may fall
  // back to dense); the plan build runs its own collectives, so it happens
  // here — in SPMD lockstep at every member's first call — and again if the
  // caller switches the final-reduce shape. None has no collective to
  // sparsify.
  SparsePlan& plan = fwd ? fwd_sparse_ : bwd_sparse_;
  bool sparse_agg = false;
  if (reduce != FinalReduce::None && opts_.aggregation != Aggregation::Dense) {
    if (!plan.built || plan.scatter != scatter) {
      build_sparse_plan(ctx, plan, *a, rows, in_rows, G, gid, scatter);
    }
    sparse_agg = plan.sparse;
  }
  // Reduce-scatter blocks are G-aligned so each chunk lands on the caller's
  // resharded gradient slice; the sparse plan's blocks are G-aligned too.
  const std::vector<std::int64_t> bounds =
      sparse_agg ? plan.bounds
      : scatter  ? sparse::block_bounds_aligned(rows, nb, G)
                 : sparse::block_bounds(rows, nb);
  const int nblk = static_cast<int>(bounds.size()) - 1;

  // Pipeline depth: the sparse plan's group-uniform depth, the fixed option,
  // or the adaptive choice against this exchange's largest-block ring time —
  // a purely local scheduling decision, cached per direction.
  int depth = sparse_agg ? plan.depth : opts_.pipeline_depth;
  if (depth <= 0 && reduce != FinalReduce::None) {
    int& cached = fwd ? fwd_depth_ : bwd_depth_;
    if (cached == 0) {
      std::int64_t max_rows = 0;
      int nonempty = 0;
      bounds_shape(bounds, &max_rows, &nonempty);
      const auto& g = ctx.comm.world().group(gid);
      // Price what the links actually carry: bf16 wire halves the per-element
      // volume, shrinking the hiding window and therefore the adaptive depth.
      const auto eb = static_cast<std::int64_t>(ctx.comm.wire_float_bytes());
      const double t_ring = comm::collective_time(
          scatter ? comm::Collective::ReduceScatter : comm::Collective::AllReduce,
          eb * max_rows * din_q_, g.size(), g.link, g.a2a_distance_penalty);
      cached = adaptive_depth(ctx, a, bounds, in_rows, t_ring, nblk);
    }
    depth = cached;
  }

  // Block source. Streamed block loads are posted as IO futures into their
  // own pipeline deque, so disk reads (and any cache misses behind them)
  // overlap earlier blocks' SpMMs exactly like the exchanges do. Backward
  // rows [b0, b1) of A^T are rows [c.begin + b0, c.begin + b1) x [r.begin,
  // r.end) of the transpose version: the stored A^T, bitwise equal to the
  // resident transpose.
  std::deque<std::future<BlockLoad>> loads;
  int* pf_cache = fwd ? &fwd_io_depth_ : &bwd_io_depth_;
  const int pf = a == nullptr ? resolve_prefetch_depth(ctx, bounds, in_rows, pf_cache) : 0;
  int next = 0;
  auto fill = [&] {
    for (; static_cast<int>(loads.size()) < pf && next < nblk; ++next) {
      const std::int64_t b0 = bounds[static_cast<std::size_t>(next)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(next) + 1];
      if (b0 == b1) continue;
      const auto& r = splan_->rows;
      const auto& c = splan_->cols;
      loads.push_back(fwd ? stream_->post(splan_->version, r.begin + b0, r.begin + b1, c.begin,
                                          c.end)
                          : stream_->post(splan_->transpose_version, c.begin + b0,
                                          c.begin + b1, r.begin, r.end));
    }
  };
  fill();

  // Stage 1 holds each block's exchange (dense collective or sparse
  // all-to-all); retiring a sparse block folds it, and the hidden-layer
  // direction re-gathers the reduced chunks in stage 2. Both stages are
  // trimmed to the same depth. Exposed comm time is charged inside wait()
  // from each handle's completion ordering against this rank's clock.
  std::deque<std::pair<comm::CommHandle, int>> exchange;
  std::deque<comm::CommHandle> gathers;
  auto block_rows = [&](std::int64_t b0, std::int64_t b1) {
    return std::span<float>{out.row(b0), static_cast<std::size_t>((b1 - b0) * din_q_)};
  };
  auto grad_chunk = [&](std::int64_t b0, std::int64_t b1) {
    return grad_slice.subspan(static_cast<std::size_t>(b0 / G * din_q_),
                              static_cast<std::size_t>((b1 - b0) / G * din_q_));
  };
  auto retire = [&] {
    exchange.front().first.wait();
    if (sparse_agg) {
      auto& blk = plan.blocks[static_cast<std::size_t>(exchange.front().second)];
      if (scatter) {
        fold_sparse_chunk(blk, grad_chunk(blk.b0, blk.b1));
      } else {
        fold_sparse_chunk(blk, blk.chunk_buf);
        gathers.push_back(ctx.comm.iall_gather<float>(
            gid, std::span<const float>(blk.chunk_buf), block_rows(blk.b0, blk.b1)));
      }
    }
    exchange.pop_front();
  };

  for (int k = 0; k < nblk; ++k) {
    const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
    const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
    if (b0 == b1) continue;  // bounds are grid-derived, identical on all members
    std::int64_t nnz = 0;
    if (a != nullptr) {
      sparse::spmm_rows(*a, x, out, b0, b1);
      nnz = a->range_nnz(b0, b1);
    } else {
      // Only the wait compute could not cover lands in timers.io_exposed.
      util::WallTimer io_timer;
      BlockLoad bl = loads.front().get();
      timers.io_exposed += io_timer.seconds();
      timers.io_bytes += bl.bytes_read;
      loads.pop_front();
      fill();  // repost before computing, so the IO worker never idles
      sparse::spmm_into_rows(bl.csr, x, out, b0);
      nnz = bl.csr.nnz();
    }
    // A streamed block charges its own nnz (== range_nnz of the resident
    // shard), so the sim cost — forward noise seed included — is identical.
    const sim::SpmmShape shape{nnz, b1 - b0, in_rows, din_q_};
    double t_block = sim::spmm_time(m, shape);
    if (fwd) {
      const std::uint64_t noise_seed = util::hash_combine(
          epoch_seed, util::hash_combine(static_cast<std::uint64_t>(layer_),
                                         util::hash_combine(static_cast<std::uint64_t>(ctx.rank()),
                                                            static_cast<std::uint64_t>(k))));
      t_block *= sim::spmm_noise_factor(m, shape, noise_seed);
    }
    ctx.comm.charge_compute(t_block);
    timers.spmm += t_block;

    if (reduce == FinalReduce::None) continue;
    if (sparse_agg) {
      // Pack the support rows and send them to the chunk owners.
      auto& blk = plan.blocks[static_cast<std::size_t>(k)];
      float* sp = blk.send_buf.data();
      for (const auto r : blk.send_rows) {
        std::memcpy(sp, out.row(b0 + r), static_cast<std::size_t>(din_q_) * sizeof(float));
        sp += din_q_;
      }
      exchange.emplace_back(
          ctx.comm.iall_to_all_v<float>(gid, std::span<const float>(blk.send_buf),
                                        blk.send_counts.data(), std::span<float>(blk.recv_buf),
                                        blk.recv_counts.data()),
          k);
    } else if (scatter) {
      const std::span<const float> in = block_rows(b0, b1);
      exchange.emplace_back(ctx.comm.ireduce_scatter_sum<float>(gid, in, grad_chunk(b0, b1)), k);
    } else {
      exchange.emplace_back(ctx.comm.iall_reduce_sum<float>(gid, block_rows(b0, b1)), k);
    }
    while (static_cast<int>(exchange.size()) >= depth) retire();
    trim_pipeline(gathers, depth);
  }
  while (!exchange.empty()) retire();
  drain_pipeline(gathers);
}

const dense::Matrix& DistGcnLayer::forward(sim::RankContext& ctx, const dense::Matrix& f_in,
                                           bool last, std::uint64_t epoch_seed,
                                           KernelTimers& timers) {
  PLEXUS_CHECK(f_in.rows() == rows_p_ && f_in.cols() == din_q_, "forward input block shape");
  const sim::Machine& m = *ctx.machine;

  // ---- Step 1: aggregation H = SpMM(A, F), all-reduced over the P group.
  // Blocked aggregation (section 5.2) as a true software pipeline: block k's
  // exchange executes on the comm thread while later blocks' SpMMs run here,
  // with up to pipeline_depth - 1 exchanges in flight.
  //
  // The weight gather over R depends only on w_slice_, so it is posted before
  // the aggregation and retired just before the combination GEMM: on the sim
  // timeline it hides behind the SpMM blocks instead of charging full latency.
  // The SpMM zero-fills every output row of every block, and the blocks tile
  // all rows, so h_ needs no clearing.
  ensure_shape(h_, rows_r_, din_q_);
  comm::CommHandle w_gather = igathered_weights(ctx);
  aggregate(ctx, /*fwd=*/true, f_in, h_, FinalReduce::AllReduce, {}, epoch_seed, timers);

  // ---- Step 2: combination Q = SGEMM(H, W), all-reduced over the Q group.
  // beta = 0 overwrites q_pre_ without reading it.
  w_gather.wait();
  ensure_shape(q_pre_, rows_r_, dout_p_);
  dense::gemm(dense::Trans::N, dense::Trans::N, 1.0f, h_, w_block_, 0.0f, q_pre_);
  const double t_gemm = sim::gemm_time(m, rows_r_, dout_p_, din_q_, dense::Trans::N,
                                       dense::Trans::N);
  ctx.comm.charge_compute(t_gemm);
  timers.gemm += t_gemm;
  ctx.comm.all_reduce_sum<float>(q_group_, q_pre_.flat());

  // ---- Step 3: activation, in place. relu(q) > 0 exactly when q > 0 for
  // every float (±0, NaN, ±inf and denormals included), so backward's relu'
  // mask reads the same bits from relu(Q) as it would from Q.
  if (last) return q_pre_;
  dense::relu(q_pre_, q_pre_);
  const double t_act = sim::elementwise_time(m, q_pre_.size());
  ctx.comm.charge_compute(t_act);
  timers.elementwise += t_act;
  return q_pre_;
}

dense::Matrix& DistGcnLayer::backward(sim::RankContext& ctx, dense::Matrix& df_out, bool last,
                                      KernelTimers& timers, FinalReduce final_reduce,
                                      std::span<float> grad_slice) {
  PLEXUS_CHECK(df_out.rows() == rows_r_ && df_out.cols() == dout_p_, "backward input shape");
  const sim::Machine& m = *ctx.machine;

  // W is needed only for the dH GEMM: post the R-group gather now so it
  // overlaps relu' and the dW GEMM (a blocking gather here used to charge its
  // full latency every backward pass).
  comm::CommHandle w_gather = igathered_weights(ctx);

  // dQ = dF_out (last layer: the loss grad, read as is) or
  // dF_out ⊙ relu'(Q) (eq. 2.4), computed in place over df_out; q_pre_ holds
  // relu(Q), whose positive mask is Q's.
  if (!last) {
    dense::relu_backward(q_pre_, df_out, df_out);
    const double t = sim::elementwise_time(m, df_out.size(), 3.0);
    ctx.comm.charge_compute(t);
    timers.elementwise += t;
  }
  const dense::Matrix& dq = df_out;

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
    ensure_shape(dw_block_, din_q_, dout_p_);
    dense::gemm(dense::Trans::T, dense::Trans::N, 1.0f, h_, dq, 0.0f, dw_block_);
    const double t = sim::gemm_time(m, din_q_, dout_p_, rows_r_, dense::Trans::T, dense::Trans::N);
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  }
  dw_handle_ = ctx.comm.ireduce_scatter_sum<float>(r_group_, dw_block_.flat(), dw_slice_);

  // dH = dQ W^T (eq. 2.6), all-reduced over the P group (Alg. 2 lines 4-6).
  w_gather.wait();
  ensure_shape(dh_, rows_r_, din_q_);
  dense::gemm(dense::Trans::N, dense::Trans::T, 1.0f, dq, w_block_, 0.0f, dh_);
  {
    const double t = sim::gemm_time(m, rows_r_, din_q_, dout_p_, dense::Trans::N, dense::Trans::T);
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  }
  ctx.comm.all_reduce_sum<float>(p_group_, dh_.flat());

  // dF = SpMM(A^T, dH) (eq. 2.7), blocked over output rows — the backward
  // mirror of section 5.2. The final R-group collective pipelines behind the
  // next block's SpMM: per-block all-reduces for the hidden layers, or (layer
  // 0 with trainable features) per-block reduce-scatters whose R-aligned row
  // blocks land directly on the caller's resharded flat gradient slice.
  ensure_shape(df_in_, rows_p_, din_q_);
  if (final_reduce == FinalReduce::ReduceScatter) {
    PLEXUS_CHECK(grad_slice.size() ==
                     static_cast<std::size_t>(rows_p_ / ext_r_ * din_q_),
                 "backward: grad_slice does not match the resharded feature slice");
  }
  aggregate(ctx, /*fwd=*/false, dh_, df_in_, final_reduce, grad_slice, /*epoch_seed=*/0, timers);
  return df_in_;
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
