#pragma once
/// \file layer.hpp
/// One distributed GCN layer: the forward pass of Algorithm 1 and backward
/// pass of Algorithm 2, generalised to every layer through the role rotation
/// (roles.hpp). Includes the two kernel-level optimisations of section 5:
/// blocked aggregation with pipelined per-block all-reduce (5.2) and the
/// reversed-order dL/dW GEMM (5.3).
///
/// A layer owns its weight shard (the (Din/Q x Dout/P) block, flat-sharded
/// across the R-parallel group) and that shard's Adam state, plus every
/// activation and gradient block its passes produce: each is allocated once
/// per shape and overwritten in full on every pass, so a steady-state epoch
/// allocates none. All simulated kernel time is charged onto the rank's
/// clock; collectives charge and synchronise through the communicator.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/adjacency_store.hpp"
#include "core/grid.hpp"
#include "core/preprocess.hpp"
#include "core/roles.hpp"
#include "core/shard.hpp"
#include "dense/matrix.hpp"
#include "dense/optim.hpp"
#include "sim/cluster.hpp"
#include "util/enum_names.hpp"

namespace plexus::core {

class ShardStream;

/// Strategy for the blocked aggregation collectives (forward H all-reduce
/// over P, backward dF all-reduce / reduce-scatter over R).
enum class Aggregation {
  /// Ring collectives over the full dense row block — the paper's scheme.
  Dense,
  /// Selective exchange: per block, only the rows the local CSR shard's
  /// nonzeros touch travel (packed sparse all-to-all to the chunk owners +
  /// canonical-order fold; hidden-layer aggregation re-gathers the reduced
  /// chunks with a dense all-gather). Losses stay bitwise-identical to Dense;
  /// only bytes-on-the-wire and the cost-model time change. Falls back to
  /// Dense on single-member groups.
  Sparse,
  /// Per layer and direction, pick Dense or Sparse from the measured nnz
  /// support density per block (cost model comparison; identical decision on
  /// every group member).
  Auto,
};

/// PLEXUS_AGG as an *optional* override: the parsed value when the variable
/// is set (and well-formed), std::nullopt otherwise (a malformed value is
/// logged once, see util::env_enum). This is the TrainOptions::aggregation
/// default — set means "override the model's aggregation", unset means
/// "inherit model.options.aggregation" (see core::resolve_options).
std::optional<Aggregation> env_aggregation();

/// Tunables of the parallel algorithm (paper section 5). Both directions of a
/// layer run one blocked-aggregation pipeline (section 5.2): per row block,
/// SpMM the block, then post its exchange. The pipeline varies along two
/// axes — where the block comes from (the resident CSR shard, or a streamed
/// load) and how it is exchanged (`aggregation`, or nothing for
/// FinalReduce::None) — and the knobs below tune it.
struct PlexusOptions {
  int agg_row_blocks = 1;       ///< >1 enables blocked aggregation (section 5.2)
  bool gemm_dw_tuning = false;  ///< reversed dL/dW multiplication order (section 5.3)
  /// Software-pipeline depth: while a block's SpMM runs, up to
  /// `pipeline_depth - 1` per-block exchanges may be in flight on the comm
  /// channels. 1 = fully blocking (wait immediately after post); 2 = the
  /// classic one-block lookahead of section 5.2. 0 (the default) = adaptive:
  /// each layer picks its own depth per direction from the perf model
  /// (per-block SpMM time vs per-block exchange time —
  /// comm::choose_pipeline_depth). Losses are bitwise-identical for any depth
  /// — only the exposed comm time changes, and the adaptive choice exposes no
  /// more than any fixed depth.
  int pipeline_depth = 0;
  /// Streamed block source only: number of block loads the prefetch thread
  /// keeps in flight ahead of the consuming SpMM. 0 (the default) = adaptive
  /// — the same depth rule with per-block disk time (sim::Machine::disk_bw)
  /// in place of the exchange time, clamped so the in-flight windows stay
  /// inside rss_budget_bytes. Like pipeline_depth a pure scheduling knob:
  /// losses are bitwise-identical for any depth.
  int prefetch_depth = 0;
  /// Streamed block source only: RSS budget (bytes) the block cache and
  /// prefetch window planner honour. < 0 = unbounded.
  std::int64_t rss_budget_bytes = -1;
  /// Exchange of each aggregated block: dense ring collectives or the
  /// sparsity-aware selective exchange (resident block source only).
  Aggregation aggregation = Aggregation::Dense;
  dense::AdamConfig adam;
};

/// How DistGcnLayer::backward applies the final R-group collective to the
/// partial dF_in block (section 3.2): fused into the blocked dF SpMM pipeline
/// as per-block all-reduces (layers > 0), fused as per-block reduce-scatters
/// onto the caller's row-major-resharded gradient slice (layer 0 with
/// trainable features), or left to the caller entirely.
enum class FinalReduce { None, AllReduce, ReduceScatter };

/// Per-rank accumulated simulated kernel time, by category. The io fields
/// are *wall-clock* streaming accounting (exposed block-load wait and bytes
/// actually pulled from disk) — they are never charged onto the simulated
/// clock, so they do not contribute to total().
struct KernelTimers {
  double spmm = 0.0;
  double gemm = 0.0;
  double elementwise = 0.0;
  double io_exposed = 0.0;       ///< wall seconds a streamed SpMM waited on IO
  std::int64_t io_bytes = 0;     ///< bytes streamed from disk (cache misses)
  double total() const { return spmm + gemm + elementwise; }
};

class DistGcnLayer {
 public:
  /// `padded_nodes` is the dataset's padded node count (the only dataset
  /// fact a layer needs — rows shard as padded_nodes / extent).
  ///
  /// The block source of the aggregation pipeline: pass either `adj` (a
  /// resident shard) or, for the out-of-core streaming epoch, adj == nullptr
  /// plus a ShardStream and the layer's LayerStreamPlan — then every
  /// aggregation block is loaded from disk through the stream's prefetch
  /// pipeline instead of read from the shard, with bitwise-identical results.
  /// Streaming requires Aggregation::Dense (the selective exchange plans from
  /// a support scan of the resident nnz structure).
  DistGcnLayer(std::int64_t padded_nodes, const Grid3D& grid, int rank, int layer_index,
               int num_layers, std::int64_t in_dim_padded, std::int64_t out_dim_padded,
               std::int64_t in_dim_valid, std::int64_t out_dim_valid, const AdjacencyShard* adj,
               const PlexusOptions& opts, std::uint64_t seed, ShardStream* stream = nullptr,
               const LayerStreamPlan* stream_plan = nullptr);

  /// Forward: f_in is the (N/P x Din/Q) input block (layer 0's flat-sharded
  /// features must be gathered by the caller). Applies ReLU unless `last`.
  /// `epoch_seed` feeds the per-kernel variability model. Returns the
  /// layer-owned output block (relu(Q), or Q when `last`), valid until this
  /// layer's next forward().
  const dense::Matrix& forward(sim::RankContext& ctx, const dense::Matrix& f_in, bool last,
                               std::uint64_t epoch_seed, KernelTimers& timers);

  /// Backward: df_out is the gradient w.r.t. this layer's output (same block
  /// layout as the forward output, replicated over Q). Hidden layers consume
  /// it in place (df_out becomes dQ = df_out ⊙ relu'(Q)); the last layer
  /// only reads it. Returns the layer-owned dF_in block, valid until this
  /// layer's next backward(). The final R-group
  /// collective over the partial dF_in block is applied per `final_reduce`,
  /// pipelined against the blocked dF = SpMM(A^T, dH) (the backward mirror of
  /// section 5.2):
  ///  * FinalReduce::AllReduce — returns the *reduced* dF_in block.
  ///  * FinalReduce::ReduceScatter — row blocks are aligned to the R extent
  ///    and each block is reduce-scattered onto `grad_slice` (the caller's
  ///    row-major-resharded flat gradient slice, layer 0 / section 3.2);
  ///    the returned block is the unreduced partial.
  ///  * FinalReduce::None — returns the *partial* dF_in; the caller applies
  ///    whatever collective it needs.
  /// Stores dW internally; its reduce-scatter is posted asynchronously and
  /// retired in apply_grad().
  dense::Matrix& backward(sim::RankContext& ctx, dense::Matrix& df_out, bool last,
                          KernelTimers& timers, FinalReduce final_reduce = FinalReduce::None,
                          std::span<float> grad_slice = {});

  /// Adam step on the local weight slice using the gradient from backward().
  /// Waits for the asynchronous dW reduce-scatter posted there.
  void apply_grad(sim::RankContext& ctx, KernelTimers& timers);

  const LayerRoles& roles() const { return roles_; }
  bool streaming() const { return stream_ != nullptr; }
  comm::GroupId r_group() const { return r_group_; }
  std::int64_t weight_slice_size() const { return static_cast<std::int64_t>(w_slice_.size()); }

  /// This rank's flat weight slice and its optimizer state (checkpointing).
  std::span<const float> weight_slice() const { return w_slice_; }
  const dense::Adam& optimizer() const { return adam_; }

  /// Overwrite the weight slice + Adam state (checkpoint restore). Span
  /// sizes must match weight_slice_size().
  void restore_state(std::span<const float> w, std::span<const float> m,
                     std::span<const float> v, std::int64_t adam_t);

 private:
  /// Post the R-group all-gather assembling the (Din/Q x Dout/P) weight block
  /// into `w_block_`; the caller waits the handle before reading it.
  comm::CommHandle igathered_weights(sim::RankContext& ctx);

  /// Blocked aggregation (section 5.2), the one pipeline behind forward and
  /// backward: out = SpMM(A, x) over the P group (`fwd`) or SpMM(A^T, x)
  /// over the R group, exchanged per block as `reduce` says (forward passes
  /// AllReduce). Per block: take the block from the source (resident CSR
  /// slice, or the next streamed load), SpMM it, charge it, post its exchange
  /// and retire exchanges down to the pipeline depth. `epoch_seed` seeds the
  /// forward SpMM variability model; `grad_slice` receives ReduceScatter.
  void aggregate(sim::RankContext& ctx, bool fwd, const dense::Matrix& x, dense::Matrix& out,
                 FinalReduce reduce, std::span<float> grad_slice, std::uint64_t epoch_seed,
                 KernelTimers& timers);

  /// The adaptive depth rule shared by every pipeline of the layer: the
  /// perf-model balance (comm::choose_pipeline_depth) of per-block SpMM time
  /// against the per-block time `t_other` of what overlaps it (an exchange,
  /// or a disk read) over `nblocks` blocks. The block source supplies the
  /// SpMM time: resident (`a`), the fastest nonempty block's exact
  /// noise-free time (noise only slows blocks down, so this lower-bounds the
  /// hiding window); streamed (`a == nullptr`), the stream plan's uniform
  /// per-block nnz estimate at the largest block's rows.
  int adaptive_depth(sim::RankContext& ctx, const sparse::Csr* a,
                     const std::vector<std::int64_t>& bounds, std::int64_t dense_rows,
                     double t_other, int nblocks) const;

  /// In-flight block loads of the streamed block source: the fixed
  /// PlexusOptions::prefetch_depth, or (0 = adaptive) adaptive_depth against
  /// per-block disk time, clamped to the RSS budget. Cached per direction.
  int resolve_prefetch_depth(sim::RankContext& ctx, const std::vector<std::int64_t>& bounds,
                             std::int64_t dense_rows, int* cache);

  /// One aggregation block of the sparse selective-exchange plan. The block's
  /// rows are split into `group size` equal chunks, chunk c owned by member c;
  /// at steady state only the packed float payloads move.
  struct SparseBlockPlan {
    std::int64_t b0 = 0, b1 = 0;  ///< row bounds (b1 - b0 divisible by G)
    /// My support rows in [b0, b1) (block-local, ascending): rows with nnz in
    /// my CSR shard. Ascending order means the packed send buffer is packed
    /// by destination chunk automatically.
    std::vector<std::int32_t> send_rows;
    std::vector<std::int64_t> send_counts;  ///< elements to each member (rows x Din/Q)
    std::vector<std::int64_t> recv_counts;  ///< elements from each member
    /// Per source member: the chunk-local rows of *my* chunk that member
    /// contributes, aligned with its packed payload (exchanged at plan build).
    std::vector<std::vector<std::int32_t>> src_rows;
    // Persistent per-block staging (handles of different blocks are in
    // flight concurrently, so the buffers cannot be shared).
    std::vector<float> send_buf;   ///< my packed support rows
    std::vector<float> recv_buf;   ///< peers' contributions to my chunk
    std::vector<float> chunk_buf;  ///< my reduced chunk (all-gather input)
  };

  /// Lazily-built per-direction plan. Building runs collectives on the
  /// group (support-count all-gather, depth max-reduce, per-block row-list
  /// exchange), so it happens in SPMD lockstep at the first forward/backward.
  struct SparsePlan {
    bool built = false;
    bool sparse = false;   ///< decision: false = dense fallback
    bool scatter = false;  ///< built for the reduce-scatter direction
    int depth = 1;         ///< group-uniform pipeline depth for this plan
    std::vector<std::int64_t> bounds;  ///< G-aligned row-block bounds
    std::vector<SparseBlockPlan> blocks;
  };

  /// Build `plan` for aggregating `rows` output rows of `a` over group `gid`
  /// (`G` members): scan per-block support, gather support counts (the Auto
  /// decision input), and — when sparse wins — exchange per-block row lists
  /// and size the staging buffers.
  void build_sparse_plan(sim::RankContext& ctx, SparsePlan& plan, const sparse::Csr& a,
                        std::int64_t rows, std::int64_t dense_rows, int G,
                        comm::GroupId gid, bool scatter);

  /// Fold the received contributions of `blk` into its reduced chunk in
  /// canonical member order. `out` — `chunk_buf` for the all-reduce
  /// direction, the caller's grad-slice chunk for scatter — is zero-prefilled
  /// here first.
  void fold_sparse_chunk(const SparseBlockPlan& blk, std::span<float> out) const;

  const Grid3D* grid_;
  const AdjacencyShard* adj_;
  ShardStream* stream_ = nullptr;            ///< streaming mode: block loader
  const LayerStreamPlan* splan_ = nullptr;   ///< streaming mode: shard window
  PlexusOptions opts_;
  int layer_;
  LayerRoles roles_;

  // Axis extents and this rank's coordinates along the role axes.
  int ext_p_, ext_q_, ext_r_;
  int coord_p_, coord_q_, coord_r_;
  comm::GroupId p_group_, q_group_, r_group_;

  // Padded block dims.
  std::int64_t rows_r_;   ///< N'/R: output rows
  std::int64_t rows_p_;   ///< N'/P: input rows
  std::int64_t din_q_;    ///< Din'/Q
  std::int64_t dout_p_;   ///< Dout'/P

  // Weight slice (1/R of the (Din/Q x Dout/P) block, flattened) + Adam.
  std::vector<float> w_slice_;
  std::vector<float> dw_slice_;
  dense::Adam adam_;

  // Layer-owned activation and gradient blocks (allocated per shape, then
  // overwritten in full every pass). h_ and q_pre_ are the forward state the
  // backward reads; q_pre_ is also the forward's result.
  dense::Matrix h_;        ///< aggregated H block (N'/R x Din'/Q)
  dense::Matrix q_pre_;    ///< combination output Q (N'/R x Dout'/P); relu(Q) on hidden layers
  dense::Matrix dh_;       ///< dH = dQ W^T (N'/R x Din'/Q)
  dense::Matrix df_in_;    ///< dF_in = SpMM(A^T, dH) (N'/P x Din'/Q), backward's result
  dense::Matrix w_block_;  ///< gathered (Din'/Q x Dout'/P) weight block

  // In-flight backward state: the full dW block must stay alive until its
  // reduce-scatter (posted in backward, hidden behind the remaining backward
  // compute) is retired in apply_grad.
  dense::Matrix dw_block_;
  comm::CommHandle dw_handle_;

  // Cached adaptive pipeline depths (0 = not yet computed); the machine,
  // shards and links are fixed for the layer's lifetime.
  int fwd_depth_ = 0;
  int bwd_depth_ = 0;

  // Cached adaptive prefetch depths of the streaming IO pipeline.
  int fwd_io_depth_ = 0;
  int bwd_io_depth_ = 0;

  // Sparse selective-aggregation plans, one per direction (the nnz structure
  // and groups are fixed for the layer's lifetime).
  SparsePlan fwd_sparse_;
  SparsePlan bwd_sparse_;
};

}  // namespace plexus::core

/// Registry entry (util/enum_names.hpp): the one source of truth for
/// aggregation-strategy names.
template <>
struct plexus::util::EnumNames<plexus::core::Aggregation> {
  static constexpr const char* kind = "aggregation";
  static constexpr EnumEntry<plexus::core::Aggregation> table[] = {
      {plexus::core::Aggregation::Dense, "dense"},
      {plexus::core::Aggregation::Sparse, "sparse"},
      {plexus::core::Aggregation::Auto, "auto"},
  };
};
