#pragma once
/// \file model.hpp
/// The per-rank distributed GCN: a stack of DistGcnLayers plus the trainable
/// input features (Plexus learns node embeddings, so layer 0's inputs carry
/// gradients and optimizer state and are flat-sharded across the R-group —
/// section 3.1). One train_epoch = forward, masked loss, backward, Adam.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adjacency_store.hpp"
#include "core/checkpoint.hpp"
#include "core/grid.hpp"
#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/preprocess.hpp"
#include "core/shard_stream.hpp"
#include "dense/optim.hpp"
#include "sim/cluster.hpp"

namespace plexus::core {

/// Model hyper-parameters. `hidden_dims` are the widths between the input
/// features and the classes; 3 GCN layers with hidden 128 is the paper's
/// evaluation model (section 6.2).
struct GcnSpec {
  std::vector<std::int64_t> hidden_dims = {128, 128};
  PlexusOptions options;
  std::uint64_t seed = 42;
  bool train_input_features = true;

  int num_layers() const { return static_cast<int>(hidden_dims.size()) + 1; }
};

/// What one epoch reports (simulated times in seconds; maxima across ranks are
/// taken by the trainer).
struct EpochStats {
  double loss = 0.0;
  double train_accuracy = 0.0;
  double epoch_seconds = 0.0;  ///< simulated clock delta
  double spmm_seconds = 0.0;
  double gemm_seconds = 0.0;
  double elementwise_seconds = 0.0;
  /// Time this rank stalled at collective wait()s: ring transfer tails plus
  /// any straggler wait surfacing there (the standard "exposed communication"
  /// of a comm/comp breakdown; see comm/communicator.hpp).
  double comm_seconds = 0.0;
  /// Transfer time hidden behind compute by the pipelined aggregation /
  /// asynchronous gathers (see comm/communicator.hpp).
  double hidden_comm_seconds = 0.0;
  /// Bytes the simulated links actually carried for this rank's collectives
  /// (comm::wire_bytes per op, summed) — the counter the sparse aggregation
  /// strategy shrinks. The trainer max-reduces it like the timings.
  double comm_wire_bytes = 0.0;
  /// Streaming epochs only: *wall-clock* seconds this rank stalled waiting on
  /// block-load futures (exposed IO — everything the prefetch thread hid is
  /// excluded). Zero in resident mode. Max-reduced like the timings.
  double io_exposed_seconds = 0.0;
  /// Streaming epochs only: bytes of shard block files read from disk by this
  /// rank's prefetch thread this epoch. Zero in resident mode.
  double io_bytes_streamed = 0.0;
  double compute_seconds() const { return spmm_seconds + gemm_seconds + elementwise_seconds; }
  /// Everything the rank spent not computing (= epoch - local compute). The
  /// clock only advances through compute charges and exposed collective
  /// waits, so per epoch this equals comm_seconds up to collectives retired
  /// across the epoch boundary.
  double wait_seconds() const { return epoch_seconds - compute_seconds(); }
};

class DistGcn {
 public:
  /// Build the per-rank model from any DatasetView — the shared in-memory
  /// dataset (threaded clusters) or a rank-private ShardedDatasetView (one
  /// process per rank; only this rank's block files are ever opened). The
  /// view must outlive the model.
  DistGcn(sim::RankContext& ctx, const DatasetView& view, const Grid3D& grid, GcnSpec spec);

  EpochStats train_epoch(sim::RankContext& ctx, int epoch);

  /// Forward-only accuracy on a mask (e.g. validation/test split).
  double evaluate(sim::RankContext& ctx, const std::vector<std::uint8_t>& mask);

  /// Forward pass returning a copy of this rank's logits block (tests /
  /// inference).
  dense::Matrix forward_logits(sim::RankContext& ctx);

  int num_layers() const { return spec_.num_layers(); }
  const std::vector<std::int64_t>& padded_dims() const { return padded_dims_; }

  /// Assemble the global model state for checkpointing: one world-group
  /// all-gather per sharded buffer (weights, Adam moments, features), then a
  /// deterministic local re-scatter of every rank's slice into the global
  /// matrices. SPMD — every rank must call it and gets an identical result;
  /// the caller picks one rank to write. The trainer-owned ModelState fields
  /// (scheme, preprocess_seed, pad_multiple, epochs_completed) are left at
  /// their defaults for the caller to fill.
  CheckpointData gather_state(sim::RankContext& ctx);

  /// Inverse of gather_state, purely local: re-extract this rank's weight and
  /// optimizer slices from the global state. The trained features themselves
  /// are NOT restored here — they arrive through the DatasetView the model was
  /// constructed over (a checkpoint directory's feature blocks); only their
  /// Adam moments ride in `s`.
  void restore_state(const io::ModelState& s);

 private:
  /// Gather layer 0's input block into `input_` (see the .cpp).
  void gather_input_features(sim::RankContext& ctx);
  /// Forward through every layer; returns the last layer's output block,
  /// valid until the next forward.
  const dense::Matrix& forward_all(sim::RankContext& ctx, std::uint64_t epoch_seed,
                                   KernelTimers& timers);

  const DatasetView* view_;
  const Grid3D* grid_;
  int rank_ = 0;
  GcnSpec spec_;
  std::vector<std::int64_t> padded_dims_;  ///< per-layer in/out dims, size L+1
  std::unique_ptr<AdjacencyStore> adj_store_;
  /// Streaming views only: the per-rank IO worker that loads adjacency block
  /// windows for the layers' software pipelines. Null in resident mode.
  std::unique_ptr<ShardStream> stream_;
  std::vector<std::unique_ptr<DistGcnLayer>> layers_;

  // Epoch buffers reused across epochs (the layers own the rest): the
  // gathered (N/P0 x D0/Q0) input block and the loss scratch, whose dlogits
  // seeds the backward sweep.
  dense::Matrix input_;
  LossBuffers loss_buf_;

  // Trainable input features: a 1/R0 slice of the (N/P0 x D0/Q0) block,
  // resharded row-major against the blocked-aggregation row blocks: for each
  // aggregation block this rank owns the coord_r0-th sub-range of its rows.
  // This alignment lets the layer-0 feature-gradient reduce-scatter run
  // per block inside the backward software pipeline, and the input gather run
  // per block, instead of as one unblocked collective (with agg_row_blocks ==
  // 1 the layout degenerates to the old contiguous flat slice).
  std::vector<float> f_slice_;
  std::vector<float> df_slice_;
  dense::Adam f_adam_;
  std::int64_t f_block_rows_ = 0;
  std::int64_t f_block_cols_ = 0;
  std::vector<std::int64_t> f_bounds_;  ///< R0-aligned aggregation row blocks
  int f_r_ext_ = 1;                     ///< R0 extent (reshard parts)
  int f_r_coord_ = 0;                   ///< this rank's R0 coordinate
};

}  // namespace plexus::core
