#pragma once
/// \file loss.hpp
/// Distributed masked softmax cross-entropy on the final layer's output.
///
/// The last layer's logits are sharded (rows along R, classes along P,
/// replicated over Q). Each rank all-gathers the class dimension across its
/// P-group, evaluates the masked loss on its row block, and slices its own
/// column block of the gradient; the scalar loss/accuracy are summed across
/// the R-group (row blocks partition the nodes). Padded class columns carry
/// zero gradient, keeping padding inert.

#include <cstdint>
#include <vector>

#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "dense/matrix.hpp"
#include "sim/cluster.hpp"

namespace plexus::core {

struct LossResult {
  double loss = 0.0;      ///< mean over masked nodes (same value on all ranks)
  double accuracy = 0.0;  ///< argmax accuracy over masked nodes
};

/// Caller-owned buffers of distributed_softmax_ce, kept across calls so a
/// steady-state epoch allocates none (each is resized only when the logits
/// block shape changes). Only `dlogits` is meaningful to the caller.
struct LossBuffers {
  std::vector<float> gathered;         ///< P-group gather of the logits column blocks
  dense::Matrix full;                  ///< (N/R x C) valid-class logits
  dense::Matrix grad_full;             ///< gradient of `full`
  std::vector<std::int32_t> labels;    ///< row-local labels
  std::vector<std::uint8_t> row_mask;  ///< row-local mask
  dense::Matrix dlogits;               ///< out: this rank's (N/R x C'/P) gradient block
};

/// `logits_block`: the final layer's output block. `last_layer` selects the
/// roles (and must be the index of the final layer). `mask` is one of the
/// dataset's split masks (output permutation). `norm` divides the gradient
/// (pass the *training* count even when evaluating other splits so gradients
/// stay consistent). With `want_grad` the gradient lands in `buf.dlogits`;
/// without it `buf.dlogits` is left untouched.
LossResult distributed_softmax_ce(sim::RankContext& ctx, const Grid3D& grid, int last_layer,
                                  const DatasetView& view, const dense::Matrix& logits_block,
                                  const std::vector<std::uint8_t>& mask, double norm,
                                  LossBuffers& buf, bool want_grad = true);

}  // namespace plexus::core
