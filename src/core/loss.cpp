#include "core/loss.hpp"

#include <algorithm>

#include "core/roles.hpp"
#include "core/shard.hpp"
#include "dense/ops.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace plexus::core {

LossResult distributed_softmax_ce(sim::RankContext& ctx, const Grid3D& grid, int last_layer,
                                  const DatasetView& view, const dense::Matrix& logits_block,
                                  const std::vector<std::uint8_t>& mask, double norm,
                                  LossBuffers& buf, bool want_grad) {
  const LayerRoles roles = roles_for_layer(last_layer);
  const Coords c = grid.coords_of(ctx.rank());
  const int ext_p = grid.extent(roles.p);
  const int ext_r = grid.extent(roles.r);
  const int coord_p = Grid3D::coord(c, roles.p);
  const int coord_r = Grid3D::coord(c, roles.r);
  const auto p_group = grid.group_along(roles.p, ctx.rank());
  const auto r_group = grid.group_along(roles.r, ctx.rank());

  const std::int64_t rows = logits_block.rows();
  const std::int64_t cols_block = logits_block.cols();
  const std::int64_t padded_classes = cols_block * ext_p;
  const std::int64_t classes = view.num_classes();
  const Slice row_slice = uniform_slice(view.padded_nodes(), ext_r, coord_r);
  PLEXUS_CHECK(rows == row_slice.size(), "logits block rows mismatch");

  // Gather the class dimension across the P-group and reassemble column
  // blocks — unless this block already is the whole valid-class matrix (one
  // P member, no class padding), which the loss then reads in place. The
  // gather is posted either way, so the comm accounting never depends on it.
  buf.gathered.resize(static_cast<std::size_t>(rows * padded_classes));
  ctx.comm.all_gather<float>(p_group, logits_block.flat(), buf.gathered);
  const bool whole = ext_p == 1 && cols_block == classes;
  if (!whole) {
    ensure_shape(buf.full, rows, classes);
    for (int p = 0; p < ext_p; ++p) {
      const float* src = buf.gathered.data() + static_cast<std::size_t>(p) * rows * cols_block;
      const std::int64_t col0 = p * cols_block;
      if (col0 >= classes) break;
      const std::int64_t ncols = std::min(cols_block, classes - col0);
      for (std::int64_t i = 0; i < rows; ++i) {
        std::copy(src + i * cols_block, src + i * cols_block + ncols, buf.full.row(i) + col0);
      }
    }
  }
  const dense::Matrix& full = whole ? logits_block : buf.full;

  // Row-local labels/mask.
  buf.labels.resize(static_cast<std::size_t>(rows));
  buf.row_mask.resize(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    buf.labels[static_cast<std::size_t>(i)] =
        view.labels()[static_cast<std::size_t>(row_slice.begin + i)];
    buf.row_mask[static_cast<std::size_t>(i)] = mask[static_cast<std::size_t>(row_slice.begin + i)];
  }

  // The gradient goes straight to dlogits when the block is whole.
  dense::Matrix* grad = nullptr;
  if (want_grad) {
    ensure_shape(buf.dlogits, rows, cols_block);
    if (whole) {
      grad = &buf.dlogits;
    } else {
      ensure_shape(buf.grad_full, rows, classes);
      grad = &buf.grad_full;
    }
  }
  const auto ce = dense::softmax_cross_entropy(full, buf.labels, buf.row_mask, norm, grad);
  const double t = sim::elementwise_time(*ctx.machine, rows * padded_classes, 4.0);
  ctx.comm.charge_compute(t);

  LossResult out;
  // Every rank in an R-line holds a distinct row block; ranks along P/Q hold
  // replicas. Summing across R gives the global masked totals on all ranks.
  const double total_loss = ctx.comm.all_reduce_sum_scalar(r_group, ce.loss_sum);
  const double total_correct =
      ctx.comm.all_reduce_sum_scalar(r_group, static_cast<double>(ce.correct));
  const double total_count =
      ctx.comm.all_reduce_sum_scalar(r_group, static_cast<double>(ce.count));
  out.loss = total_count > 0 ? total_loss / total_count : 0.0;
  out.accuracy = total_count > 0 ? total_correct / total_count : 0.0;

  if (want_grad && !whole) {
    // Slice this rank's class-column block; padded columns get zero gradient.
    const std::int64_t col0 = static_cast<std::int64_t>(coord_p) * cols_block;
    const std::int64_t ncols = std::max<std::int64_t>(0, std::min(cols_block, classes - col0));
    for (std::int64_t i = 0; i < rows; ++i) {
      float* dst = buf.dlogits.row(i);
      if (ncols > 0) {
        std::copy(buf.grad_full.row(i) + col0, buf.grad_full.row(i) + col0 + ncols, dst);
      }
      std::fill(dst + ncols, dst + cols_block, 0.0f);
    }
  }
  return out;
}

}  // namespace plexus::core
