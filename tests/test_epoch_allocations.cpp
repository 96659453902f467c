// A steady-state epoch allocates no activation- or gradient-sized buffer:
// every layer owns its blocks (allocated once per shape and overwritten in
// full), the model owns the gathered input block and the loss scratch, and a
// one-member fp32 all-reduce moves no bytes. This binary replaces the global
// operator new to count every allocation at least as large as the run's
// smallest activation block; after epoch 1 has sized every buffer, two more
// epochs must add none.
//
// Streamed epochs are deliberately not covered: a block-cache miss loads a
// fresh adjacency window by design. bf16 wire is not covered either: its
// packed copies are per-op staging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "core/model.hpp"
#include "core/preprocess.hpp"
#include "core/roles.hpp"
#include "graph/datasets.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

namespace {

std::atomic<std::size_t> g_threshold{std::numeric_limits<std::size_t>::max()};
std::atomic<std::int64_t> g_large_allocs{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (n >= g_threshold.load(std::memory_order_relaxed)) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t prev = g_largest.load(std::memory_order_relaxed);
    while (prev < n && !g_largest.compare_exchange_weak(prev, n, std::memory_order_relaxed)) {
    }
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, so each allocation pairs with free() whichever
// delete the library picks.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pc = plexus::core;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

/// Bytes of the smallest block a layer or the loss owns: per layer H / dH
/// (N/R x Din/Q), Q / dQ / dlogits (N/R x Dout/P) and F_in / dF_in
/// (N/P x Din/Q).
std::size_t smallest_activation_bytes(const pc::Grid3D& grid, std::int64_t padded_nodes,
                                      const std::vector<std::int64_t>& dims) {
  std::int64_t smallest = std::numeric_limits<std::int64_t>::max();
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const pc::LayerRoles roles = pc::roles_for_layer(static_cast<int>(l));
    const std::int64_t rows_r = padded_nodes / grid.extent(roles.r);
    const std::int64_t rows_p = padded_nodes / grid.extent(roles.p);
    const std::int64_t din_q = dims[l] / grid.extent(roles.q);
    const std::int64_t dout_p = dims[l + 1] / grid.extent(roles.p);
    smallest = std::min({smallest, rows_r * din_q, rows_r * dout_p, rows_p * din_q});
  }
  return static_cast<std::size_t>(smallest) * sizeof(float);
}

struct Case {
  const char* name;
  psim::GridShape grid;
  pc::Aggregation agg;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class EpochAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(EpochAllocations, SteadyStateEpochsAllocateNoActivationBuffer) {
  const Case c = GetParam();
  // 64 classes over at most 2 P members on 16384 nodes: the smallest block
  // (a 8192 x 32 gradient slice on 2x1x2) is exactly 1 MiB.
  const pg::Graph g = pg::make_test_graph(16384, 8.0, 64, 64, /*seed=*/5);
  pc::GcnSpec spec;
  spec.hidden_dims = {64};
  spec.options.agg_row_blocks = 4;
  spec.options.aggregation = c.agg;
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Double, spec.num_layers(),
                                       c.grid.size(), /*seed=*/7);
  const pc::InMemoryDatasetView view(ds);

  plexus::comm::World world(c.grid.size());
  pc::Grid3D grid(world, c.grid, psim::Machine::test_machine());
  std::barrier sync(c.grid.size());
  std::int64_t steady_allocs = -1;
  std::size_t largest = 0;
  std::size_t threshold = 0;
  psim::run_cluster(
      world, psim::Machine::test_machine(),
      [&](psim::RankContext& ctx) {
        ctx.comm.set_wire_precision(plexus::comm::WirePrecision::Fp32);
        pc::DistGcn model(ctx, view, grid, spec);
        (void)model.train_epoch(ctx, 0);  // sizes every buffer
        sync.arrive_and_wait();
        if (ctx.rank() == 0) {
          threshold = smallest_activation_bytes(grid, ds.padded_nodes, model.padded_dims());
          g_largest.store(0);
          g_large_allocs.store(0);
          g_threshold.store(threshold);
        }
        sync.arrive_and_wait();
        (void)model.train_epoch(ctx, 1);
        (void)model.train_epoch(ctx, 2);
        sync.arrive_and_wait();
        if (ctx.rank() == 0) {
          g_threshold.store(std::numeric_limits<std::size_t>::max());
          steady_allocs = g_large_allocs.load();
          largest = g_largest.load();
        }
        sync.arrive_and_wait();
      },
      /*enable_clock=*/true, /*intra_rank_threads=*/0,
      &plexus::comm::transport_for(plexus::comm::Backend::Sim));

  ASSERT_GE(threshold, kMiB) << "graph too small for a meaningful threshold";
  EXPECT_EQ(steady_allocs, 0) << "epochs 2-3 allocated " << steady_allocs
                              << " buffers of >= " << threshold << " bytes (largest "
                              << largest << ")";
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndAggregations, EpochAllocations,
    ::testing::Values(Case{"Grid1x1x1Dense", {1, 1, 1}, pc::Aggregation::Dense},
                      Case{"Grid1x1x1Sparse", {1, 1, 1}, pc::Aggregation::Sparse},
                      Case{"Grid2x1x2Dense", {2, 1, 2}, pc::Aggregation::Dense},
                      Case{"Grid2x1x2Sparse", {2, 1, 2}, pc::Aggregation::Sparse}),
    [](const ::testing::TestParamInfo<Case>& info) { return std::string(info.param.name); });

}  // namespace
