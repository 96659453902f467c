// Tests for the intra-rank kernel engine (util/thread_pool.hpp): coverage of
// the chunk grid (empty ranges, ranges smaller than the thread count),
// exception propagation from workers, deterministic grain-fixed chunking,
// budget scoping, and nested use from simulated rank threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "comm/world.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pu = plexus::util;

TEST(ThreadPool, EmptyRangeNeverCallsBody) {
  pu::ScopedIntraRankThreads scope(4);
  int calls = 0;
  pu::parallel_for(0, 0, [&](std::int64_t, std::int64_t) { ++calls; });
  pu::parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  pu::parallel_for(7, 3, [&](std::int64_t, std::int64_t) { ++calls; });
  pu::parallel_for_grain(0, 0, 16, [&](std::int64_t, std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    pu::ScopedIntraRankThreads scope(threads);
    for (const std::int64_t grain : {std::int64_t{0}, std::int64_t{1}, std::int64_t{7}}) {
      const std::int64_t n = 103;
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      pu::parallel_for_grain(3, 3 + n, grain,
                             [&](std::int64_t, std::int64_t i0, std::int64_t i1) {
                               EXPECT_LT(i0, i1);
                               for (std::int64_t i = i0; i < i1; ++i) {
                                 hits[static_cast<std::size_t>(i - 3)].fetch_add(1);
                               }
                             });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads << " grain=" << grain;
    }
  }
}

TEST(ThreadPool, RangeSmallerThanThreadCount) {
  pu::ScopedIntraRankThreads scope(8);
  std::vector<std::atomic<int>> hits(3);
  pu::parallel_for(0, 3, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainFixedChunkGridIsThreadCountIndependent) {
  // With an explicit grain, the (chunk, begin, end) grid must be identical
  // for every budget — the property grain-fixed reductions rely on.
  const auto grid_for = [](int threads) {
    pu::ScopedIntraRankThreads scope(threads);
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> grid;
    std::mutex m;
    pu::parallel_for_grain(0, 1000, 64,
                           [&](std::int64_t c, std::int64_t i0, std::int64_t i1) {
                             std::lock_guard<std::mutex> lock(m);
                             grid.insert({c, i0, i1});
                           });
    return grid;
  };
  const auto serial = grid_for(1);
  EXPECT_EQ(serial.size(), 16u);  // ceil(1000 / 64)
  EXPECT_EQ(grid_for(2), serial);
  EXPECT_EQ(grid_for(5), serial);
  EXPECT_EQ(grid_for(8), serial);
}

TEST(ThreadPool, ParallelChunkCount) {
  pu::ScopedIntraRankThreads scope(4);
  EXPECT_EQ(pu::parallel_chunk_count(0, 16), 0);
  EXPECT_EQ(pu::parallel_chunk_count(1, 16), 1);
  EXPECT_EQ(pu::parallel_chunk_count(1000, 64), 16);
  EXPECT_EQ(pu::parallel_chunk_count(100, 0), 4);  // grain 0: one chunk per thread
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  pu::ScopedIntraRankThreads scope(4);
  EXPECT_THROW(pu::parallel_for(0, 100,
                                [](std::int64_t i0, std::int64_t) {
                                  if (i0 >= 0) throw std::runtime_error("worker boom");
                                }),
               std::runtime_error);
  // The pool must survive a failed job and run subsequent jobs correctly.
  std::atomic<std::int64_t> sum{0};
  pu::parallel_for(0, 100, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, ResizingEngineInsideBodyIsRejected) {
  // Tearing down the pool from inside one of its own bodies would join the
  // workers of the in-flight job; the engine must refuse instead.
  pu::ScopedIntraRankThreads scope(4);
  EXPECT_THROW(pu::parallel_for(0, 100,
                                [](std::int64_t i0, std::int64_t) {
                                  if (i0 == 0) pu::set_intra_rank_threads(2);
                                }),
               std::runtime_error);
  // The single-chunk fast path must reject a resize just the same.
  EXPECT_THROW(pu::parallel_for_grain(0, 10, 100,
                                      [](std::int64_t, std::int64_t, std::int64_t) {
                                        pu::set_intra_rank_threads(2);
                                      }),
               std::runtime_error);
  // Pool workers may never raise their own budget (pools-inside-pools).
  EXPECT_THROW(pu::parallel_for_grain(0, 8, 1,
                                      [](std::int64_t chunk, std::int64_t, std::int64_t) {
                                        if (chunk == 1) pu::set_intra_rank_threads(2);
                                      }),
               std::runtime_error);
  // Same-size (no-op) sets remain allowed, and the pool stays usable.
  std::atomic<std::int64_t> count{0};
  pu::parallel_for(0, 100, [&](std::int64_t i0, std::int64_t i1) {
    if (i0 == 0) pu::set_intra_rank_threads(4);
    count.fetch_add(i1 - i0);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SerialBudgetRunsInline) {
  pu::ScopedIntraRankThreads scope(1);
  const auto caller = std::this_thread::get_id();
  pu::parallel_for(0, 10, [&](std::int64_t, std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, ScopedBudgetRestores) {
  pu::set_intra_rank_threads(2);
  {
    pu::ScopedIntraRankThreads scope(6);
    EXPECT_EQ(pu::intra_rank_threads(), 6);
  }
  EXPECT_EQ(pu::intra_rank_threads(), 2);
  pu::set_intra_rank_threads(1);
}

TEST(ThreadPool, ScopedProcessThreadsRaisesToProcessBudgetAndRestores) {
  pu::set_intra_rank_threads(1);
  {
    const pu::ScopedProcessThreads scope;
    EXPECT_EQ(pu::intra_rank_threads(), pu::process_threads());
  }
  EXPECT_EQ(pu::intra_rank_threads(), 1);
  // Inside a running body — on a worker or on the owner — it changes nothing.
  pu::ScopedIntraRankThreads outer(3);
  std::atomic<int> changed{0};
  pu::parallel_for_grain(0, 6, 1, [&](std::int64_t, std::int64_t, std::int64_t) {
    const int before = pu::intra_rank_threads();
    const pu::ScopedProcessThreads scope;
    if (pu::intra_rank_threads() != before) changed++;
  });
  EXPECT_EQ(changed.load(), 0);
}

TEST(ThreadPool, ParallelSortMatchesStdSortForAnyBudget) {
  // Distinct keys: the sorted order is unique, so every budget must match.
  const auto perm = pu::random_permutation(100003, 17);
  std::vector<std::int64_t> want(perm);
  std::sort(want.begin(), want.end(), std::greater<>());
  for (const int threads : {1, 2, 3, 4}) {
    pu::ScopedIntraRankThreads scope(threads);
    std::vector<std::int64_t> got(perm);
    std::vector<std::int64_t> scratch;
    pu::parallel_sort(got, std::greater<>(), scratch);
    EXPECT_EQ(got, want) << threads << " threads";
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineAndIsCorrect) {
  pu::ScopedIntraRankThreads scope(4);
  const std::int64_t n = 64;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n * n));
  pu::parallel_for(0, n, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      // Nested loop: must execute inline (same pool busy / worker budget 1).
      pu::parallel_for(0, n, [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          hits[static_cast<std::size_t>(r * n + c)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedUseFromRankThreads) {
  // Every simulated rank drives its own engine concurrently; budgets are
  // per-thread so the pools must not interfere across ranks.
  plexus::comm::World world(4);
  const auto& machine = plexus::sim::Machine::test_machine();
  std::vector<std::int64_t> rank_sums(4, 0);
  plexus::sim::run_cluster(
      world, machine,
      [&](plexus::sim::RankContext& ctx) {
        EXPECT_GE(pu::intra_rank_threads(), 1);
        std::atomic<std::int64_t> sum{0};
        pu::parallel_for(0, 1000, [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) sum.fetch_add(i + ctx.rank());
        });
        rank_sums[static_cast<std::size_t>(ctx.rank())] = sum.load();
      },
      /*enable_clock=*/false, /*intra_rank_threads=*/2);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(rank_sums[static_cast<std::size_t>(r)], 999 * 1000 / 2 + 1000 * r);
  }
}

TEST(ThreadPool, ResolveIntraRankThreads) {
  // Explicit request wins; auto divides the process budget across ranks and
  // never drops below one thread per rank.
  EXPECT_EQ(plexus::sim::resolve_intra_rank_threads(3, 8), 3);
  const int auto_budget = plexus::sim::resolve_intra_rank_threads(0, 1);
  EXPECT_GE(auto_budget, 1);
  EXPECT_GE(auto_budget, plexus::sim::resolve_intra_rank_threads(0, 2));
  EXPECT_EQ(plexus::sim::resolve_intra_rank_threads(0, 1 << 20), 1);
}
