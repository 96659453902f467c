// Tests for the simulated-cluster communicator: collective semantics across
// group shapes, clock synchronisation, and concurrent disjoint groups.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/cost.hpp"
#include "comm/world.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

namespace pc = plexus::comm;
namespace psim = plexus::sim;

namespace {

/// Run `fn` SPMD on a fresh world of `size` ranks (optionally pre-creating
/// groups via `setup`).
void spmd(int size, const std::function<void(psim::RankContext&)>& fn,
          const std::function<void(pc::World&)>& setup = {}) {
  pc::World world(size);
  if (setup) setup(world);
  psim::run_cluster(world, psim::Machine::test_machine(), fn);
}

}  // namespace

class GroupSizes : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizes, AllGatherCollectsInRankOrder) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    const std::vector<float> in{static_cast<float>(ctx.rank()),
                                static_cast<float>(ctx.rank()) + 0.5f};
    std::vector<float> out(static_cast<std::size_t>(2 * g), -1.0f);
    ctx.comm.all_gather<float>(ctx.comm.world().world_group(), in, out);
    for (int m = 0; m < g; ++m) {
      EXPECT_EQ(out[static_cast<std::size_t>(2 * m)], static_cast<float>(m));
      EXPECT_EQ(out[static_cast<std::size_t>(2 * m + 1)], static_cast<float>(m) + 0.5f);
    }
  });
}

TEST_P(GroupSizes, AllReduceSums) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    std::vector<float> buf{static_cast<float>(ctx.rank() + 1), 1.0f};
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    EXPECT_EQ(buf[0], static_cast<float>(g * (g + 1) / 2));
    EXPECT_EQ(buf[1], static_cast<float>(g));
  });
}

TEST_P(GroupSizes, ReduceScatterSumsOwnChunk) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    // in[m * 2 + j] = rank contribution for member m.
    std::vector<float> in(static_cast<std::size_t>(2 * g));
    for (int m = 0; m < g; ++m) {
      in[static_cast<std::size_t>(2 * m)] = static_cast<float>(m);
      in[static_cast<std::size_t>(2 * m) + 1] = static_cast<float>(ctx.rank());
    }
    std::vector<float> out(2);
    ctx.comm.reduce_scatter_sum<float>(ctx.comm.world().world_group(), in, out);
    EXPECT_EQ(out[0], static_cast<float>(ctx.rank() * g));
    EXPECT_EQ(out[1], static_cast<float>(g * (g - 1) / 2));
  });
}

TEST_P(GroupSizes, ReduceScatterIsAllReduceThenSlice) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    std::vector<float> in(static_cast<std::size_t>(3 * g));
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<float>(ctx.rank()) + 0.1f * static_cast<float>(i);
    }
    auto copy = in;
    std::vector<float> out(3);
    ctx.comm.reduce_scatter_sum<float>(ctx.comm.world().world_group(), in, out);
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), copy);
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(out[static_cast<std::size_t>(j)],
                  copy[static_cast<std::size_t>(ctx.rank() * 3 + j)], 1e-5f);
    }
  });
}

TEST_P(GroupSizes, BroadcastFromEveryRoot) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    for (int root = 0; root < g; ++root) {
      std::vector<float> buf{ctx.rank() == root ? 42.0f + static_cast<float>(root) : -1.0f};
      ctx.comm.broadcast<float>(ctx.comm.world().world_group(), buf, root);
      EXPECT_EQ(buf[0], 42.0f + static_cast<float>(root));
    }
  });
}

TEST_P(GroupSizes, AllToAllV) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    // Rank r sends r+1 copies of value (r*10 + m) to member m.
    std::vector<std::vector<float>> send(static_cast<std::size_t>(g));
    for (int m = 0; m < g; ++m) {
      send[static_cast<std::size_t>(m)].assign(static_cast<std::size_t>(ctx.rank() + 1),
                                               static_cast<float>(ctx.rank() * 10 + m));
    }
    std::vector<std::vector<float>> recv;
    ctx.comm.all_to_all_v<float>(ctx.comm.world().world_group(), send, recv);
    for (int m = 0; m < g; ++m) {
      ASSERT_EQ(recv[static_cast<std::size_t>(m)].size(), static_cast<std::size_t>(m + 1));
      for (const float v : recv[static_cast<std::size_t>(m)]) {
        EXPECT_EQ(v, static_cast<float>(m * 10 + ctx.rank()));
      }
    }
  });
}

TEST_P(GroupSizes, ScalarReductions) {
  const int g = GetParam();
  spmd(g, [g](psim::RankContext& ctx) {
    const double mx =
        ctx.comm.all_reduce_max_scalar(ctx.comm.world().world_group(), ctx.rank() * 1.5);
    EXPECT_DOUBLE_EQ(mx, (g - 1) * 1.5);
    const double sum =
        ctx.comm.all_reduce_sum_scalar(ctx.comm.world().world_group(), 1.0 + ctx.rank());
    EXPECT_DOUBLE_EQ(sum, g * (g + 1) / 2.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizes, ::testing::Values(1, 2, 3, 4, 8));

TEST(Comm, SubgroupCollectivesAreIndependent) {
  // Two disjoint groups of 2 within a world of 4 run concurrently.
  spmd(
      4,
      [](psim::RankContext& ctx) {
        const pc::GroupId gid = ctx.rank() < 2 ? 1 : 2;
        std::vector<float> buf{static_cast<float>(ctx.rank())};
        ctx.comm.all_reduce_sum<float>(gid, buf);
        if (ctx.rank() < 2) {
          EXPECT_EQ(buf[0], 1.0f);  // 0 + 1
        } else {
          EXPECT_EQ(buf[0], 5.0f);  // 2 + 3
        }
      },
      [](pc::World& w) {
        w.create_group({0, 1});
        w.create_group({2, 3});
      });
}

TEST(Comm, NonContiguousGroupUsesPositions) {
  spmd(
      4,
      [](psim::RankContext& ctx) {
        if (ctx.rank() == 1 || ctx.rank() == 3) return;  // not in group
        std::vector<float> in{static_cast<float>(ctx.rank())};
        std::vector<float> out(2);
        ctx.comm.all_gather<float>(1, in, out);
        EXPECT_EQ(out[0], 0.0f);  // member positions ordered by global rank
        EXPECT_EQ(out[1], 2.0f);
      },
      [](pc::World& w) { w.create_group({0, 2}); });
}

TEST(Comm, ClockSynchronisesToStragglerPlusCollectiveTime) {
  spmd(2, [](psim::RankContext& ctx) {
    // Rank 1 is a straggler by 1.0 simulated seconds.
    if (ctx.rank() == 1) ctx.comm.charge_compute(1.0);
    std::vector<float> buf{1.0f};
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    const auto& g = ctx.comm.world().group(0);
    const double t_coll = pc::collective_time(pc::Collective::AllReduce, 4, 2, g.link);
    EXPECT_NEAR(ctx.clock.time(), 1.0 + t_coll, 1e-12);
  });
}

TEST(Comm, StatsAccumulateBytesAndCalls) {
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> buf(16, 1.0f);
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    const auto& e = ctx.comm.stats().entry(pc::Collective::AllReduce);
    EXPECT_EQ(e.calls, 2);
    EXPECT_EQ(e.bytes, 2 * 16 * 4);
    EXPECT_GT(e.sim_seconds, 0.0);
  });
}

TEST(Comm, CollectiveTimeModelShapes) {
  pc::LinkParams link;
  link.bandwidth = 100e9;
  link.latency = 0.0;
  // eq 4.5: all-reduce of M bytes across G ranks = 2 (G-1)/G M / beta.
  const double t = pc::collective_time(pc::Collective::AllReduce, 1'000'000, 4, link);
  EXPECT_NEAR(t, 2.0 * 0.75 * 1e6 / 100e9, 1e-15);
  // All-gather is half an all-reduce.
  const double tg = pc::collective_time(pc::Collective::AllGather, 1'000'000, 4, link);
  EXPECT_NEAR(tg, t / 2.0, 1e-15);
  // Single-rank groups are free.
  EXPECT_EQ(pc::collective_time(pc::Collective::AllReduce, 1'000'000, 1, link), 0.0);
  // All-to-all distance penalty scales the bandwidth term.
  const double ta1 = pc::collective_time(pc::Collective::AllToAll, 1'000'000, 4, link, 1.0);
  const double ta2 = pc::collective_time(pc::Collective::AllToAll, 1'000'000, 4, link, 2.0);
  EXPECT_NEAR(ta2, 2.0 * ta1, 1e-15);
}

TEST(Comm, WorldValidation) {
  pc::World w(4);
  EXPECT_THROW(w.create_group({}), std::runtime_error);
  EXPECT_THROW(w.create_group({0, 0}), std::runtime_error);
  EXPECT_THROW(w.create_group({5}), std::runtime_error);
  EXPECT_THROW(w.group(99), std::runtime_error);
}

TEST(Cluster, PropagatesExceptions) {
  pc::World world(2);
  EXPECT_THROW(psim::run_cluster(world, psim::Machine::test_machine(),
                                 [](psim::RankContext&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}
