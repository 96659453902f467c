// Transport conformance: the Sim byte-movement backend must deliver exactly
// the payloads a serial reference computes from the same inputs. A
// collective schedule over eight group shapes (empty and singleton chunks
// included) runs under Sim on every comm-channel budget, and each rank's
// output stream must match bit for bit a stream computed here without any
// transport: concatenation, a float left-fold in canonical member order
// (member 0, 1, …, G-1 — the order every backend, MPI included, must use),
// the root's copy and the packed v-chunks. The schedule
// runs under both wire formats: under bf16 the reference rounds every input
// to bf16 (round to nearest even), folds the rounded contributions in fp32
// and carries the rounded values through every copy, the broadcast root's
// own buffer included. Plus the topology-aware channel routing (line-family
// keys) and the backend registry.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/transport.hpp"
#include "comm/world.hpp"
#include "core/grid.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pc = plexus::comm;
namespace pcore = plexus::core;
namespace psim = plexus::sim;

namespace {

using Streams = std::vector<std::vector<float>>;  ///< one output stream per rank

/// Group shapes exercised by the conformance schedule, as member lists over a
/// world of 8: full world, halves, strided combs, a non-contiguous triple, a
/// pair and a singleton.
std::vector<std::vector<int>> conformance_groups() {
  return {
      {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 4, 6},
      {1, 3, 5, 7},             {0, 5, 6},    {2, 7},       {3},
  };
}

/// A world of 8 carrying the conformance groups; returns their ids.
std::vector<pc::GroupId> create_conformance_groups(pc::World& world) {
  std::vector<pc::GroupId> gids;
  for (const auto& members : conformance_groups()) gids.push_back(world.create_group(members));
  return gids;
}

/// Deterministic per-(group, collective, member) payload so the run and the
/// reference see identical inputs. Values carry rank, group and index so
/// misrouted chunks can never collide.
float payload_value(int gid, int kind, int rank, std::size_t i) {
  return static_cast<float>(gid * 1000 + kind * 100 + rank) +
         0.125f * static_cast<float>(i % 32);
}

/// Per-member chunk length of group `gid`: differs per group (including 0)
/// but is equal across the group's members.
std::size_t chunk_len(pc::GroupId gid) {
  return static_cast<std::size_t>((gid * 7) % 5) + (gid % 2 == 0 ? 3 : 0);
}

/// Flat all-to-all-v element count from group position `src` to `dst`,
/// zeros included.
std::int64_t pair_count(pc::GroupId gid, int src, int dst) {
  return static_cast<std::int64_t>((src * 31 + dst * 17 + gid) % 4) * 2;
}

// Inputs of each collective, as member `rank` builds them.
float rs_input(int gid, int rank, std::size_t i) { return payload_value(gid, 1, rank, i) * 0.01f; }
float ar_input(int gid, int rank, std::size_t i) { return payload_value(gid, 2, rank, i) * 0.003f; }
float bc_input(int gid, int rank, bool is_root, std::size_t i) {
  return payload_value(gid, 3, is_root ? 999 : rank, i);
}

/// The value a payload element carries across the wire: itself under fp32,
/// its round-to-nearest-even bf16 image under bf16.
float on_wire(pc::WirePrecision wire, float v) {
  if (wire == pc::WirePrecision::Fp32) return v;
  return plexus::simd::f32_from_bf16(plexus::simd::bf16_from_f32(v));
}

/// Run the conformance schedule under the Sim backend with fp32 payloads on
/// the `wire` format; returns each rank's concatenated result stream (every
/// output buffer of every collective, in schedule order).
Streams run_schedule(pc::WirePrecision wire) {
  pc::ScopedBackend scoped(pc::Backend::Sim);
  pc::World world(8);
  const auto gids = create_conformance_groups(world);
  Streams out(8);
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    auto& sink = out[static_cast<std::size_t>(ctx.rank())];
    ctx.comm.set_wire_precision(wire);
    for (const pc::GroupId gid : gids) {
      auto& g = ctx.comm.world().group(gid);
      bool member = false;
      for (const int m : g.members) member |= (m == ctx.rank());
      if (!member) continue;
      const int G = g.size();
      const int pos = g.position_of(ctx.rank());
      const std::size_t n = chunk_len(gid);

      std::vector<float> gather_in(n), gather_out(n * static_cast<std::size_t>(G));
      for (std::size_t i = 0; i < n; ++i) gather_in[i] = payload_value(gid, 0, ctx.rank(), i);
      ctx.comm.all_gather<float>(gid, gather_in, gather_out);
      sink.insert(sink.end(), gather_out.begin(), gather_out.end());

      std::vector<float> rs_in(n * static_cast<std::size_t>(G)), rs_out(n);
      for (std::size_t i = 0; i < rs_in.size(); ++i) rs_in[i] = rs_input(gid, ctx.rank(), i);
      ctx.comm.reduce_scatter_sum<float>(gid, rs_in, rs_out);
      sink.insert(sink.end(), rs_out.begin(), rs_out.end());

      std::vector<float> ar(n * 2 + 1);
      for (std::size_t i = 0; i < ar.size(); ++i) ar[i] = ar_input(gid, ctx.rank(), i);
      ctx.comm.all_reduce_sum<float>(gid, ar);
      sink.insert(sink.end(), ar.begin(), ar.end());

      for (int root = 0; root < G; ++root) {
        std::vector<float> bc(n + 1);
        for (std::size_t i = 0; i < bc.size(); ++i) {
          bc[i] = bc_input(gid, ctx.rank(), pos == root, i);
        }
        ctx.comm.broadcast<float>(gid, bc, root);
        sink.insert(sink.end(), bc.begin(), bc.end());
      }

      // Flat variable all-to-all (the sparse-aggregation exchange).
      std::vector<std::int64_t> scnt(static_cast<std::size_t>(G)),
          rcnt(static_cast<std::size_t>(G));
      std::int64_t stot = 0, rtot = 0;
      for (int m = 0; m < G; ++m) {
        scnt[static_cast<std::size_t>(m)] = pair_count(gid, pos, m);
        rcnt[static_cast<std::size_t>(m)] = pair_count(gid, m, pos);
        stot += scnt[static_cast<std::size_t>(m)];
        rtot += rcnt[static_cast<std::size_t>(m)];
      }
      std::vector<float> v_in(static_cast<std::size_t>(stot)),
          v_out(static_cast<std::size_t>(rtot));
      for (std::size_t i = 0; i < v_in.size(); ++i) {
        v_in[i] = payload_value(gid, 5, ctx.rank(), i);
      }
      ctx.comm.iall_to_all_v<float>(gid, v_in, scnt.data(), v_out, rcnt.data()).wait();
      sink.insert(sink.end(), v_out.begin(), v_out.end());
    }
  });
  return out;
}

/// The serial reference of run_schedule: each rank's expected stream,
/// computed from the payload formulas alone.
Streams expected_schedule(pc::WirePrecision wire) {
  pc::World world(8);
  const auto gids = create_conformance_groups(world);
  Streams out(8);
  for (int rank = 0; rank < 8; ++rank) {
    auto& sink = out[static_cast<std::size_t>(rank)];
    for (const pc::GroupId gid : gids) {
      const auto& g = world.group(gid);
      bool member = false;
      for (const int m : g.members) member |= (m == rank);
      if (!member) continue;
      const int G = g.size();
      const int pos = g.position_of(rank);
      const std::size_t n = chunk_len(gid);
      const auto who = [&](int m) { return g.members[static_cast<std::size_t>(m)]; };
      const auto w = [&](float v) { return on_wire(wire, v); };
      /// Left-fold of element i of every member's wire value, in member
      /// order: member 0 widened, then members 1..G-1 added in fp32.
      const auto fold = [&](auto&& input, std::size_t i) {
        float acc = w(input(who(0), i));
        for (int m = 1; m < G; ++m) acc += w(input(who(m), i));
        return acc;
      };

      // all-gather: the members' chunks concatenated in member order.
      for (int m = 0; m < G; ++m) {
        for (std::size_t i = 0; i < n; ++i) sink.push_back(w(payload_value(gid, 0, who(m), i)));
      }
      // reduce-scatter: my chunk of every member's input, folded.
      for (std::size_t i = 0; i < n; ++i) {
        sink.push_back(fold([&](int r, std::size_t j) { return rs_input(gid, r, j); },
                            static_cast<std::size_t>(pos) * n + i));
      }
      // all-reduce: every member's whole buffer, folded.
      for (std::size_t i = 0; i < n * 2 + 1; ++i) {
        sink.push_back(fold([&](int r, std::size_t j) { return ar_input(gid, r, j); }, i));
      }
      // broadcast from every root: the root's buffer on every member.
      for (int root = 0; root < G; ++root) {
        for (std::size_t i = 0; i < n + 1; ++i) {
          sink.push_back(w(bc_input(gid, who(root), /*is_root=*/true, i)));
        }
      }
      // flat all-to-all-v: from each member m in order, its v-chunk for my
      // position, which starts after the chunks it packs for positions < pos.
      for (int m = 0; m < G; ++m) {
        std::int64_t off = 0;
        for (int j = 0; j < pos; ++j) off += pair_count(gid, m, j);
        for (std::int64_t i = 0; i < pair_count(gid, m, pos); ++i) {
          sink.push_back(w(payload_value(gid, 5, who(m), static_cast<std::size_t>(off + i))));
        }
      }
    }
  }
  return out;
}

/// Bitwise stream comparison with the first mismatch named.
void expect_streams_bitwise_equal(const Streams& got, const Streams& want,
                                  const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what << " rank " << r;
    ASSERT_GT(want[r].size(), 0u) << what << " rank " << r << " exercised no collective";
    for (std::size_t i = 0; i < want[r].size(); ++i) {
      // memcmp, not ==: the contract is bit for bit (a -0.0 or a reordered
      // fold's last-bit drift must fail).
      ASSERT_EQ(std::memcmp(&got[r][i], &want[r][i], sizeof(float)), 0)
          << what << " rank " << r << " element " << i << " got=" << got[r][i]
          << " want=" << want[r][i];
    }
  }
}

}  // namespace

constexpr pc::WirePrecision kWires[] = {pc::WirePrecision::Fp32, pc::WirePrecision::Bf16};

TEST(TransportConformance, SimPayloadsBitwiseEqualSerialReference) {
  for (const auto wire : kWires) {
    expect_streams_bitwise_equal(run_schedule(wire), expected_schedule(wire),
                                 std::string("default budget, ") + pc::wire_precision_name(wire));
  }
  // The payloads are not bf16-exact, so the bf16 reference must round some
  // of them; otherwise the bf16 run would prove nothing.
  EXPECT_NE(expected_schedule(pc::WirePrecision::Fp32),
            expected_schedule(pc::WirePrecision::Bf16));
}

TEST(TransportConformance, SimMatchesSerialReferenceUnderEveryChannelBudget) {
  // The flat all-to-all-v synchronises with an extra barrier round; every
  // collective must stay correct inline (budget 0), on one FIFO channel, and
  // on per-group channels.
  for (const auto wire : kWires) {
    const auto want = expected_schedule(wire);
    for (const int budget : {0, 1, 2, 4}) {
      pc::ScopedCommThreads scoped(budget);
      expect_streams_bitwise_equal(run_schedule(wire), want,
                                   "budget " + std::to_string(budget) + ", " +
                                       pc::wire_precision_name(wire));
    }
  }
}

TEST(TransportConformance, RandomizedTrainingPayloadsAcrossGridShapes) {
  // Randomized all-reduce / reduce-scatter round trips on real 3D-grid line
  // groups (the shapes the trainer posts on), against a serial canonical
  // fold of every member's inputs.
  constexpr std::size_t kBuf = 24, kChunk = 6;
  const pcore::Axis axes[] = {pcore::Axis::X, pcore::Axis::Y, pcore::Axis::Z};
  for (const auto shape : {psim::GridShape{2, 2, 2}, psim::GridShape{4, 2, 1},
                           psim::GridShape{1, 4, 2}}) {
    const int P = shape.size();
    pc::World world(P);
    pcore::Grid3D grid(world, shape, psim::Machine::test_machine());
    // Each rank's inputs from its own seeded stream: (all-reduce buffer,
    // reduce-scatter input) for X, then Y, then Z.
    struct AxisInputs {
      std::vector<float> ar, rs;
    };
    std::vector<std::vector<AxisInputs>> inputs(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      plexus::util::SplitMix64 rng(0xC0FFEEu + static_cast<std::uint64_t>(r));
      for (const auto axis : axes) {
        const int G = world.group(grid.group_along(axis, r)).size();
        AxisInputs in{std::vector<float>(kBuf),
                      std::vector<float>(static_cast<std::size_t>(G) * kChunk)};
        for (auto& v : in.ar) v = 2.0f * rng.next_float() - 1.0f;
        for (auto& v : in.rs) v = 2.0f * rng.next_float() - 1.0f;
        inputs[static_cast<std::size_t>(r)].push_back(std::move(in));
      }
    }

    Streams got(static_cast<std::size_t>(P));
    {
      pc::ScopedBackend scoped(pc::Backend::Sim);
      psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
        auto& sink = got[static_cast<std::size_t>(ctx.rank())];
        for (std::size_t a = 0; a < 3; ++a) {
          const auto gid = grid.group_along(axes[a], ctx.rank());
          const auto& in = inputs[static_cast<std::size_t>(ctx.rank())][a];
          std::vector<float> buf = in.ar, chunk(kChunk);
          ctx.comm.all_reduce_sum<float>(gid, buf);
          sink.insert(sink.end(), buf.begin(), buf.end());
          ctx.comm.reduce_scatter_sum<float>(gid, in.rs, chunk);
          sink.insert(sink.end(), chunk.begin(), chunk.end());
        }
      });
    }

    Streams want(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      auto& sink = want[static_cast<std::size_t>(r)];
      for (std::size_t a = 0; a < 3; ++a) {
        const auto& g = world.group(grid.group_along(axes[a], r));
        const auto member_in = [&](int m) -> const AxisInputs& {
          return inputs[static_cast<std::size_t>(g.members[static_cast<std::size_t>(m)])][a];
        };
        for (std::size_t i = 0; i < kBuf; ++i) {
          float acc = member_in(0).ar[i];
          for (int m = 1; m < g.size(); ++m) acc += member_in(m).ar[i];
          sink.push_back(acc);
        }
        const std::size_t off = static_cast<std::size_t>(g.position_of(r)) * kChunk;
        for (std::size_t i = 0; i < kChunk; ++i) {
          float acc = member_in(0).rs[off + i];
          for (int m = 1; m < g.size(); ++m) acc += member_in(m).rs[off + i];
          sink.push_back(acc);
        }
      }
    }
    expect_streams_bitwise_equal(got, want,
                                 "grid " + std::to_string(shape.x) + "x" +
                                     std::to_string(shape.y) + "x" + std::to_string(shape.z));
  }
}

TEST(TransportConformance, ZeroSizedPayloadsAreSafe) {
  // Regression: zero-length collectives and all-zero-count flat exchanges
  // must not touch any buffer pointer (they may be null). Runs the
  // degenerate ops between real payloads so a corrupted slot/barrier
  // sequence would desynchronise the group and fail loudly.
  pc::ScopedBackend scoped(pc::Backend::Sim);
  pc::World world(4);
  const auto gid = world.create_group({0, 1, 2, 3});
  std::vector<std::vector<float>> out(4);
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    ctx.comm.all_gather<float>(gid, {}, {});
    ctx.comm.all_reduce_sum<float>(gid, {});
    ctx.comm.reduce_scatter_sum<float>(gid, {}, {});
    ctx.comm.broadcast<float>(gid, {}, /*root=*/2);
    const std::int64_t zeros[4] = {0, 0, 0, 0};
    ctx.comm.iall_to_all_v<float>(gid, {}, zeros, {}, zeros).wait();
    // A live round after the degenerate ones proves the group survived.
    std::vector<float> buf{static_cast<float>(ctx.rank() + 1)};
    ctx.comm.all_reduce_sum<float>(gid, buf);
    out[static_cast<std::size_t>(ctx.rank())] = buf;
  });
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), 1u) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)][0], 10.0f) << "rank " << r;
  }
}

TEST(TransportConformance, FlatAllToAllVOneSidedEmptiness) {
  // Mixed case: some member pairs exchange nothing while others move real
  // rows — the exact shape the sparse aggregation produces on skewed shards.
  pc::ScopedBackend scoped(pc::Backend::Sim);
  pc::World world(3);
  const auto gid = world.create_group({0, 1, 2});
  std::vector<std::vector<float>> out(3);
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    // Member 0 sends 2 floats to member 2 only; member 1 sends 1 float to
    // member 0; member 2 sends nothing at all (null send span).
    const int pos = ctx.rank();
    std::vector<std::int64_t> scnt(3, 0), rcnt(3, 0);
    std::vector<float> send;
    if (pos == 0) {
      scnt = {0, 0, 2};
      send = {10.0f, 11.0f};
      rcnt = {0, 1, 0};
    } else if (pos == 1) {
      scnt = {1, 0, 0};
      send = {20.0f};
    } else {
      rcnt = {2, 0, 0};
    }
    std::int64_t rtot = 0;
    for (const auto c : rcnt) rtot += c;
    std::vector<float> recv(static_cast<std::size_t>(rtot));
    ctx.comm.iall_to_all_v<float>(gid, send, scnt.data(), recv, rcnt.data()).wait();
    out[static_cast<std::size_t>(ctx.rank())] = recv;
  });
  EXPECT_EQ(out[0], (std::vector<float>{20.0f}));
  EXPECT_TRUE(out[1].empty());
  EXPECT_EQ(out[2], (std::vector<float>{10.0f, 11.0f}));
}

TEST(ChannelRouting, LineFamiliesMapToDistinctChannels) {
  // Topology-aware routing: each rank's X/Y/Z line groups carry their family
  // (0/1/2) as the routing key, so with a channel budget >= 3 a rank's own
  // line groups can never collide on one channel.
  pc::World world(8);
  pcore::Grid3D grid(world, {2, 2, 2}, psim::Machine::test_machine());
  for (int r = 0; r < 8; ++r) {
    const auto gx = grid.group_along(pcore::Axis::X, r);
    const auto gy = grid.group_along(pcore::Axis::Y, r);
    const auto gz = grid.group_along(pcore::Axis::Z, r);
    EXPECT_EQ(pc::channel_route(world.group(gx), gx), 0);
    EXPECT_EQ(pc::channel_route(world.group(gy), gy), 1);
    EXPECT_EQ(pc::channel_route(world.group(gz), gz), 2);
  }
}

TEST(ChannelRouting, FamiliesShareKeysAcrossLinesOfOneDimension) {
  // Different lines of the same family share the key by design: per rank
  // they are different *ranks'* groups, and a rank posts on only one line
  // per family, so the family key still guarantees no self-collision.
  pc::World world(8);
  pcore::Grid3D grid(world, {2, 2, 2}, psim::Machine::test_machine());
  const auto g0 = grid.group_along(pcore::Axis::X, 0);
  const auto g1 = grid.group_along(pcore::Axis::X, 1);
  EXPECT_NE(g0, g1);  // distinct line groups...
  EXPECT_EQ(pc::channel_route(world.group(g0), g0),
            pc::channel_route(world.group(g1), g1));  // ...same family key
}

TEST(ChannelRouting, UntaggedGroupsKeepGroupIdRouting) {
  pc::World world(4);
  const auto ga = world.create_group({0, 1});
  const auto gb = world.create_group({2, 3});
  EXPECT_EQ(pc::channel_route(world.group(ga), ga), ga);
  EXPECT_EQ(pc::channel_route(world.group(gb), gb), gb);
  EXPECT_EQ(pc::channel_route(world.group(0), 0), 0);  // world group
}

TEST(BackendRegistry, NamesParseRoundTrip) {
  for (const auto b : {pc::Backend::Sim, pc::Backend::Mpi}) {
    pc::Backend parsed{};
    ASSERT_TRUE(pc::backend_from_string(pc::backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  pc::Backend parsed{};
  EXPECT_TRUE(pc::backend_from_string("MPI", parsed));
  EXPECT_EQ(parsed, pc::Backend::Mpi);
  EXPECT_FALSE(pc::backend_from_string("local", parsed));
  EXPECT_FALSE(pc::backend_from_string("nccl", parsed));
  EXPECT_FALSE(pc::backend_from_string("", parsed));
}

TEST(BackendRegistry, ScopedOverrideRestores) {
  const pc::Backend before = pc::default_backend();
  {
    pc::ScopedBackend scoped(pc::Backend::Mpi);
    EXPECT_EQ(pc::default_backend(), pc::Backend::Mpi);
    {
      pc::ScopedBackend inner(pc::Backend::Sim);
      EXPECT_EQ(pc::default_backend(), pc::Backend::Sim);
    }
    EXPECT_EQ(pc::default_backend(), pc::Backend::Mpi);
  }
  EXPECT_EQ(pc::default_backend(), before);
}

TEST(BackendRegistry, TransportProperties) {
  auto& sim = pc::transport_for(pc::Backend::Sim);
  EXPECT_STREQ(sim.name(), "sim");
  EXPECT_EQ(sim.backend(), pc::Backend::Sim);
  if (!pc::mpi_transport_available()) {
    EXPECT_THROW(pc::transport_for(pc::Backend::Mpi), std::runtime_error);
    EXPECT_EQ(pc::backend_choices(), "sim");
  } else {
    auto& mpi = pc::transport_for(pc::Backend::Mpi);
    EXPECT_STREQ(mpi.name(), "mpi");
    EXPECT_EQ(mpi.backend(), pc::Backend::Mpi);
    EXPECT_EQ(pc::backend_choices(), "sim | mpi");
  }
}

TEST(BackendRegistry, CommunicatorExposesItsTransport) {
  pc::World world(1);
  pc::Communicator comm(world, 0, nullptr, &pc::transport_for(pc::Backend::Sim));
  EXPECT_EQ(comm.backend(), pc::Backend::Sim);
  EXPECT_STREQ(comm.transport().name(), "sim");
}
