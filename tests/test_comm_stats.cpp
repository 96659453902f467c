// CommStats accounting tests: per-collective byte/call totals and
// total_seconds() must match the ring cost model (comm/cost.hpp) exactly —
// the trainer's comm/compute breakdown (paper fig. 9) is built from these.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/cost.hpp"
#include "comm/world.hpp"
#include "util/simd.hpp"

namespace pc = plexus::comm;

namespace {

/// Run `body(rank)` on one thread per rank, MPI-style.
void spmd(int ranks, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) threads.emplace_back(body, r);
  for (auto& t : threads) t.join();
}

}  // namespace

TEST(CommStats, TwoRankAllReduceMatchesRingModel) {
  pc::LinkParams link;
  link.bandwidth = 50e9;
  link.latency = 2e-6;

  pc::World world(2);
  const pc::GroupId g = world.create_group({0, 1}, link);

  constexpr std::size_t kElems = 1024;
  const std::int64_t bytes = static_cast<std::int64_t>(kElems * sizeof(float));

  std::vector<pc::CommStats> stats(2);
  spmd(2, [&](int rank) {
    pc::SimClock clock;
    pc::Communicator comm(world, rank, &clock);
    std::vector<float> buf(kElems, rank == 0 ? 1.0f : 2.0f);
    comm.all_reduce_sum<float>(g, {buf.data(), buf.size()});
    for (float v : buf) ASSERT_EQ(v, 3.0f);
    stats[static_cast<std::size_t>(rank)] = comm.stats();
  });

  const double expected =
      pc::collective_time(pc::Collective::AllReduce, bytes, /*group_size=*/2, link);
  // Ring all-reduce on 2 ranks: 2 * (1/2) * M/beta + 2 * 1 * alpha.
  EXPECT_DOUBLE_EQ(expected, bytes / link.bandwidth + 2.0 * link.latency);

  for (int r = 0; r < 2; ++r) {
    const auto& s = stats[static_cast<std::size_t>(r)];
    const auto& e = s.entry(pc::Collective::AllReduce);
    EXPECT_EQ(e.calls, 1) << "rank " << r;
    EXPECT_EQ(e.bytes, bytes) << "rank " << r;
    EXPECT_DOUBLE_EQ(e.sim_seconds, expected) << "rank " << r;
    EXPECT_DOUBLE_EQ(s.total_seconds(), expected) << "rank " << r;
    EXPECT_EQ(s.total_bytes(), bytes) << "rank " << r;
    // No other collective may have been charged.
    EXPECT_EQ(s.entry(pc::Collective::AllGather).calls, 0);
    EXPECT_EQ(s.entry(pc::Collective::Broadcast).calls, 0);
  }
}

TEST(CommStats, AccumulatesAcrossCallsAndOps) {
  pc::LinkParams link;
  link.bandwidth = 10e9;
  link.latency = 1e-6;

  pc::World world(2);
  const pc::GroupId g = world.create_group({0, 1}, link);

  constexpr std::size_t kElems = 256;
  const std::int64_t ar_bytes = static_cast<std::int64_t>(kElems * sizeof(float));
  const std::int64_t ag_bytes = 2 * ar_bytes;  // all-gather charges the full out buffer

  std::vector<pc::CommStats> stats(2);
  spmd(2, [&](int rank) {
    pc::SimClock clock;
    pc::Communicator comm(world, rank, &clock);
    std::vector<float> buf(kElems, 1.0f);
    std::vector<float> gathered(2 * kElems);
    comm.all_reduce_sum<float>(g, {buf.data(), buf.size()});
    comm.all_reduce_sum<float>(g, {buf.data(), buf.size()});
    comm.all_gather<float>(g, {buf.data(), buf.size()}, {gathered.data(), gathered.size()});
    stats[static_cast<std::size_t>(rank)] = comm.stats();
  });

  const double t_ar = pc::collective_time(pc::Collective::AllReduce, ar_bytes, 2, link);
  const double t_ag = pc::collective_time(pc::Collective::AllGather, ag_bytes, 2, link);
  for (const auto& s : stats) {
    EXPECT_EQ(s.entry(pc::Collective::AllReduce).calls, 2);
    EXPECT_EQ(s.entry(pc::Collective::AllReduce).bytes, 2 * ar_bytes);
    EXPECT_EQ(s.entry(pc::Collective::AllGather).calls, 1);
    EXPECT_EQ(s.entry(pc::Collective::AllGather).bytes, ag_bytes);
    EXPECT_DOUBLE_EQ(s.total_seconds(), 2.0 * t_ar + t_ag);
    EXPECT_EQ(s.total_bytes(), 2 * ar_bytes + ag_bytes);
  }
}

TEST(CommStats, OverlapSplitsExposedAndHiddenTime) {
  // The overlap accounting is measured, not hand-fed: a collective posted
  // asynchronously and waited after `credit` seconds of compute charges only
  // the exposed tail; the covered part lands in hidden_seconds.
  pc::LinkParams link;
  link.bandwidth = 10e9;
  link.latency = 1e-6;
  pc::World world(2);
  const pc::GroupId g = world.create_group({0, 1}, link);

  constexpr std::size_t kElems = 4096;
  const std::int64_t bytes = static_cast<std::int64_t>(kElems * sizeof(float));
  const double full = pc::collective_time(pc::Collective::AllReduce, bytes, 2, link);
  const double credit = full * 0.25;

  std::vector<pc::CommStats> stats(2);
  spmd(2, [&](int rank) {
    pc::SimClock clock;
    pc::Communicator comm(world, rank, &clock);
    std::vector<float> buf(kElems, 1.0f);
    auto h = comm.iall_reduce_sum<float>(g, {buf.data(), buf.size()});
    comm.charge_compute(credit);  // independent compute behind the collective
    h.wait();
    stats[static_cast<std::size_t>(rank)] = comm.stats();
  });
  for (const auto& s : stats) {
    // Bytes are the full logical volume; only the exposed time is charged.
    const auto& e = s.entry(pc::Collective::AllReduce);
    EXPECT_EQ(e.bytes, bytes);
    EXPECT_DOUBLE_EQ(s.total_seconds(), full - credit);
    EXPECT_DOUBLE_EQ(e.hidden_seconds, credit);
    EXPECT_DOUBLE_EQ(s.total_hidden_seconds(), credit);
  }
}

TEST(CommStats, ResetClearsEverything) {
  pc::CommStats s;
  auto& e = s.entry(pc::Collective::AllToAll);
  e.calls = 3;
  e.bytes = 999;
  e.sim_seconds = 1.5;
  e.hidden_seconds = 0.5;
  EXPECT_GT(s.total_seconds(), 0.0);
  EXPECT_GT(s.total_hidden_seconds(), 0.0);
  s.reset();
  EXPECT_EQ(s.total_bytes(), 0);
  EXPECT_DOUBLE_EQ(s.total_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(s.total_hidden_seconds(), 0.0);
  EXPECT_EQ(s.entry(pc::Collective::AllToAll).calls, 0);
}

TEST(CommStats, OneMemberAllReduceIsIdentityButStillAccounted) {
  // A one-member fp32 all-reduce moves no bytes (SimTransport skips the
  // scratch round trip), yet it is posted, counted and clocked exactly as
  // before. The expected figures were recorded by running this two-op
  // sequence on the copying design: 2 calls, 4096 + 16384 logical bytes,
  // 0 wire bytes, 0 s exposed, 0 s hidden, clock at the 2e-6 s of compute.
  pc::LinkParams link;
  link.bandwidth = 10e9;
  link.latency = 1e-6;
  pc::World world(1);
  const pc::GroupId g = world.create_group({0}, link);
  pc::SimClock clock;
  pc::Communicator comm(world, 0, &clock);
  comm.set_wire_precision(pc::WirePrecision::Fp32);

  std::vector<float> small(1024), big(4096);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = 0.37f * static_cast<float>(i) - 11.0f;
  small[0] = -0.0f;
  small[1] = std::numeric_limits<float>::quiet_NaN();
  small[2] = std::numeric_limits<float>::denorm_min();
  small[3] = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 1.0f / static_cast<float>(i + 3);
  const auto small0 = small;
  const auto big0 = big;

  comm.all_reduce_sum<float>(g, {small.data(), small.size()});
  auto h = comm.iall_reduce_sum<float>(g, {big.data(), big.size()});
  comm.charge_compute(2e-6);
  h.wait();

  EXPECT_EQ(std::memcmp(small.data(), small0.data(), small.size() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(big.data(), big0.data(), big.size() * sizeof(float)), 0);
  const auto& e = comm.stats().entry(pc::Collective::AllReduce);
  EXPECT_EQ(e.calls, 2);
  EXPECT_EQ(e.bytes, 20480);
  EXPECT_EQ(e.wire_bytes, 0);
  EXPECT_EQ(e.sim_seconds, 0.0);
  EXPECT_EQ(e.hidden_seconds, 0.0);
  EXPECT_EQ(comm.stats().total_bytes(), 20480);
  EXPECT_EQ(comm.stats().total_wire_bytes(), 0);
  EXPECT_EQ(clock.time(), 2e-6);
}

TEST(CommStats, OneMemberBf16AllReduceStillRoundsThroughTheWire) {
  // The identity shortcut is fp32-only: a bf16-wire all-reduce on one member
  // still returns the bf16-rounded values (and is accounted at wire width).
  pc::World world(1);
  const pc::GroupId g = world.create_group({0});
  pc::SimClock clock;
  pc::Communicator comm(world, 0, &clock);
  comm.set_wire_precision(pc::WirePrecision::Bf16);

  std::vector<float> buf(333);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = 1.0f + 0.001f * static_cast<float>(i);
  std::vector<std::uint16_t> wire(buf.size());
  std::vector<float> want(buf.size());
  plexus::simd::bf16_pack(buf.data(), wire.data(), static_cast<std::int64_t>(buf.size()));
  plexus::simd::bf16_unpack(wire.data(), want.data(), static_cast<std::int64_t>(buf.size()));
  ASSERT_NE(std::memcmp(buf.data(), want.data(), buf.size() * sizeof(float)), 0)
      << "inputs must not be bf16-exact, or the check proves nothing";

  comm.all_reduce_sum<float>(g, {buf.data(), buf.size()});
  EXPECT_EQ(std::memcmp(buf.data(), want.data(), buf.size() * sizeof(float)), 0);
  const auto& e = comm.stats().entry(pc::Collective::AllReduce);
  EXPECT_EQ(e.calls, 1);
  EXPECT_EQ(e.bytes, static_cast<std::int64_t>(buf.size() * sizeof(std::uint16_t)));
}

namespace {

/// One rank's accounting after an exchange: its stats and its clock.
struct RankAccount {
  pc::CommStats stats;
  double clock = 0.0;
};

/// Run `body(comm, rank)` on a clocked 3-rank group {0, 1, 2} (10 GB/s,
/// 1 us). Rank r first charges (r + 1) us of compute, so the members post at
/// different clocks and the completion instant follows the latest poster.
std::vector<RankAccount> three_rank_exchange(
    pc::WirePrecision wire, const std::function<void(pc::Communicator&, pc::GroupId, int)>& body) {
  pc::LinkParams link;
  link.bandwidth = 10e9;
  link.latency = 1e-6;
  pc::World world(3);
  const pc::GroupId g = world.create_group({0, 1, 2}, link);
  std::vector<RankAccount> out(3);
  spmd(3, [&](int rank) {
    pc::SimClock clock;
    pc::Communicator comm(world, rank, &clock);
    comm.set_wire_precision(wire);
    comm.charge_compute(1e-6 * static_cast<double>(rank + 1));
    body(comm, g, rank);
    out[static_cast<std::size_t>(rank)] = {comm.stats(), clock.time()};
  });
  return out;
}

/// Flat all-to-all-v element count from rank `src` to rank `dst`: unequal
/// per-rank send totals (2, 12 and 20 elements), rank 2 the straggler.
std::int64_t flat_count(int src, int dst) { return (src * 3 + 1) * (dst + 1) / 2; }

/// Every rank must report the same AllToAll entry and clock. The figures the
/// callers pass were recorded on the design that ran the group protocol
/// inline in the Communicator; `bytes` is the straggler's total send volume.
void expect_all_to_all(const std::vector<RankAccount>& accts, std::int64_t bytes,
                       std::int64_t wire, double clock, const char* what) {
  for (std::size_t r = 0; r < accts.size(); ++r) {
    const auto& e = accts[r].stats.entry(pc::Collective::AllToAll);
    EXPECT_EQ(e.calls, 1) << what << " rank " << r;
    EXPECT_EQ(e.bytes, bytes) << what << " rank " << r;
    EXPECT_EQ(e.wire_bytes, wire) << what << " rank " << r;
    EXPECT_EQ(accts[r].stats.total_bytes(), bytes) << what << " rank " << r;
    EXPECT_EQ(accts[r].clock, clock) << what << " rank " << r;
  }
}

/// The flat exchange of flat_count's fp32 payloads on the `wire` format.
/// Rank m sends the value m + 1, which is bf16-exact.
std::vector<RankAccount> flat_exchange(pc::WirePrecision wire) {
  return three_rank_exchange(wire, [](pc::Communicator& comm, pc::GroupId g, int rank) {
    std::vector<std::int64_t> scnt(3), rcnt(3);
    std::int64_t stot = 0, rtot = 0;
    for (int m = 0; m < 3; ++m) {
      scnt[static_cast<std::size_t>(m)] = flat_count(rank, m);
      rcnt[static_cast<std::size_t>(m)] = flat_count(m, rank);
      stot += scnt[static_cast<std::size_t>(m)];
      rtot += rcnt[static_cast<std::size_t>(m)];
    }
    std::vector<float> send(static_cast<std::size_t>(stot), 1.0f + static_cast<float>(rank));
    std::vector<float> recv(static_cast<std::size_t>(rtot));
    comm.iall_to_all_v<float>(g, send, scnt.data(), recv, rcnt.data()).wait();
    std::size_t off = 0;
    for (int m = 0; m < 3; ++m) {
      for (std::int64_t i = 0; i < rcnt[static_cast<std::size_t>(m)]; ++i, ++off) {
        EXPECT_EQ(recv[off], 1.0f + static_cast<float>(m));
      }
    }
  });
}

}  // namespace

TEST(CommStats, FlatAllToAllVChargesTheStragglersVolume) {
  // 20 elements from rank 2: 80 bytes at fp32, 40 on the bf16 wire.
  expect_all_to_all(flat_exchange(pc::WirePrecision::Fp32), 80, 53, 0x1.4fe6f8cdb75e2p-18,
                    "fp32");
  expect_all_to_all(flat_exchange(pc::WirePrecision::Bf16), 40, 26, 0x1.4fb928adf6f6ap-18,
                    "bf16");
}

TEST(CommStats, NestedAllToAllVChargesTheStragglersVolume) {
  // int64 payloads always travel at full width: 20 * 8 = 160 bytes, also on
  // a bf16 wire.
  for (const auto wire : {pc::WirePrecision::Fp32, pc::WirePrecision::Bf16}) {
    const auto accts = three_rank_exchange(wire, [](pc::Communicator& comm, pc::GroupId g,
                                                    int rank) {
      std::vector<std::vector<std::int64_t>> send(3), recv;
      for (int m = 0; m < 3; ++m) {
        send[static_cast<std::size_t>(m)].assign(static_cast<std::size_t>(flat_count(rank, m)),
                                                 rank * 10 + m);
      }
      comm.all_to_all_v<std::int64_t>(g, send, recv);
      ASSERT_EQ(recv.size(), 3u);
      for (int m = 0; m < 3; ++m) {
        EXPECT_EQ(recv[static_cast<std::size_t>(m)],
                  std::vector<std::int64_t>(static_cast<std::size_t>(flat_count(m, rank)),
                                            m * 10 + rank));
      }
    });
    expect_all_to_all(accts, 160, 106, 0x1.5042990d382d5p-18, pc::wire_precision_name(wire));
  }
}

TEST(CommStats, ScalarReductionsAreLatencyOnlyAllReduces) {
  // Each scalar reduction is one 8-byte all-reduce; the sum folds
  // 0.0 + v_0 + v_1 + v_2 in member order.
  std::vector<double> maxes(3), sums(3);
  const auto accts = three_rank_exchange(pc::WirePrecision::Bf16, [&](pc::Communicator& comm,
                                                                       pc::GroupId g, int rank) {
    const double v = 0.1 * static_cast<double>(rank + 1);
    maxes[static_cast<std::size_t>(rank)] = comm.all_reduce_max_scalar(g, v);
    sums[static_cast<std::size_t>(rank)] = comm.all_reduce_sum_scalar(g, v);
  });
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(maxes[r], 0x1.3333333333334p-2) << "rank " << r;
    EXPECT_EQ(sums[r], 0x1.3333333333334p-1) << "rank " << r;
    const auto& e = accts[r].stats.entry(pc::Collective::AllReduce);
    EXPECT_EQ(e.calls, 2) << "rank " << r;
    EXPECT_EQ(e.bytes, 16) << "rank " << r;
    EXPECT_EQ(e.wire_bytes, 20) << "rank " << r;
    EXPECT_EQ(accts[r].stats.total_bytes(), 16) << "rank " << r;
    EXPECT_EQ(accts[r].clock, 0x1.712b9b0f88f9fp-17) << "rank " << r;
  }
}
