#include "comm/transport.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace plexus::comm {

namespace {

/// Publish this member's buffer + post-time clock; returns the link-busy
/// horizon snapshot. Safe before the first barrier: the previous op's
/// horizon write happened in its read phase, sealed by its second barrier.
double publish(GroupShared& g, int pos, const void* ptr, double posted_clock) {
  PLEXUS_CHECK(g.clock_slots.size() >= 2 * static_cast<std::size_t>(g.size()),
               "group clock_slots under-sized");
  const double floor = g.link_busy_until;
  g.slots[static_cast<std::size_t>(pos)] = ptr;
  g.clock_slots[static_cast<std::size_t>(pos)] = posted_clock;
  return floor;
}

/// Scalar-exchange slot for member `pos`: the second half of clock_slots
/// (World::create_group sizes it to 2 * members).
double& aux_value(GroupShared& g, int pos) {
  return g.clock_slots[static_cast<std::size_t>(g.size() + pos)];
}

/// The largest aux value of the group: the straggler's send volume of a
/// variable all-to-all, which prices the whole exchange.
std::int64_t straggler_bytes(GroupShared& g) {
  double max_bytes = 0.0;
  for (int m = 0; m < g.size(); ++m) max_bytes = std::max(max_bytes, aux_value(g, m));
  return static_cast<std::int64_t>(max_bytes);
}

/// Derive the op's completion instant from the members' post clocks, the
/// link-busy snapshot and the cost model. Must run in the read phase (between
/// the barriers); every member computes the same value, member 0 records it
/// as the group's new link-busy horizon.
void finish_read_phase(GroupShared& g, int pos, double busy_floor, detail::CommOp& op) {
  double start = busy_floor;
  for (int m = 0; m < g.size(); ++m) {
    start = std::max(start, g.clock_slots[static_cast<std::size_t>(m)]);
  }
  op.full_seconds =
      collective_time(op.op, op.bytes, g.size(), g.link, g.a2a_distance_penalty);
  op.wire_bytes = wire_bytes(op.op, op.bytes, g.size());
  op.done_clock = start + op.full_seconds;
  if (pos == 0) g.link_busy_until = op.done_clock;
}

/// One round of the group protocol: publish `pub`, this member's post clock
/// and its `aux` value; barrier; `read_phase` (reads of the peers' published
/// state, private writes); completion instant; barrier. Writes to published
/// buffers belong after the call: the next op's first barrier orders them
/// before any peer reads. All mutable protocol state lives in `g`, so
/// collectives on different groups may run concurrently.
template <typename ReadPhase>
void run_protocol(GroupShared& g, int pos, const void* pub, double aux, detail::CommOp& op,
                  ReadPhase&& read_phase) {
  aux_value(g, pos) = aux;
  const double floor = publish(g, pos, pub, op.posted_clock);
  g.barrier->arrive_and_wait();
  read_phase();
  finish_read_phase(g, pos, floor, op);
  g.barrier->arrive_and_wait();
}

/// Flat variable all-to-all movement. Each member publishes its send_counts
/// through `g.xfer_slots` (one extra barrier), then copies its chunk out of
/// every source's packed send buffer in canonical member order. Zero-length
/// chunks are skipped, never dereferenced, so empty send lists are safe.
void flat_alltoallv_move(GroupShared& g, const CollArgs& a) {
  const int G = g.size();
  // Publish my per-destination counts so every peer can locate its chunk
  // inside my packed send buffer; g.slots[m] already holds member m's send
  // pointer from the protocol's publish step.
  g.xfer_slots[static_cast<std::size_t>(a.pos)] = a.send_counts;
  g.barrier->arrive_and_wait();
  std::vector<std::int64_t> rdispl(static_cast<std::size_t>(G) + 1, 0);
  for (int m = 0; m < G; ++m) {
    rdispl[static_cast<std::size_t>(m) + 1] = rdispl[static_cast<std::size_t>(m)] +
                                              a.recv_counts[m];
  }
  auto* dst = static_cast<unsigned char*>(a.recv);
  for (int m = 0; m < G; ++m) {
    const auto* their_counts =
        static_cast<const std::int64_t*>(g.xfer_slots[static_cast<std::size_t>(m)]);
    std::int64_t src_off = 0;
    for (int j = 0; j < a.pos; ++j) src_off += their_counts[j];
    const std::int64_t n = their_counts[a.pos];
    PLEXUS_CHECK(n == a.recv_counts[m], "iall_to_all_v: send/recv counts inconsistent");
    if (n == 0) continue;  // empty chunk: source pointer may be null, never touch it
    const auto* src = static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) +
                      static_cast<std::size_t>(src_off) * a.elem;
    std::memcpy(dst + static_cast<std::size_t>(rdispl[static_cast<std::size_t>(m)]) * a.elem,
                src, static_cast<std::size_t>(n) * a.elem);
  }
  // No trailing barrier: the protocol's completion barrier seals these reads
  // before any member's next op republishes the slots.
}

/// The in-process backend: every op runs the group protocol (run_protocol)
/// and peers read each other's published buffers directly. Reductions fold
/// in canonical member order (0..G-1); the determinism tests pin this
/// backend as the reference.
class SimTransport final : public Transport {
 public:
  Backend backend() const override { return Backend::Sim; }
  const char* name() const override { return "sim"; }

  /// Publishes `send` (else the in-place `recv`). The flat all-to-all-v
  /// exchanges its send volume through the aux slots so `op.bytes` becomes
  /// the straggler's, group-uniform; a scalar reduction exchanges its
  /// operand there and folds it like MpiTransport does.
  void execute(GroupShared& g, const CollArgs& a, detail::CommOp& op) override {
    const double aux = a.scalar_op ? a.scalar_value : static_cast<double>(op.bytes);
    const void* pub = a.send != nullptr ? a.send : static_cast<const void*>(a.recv);
    run_protocol(g, a.pos, pub, aux, op, [&] {
      if (a.kind == Collective::AllToAll) op.bytes = straggler_bytes(g);
      if (a.scalar_op) {
        double acc = a.scalar_is_max ? a.scalar_value : 0.0;
        for (int m = 0; m < g.size(); ++m) {
          const double v = aux_value(g, m);
          acc = a.scalar_is_max ? std::max(acc, v) : acc + v;
        }
        op.scalar = acc;
      }
      move(g, a);
    });
    finalize(g, a);
  }

  /// Publishes the span vector itself; each member copies its chunk out of
  /// every peer's `send[pos]`.
  void alltoallv(GroupShared& g, const CollArgs& a,
                 const std::vector<std::span<const unsigned char>>& send,
                 std::vector<std::vector<unsigned char>>& recv,
                 detail::CommOp& op) override {
    std::size_t my_bytes = 0;
    for (const auto& s : send) my_bytes += s.size();
    recv.assign(static_cast<std::size_t>(g.size()), {});
    run_protocol(g, a.pos, &send, static_cast<double>(my_bytes), op, [&] {
      for (int m = 0; m < g.size(); ++m) {
        const auto& theirs = *static_cast<const std::vector<std::span<const unsigned char>>*>(
            g.slots[static_cast<std::size_t>(m)]);
        const auto chunk = theirs[static_cast<std::size_t>(a.pos)];
        recv[static_cast<std::size_t>(m)].assign(chunk.begin(), chunk.end());
      }
      op.bytes = straggler_bytes(g);
    });
  }

 private:
  /// A one-member all-reduce of a plain payload (wire type == accumulator
  /// type, no `assign` hook) is the identity: the fold would copy the buffer
  /// to scratch and straight back. Skipping both copies preserves every bit;
  /// the op is still posted, counted and clocked by the Communicator. A
  /// compressed payload (bf16 wire) still round-trips so it stays rounded.
  static bool one_member_identity(const GroupShared& g, const CollArgs& a) {
    return g.size() == 1 && a.assign == nullptr;
  }

  /// Data movement of the read phase; `g.slots[m]` holds member m's
  /// published buffer. May run extra `g.barrier` rounds (every member runs
  /// the same schedule) and publish more pointers through `g.xfer_slots`.
  static void move(GroupShared& g, const CollArgs& a) {
    const std::size_t nb = a.count * a.elem;  // per-member chunk in bytes
    switch (a.kind) {
      case Collective::AllGather: {
        if (nb == 0) return;
        auto* dst = static_cast<unsigned char*>(a.recv);
        for (int m = 0; m < g.size(); ++m) {
          std::memcpy(dst + static_cast<std::size_t>(m) * nb,
                      g.slots[static_cast<std::size_t>(m)], nb);
        }
        return;
      }
      case Collective::ReduceScatter: {
        if (nb == 0) return;
        const std::size_t off = static_cast<std::size_t>(a.pos) * nb;
        const auto* first = static_cast<const unsigned char*>(g.slots[0]);
        detail::assign_chunk(a, a.recv, first + off);
        for (int m = 1; m < g.size(); ++m) {
          const auto* src =
              static_cast<const unsigned char*>(g.slots[static_cast<std::size_t>(m)]) + off;
          a.accumulate(a.recv, src, a.count);
        }
        return;
      }
      case Collective::AllReduce: {
        if (nb == 0 || one_member_identity(g, a)) return;
        auto& scratch = detail::op_scratch();
        scratch.resize(a.count * a.accumulator_elem());
        detail::assign_chunk(a, scratch.data(), g.slots[0]);
        for (int m = 1; m < g.size(); ++m) {
          a.accumulate(scratch.data(), g.slots[static_cast<std::size_t>(m)], a.count);
        }
        return;  // copy-back happens in finalize(), after the completion barrier
      }
      case Collective::Broadcast: {
        if (a.pos != a.root && nb > 0) {
          std::memcpy(a.recv, g.slots[static_cast<std::size_t>(a.root)], nb);
        }
        return;
      }
      case Collective::AllToAll:
        flat_alltoallv_move(g, a);
        return;
      case Collective::Barrier:
      case Collective::Send:
        return;
    }
  }

  /// Trailing writes to the member's own buffers, after the completion
  /// barrier (the all-reduce copy-back from scratch).
  static void finalize(GroupShared& g, const CollArgs& a) {
    if (a.kind != Collective::AllReduce) return;
    if (a.count * a.elem == 0 || one_member_identity(g, a)) return;
    // The in-place result: peers read the original buffer during the read
    // phase, so the reduced scratch lands only after the completion barrier.
    std::memcpy(a.recv, detail::op_scratch().data(), a.count * a.accumulator_elem());
  }
};

Transport& sim_transport() {
  static SimTransport t;
  return t;
}

}  // namespace

const char* backend_name(Backend b) { return util::enum_name(b); }

bool backend_from_string(std::string_view s, Backend& out) {
  return util::enum_from_string(s, out);
}

std::string backend_choices() {
  std::string s;
  for (const auto& e : util::EnumNames<Backend>::table) {
    if (e.value == Backend::Mpi && !mpi_transport_available()) continue;
    if (!s.empty()) s += " | ";
    s += e.name;
  }
  return s;
}

namespace {

/// -1 = follow PLEXUS_BACKEND, else the Backend value of the override.
std::atomic<int> g_backend_override{-1};

/// PLEXUS_BACKEND, or Sim. A name this build cannot run (mpi without
/// PLEXUS_WITH_MPI) is unrecognized like any other name outside
/// backend_choices(): it warns once and falls back instead of failing later
/// on a rank thread.
Backend env_backend() {
  const char* var = "PLEXUS_BACKEND";
  const auto b = util::env_enum<Backend>(var, backend_choices());
  if (b == Backend::Mpi && !mpi_transport_available()) {
    util::warn_env_ignored(var, std::getenv(var), backend_choices());
    return Backend::Sim;
  }
  return b.value_or(Backend::Sim);
}

}  // namespace

Backend default_backend() {
  const int v = g_backend_override.load(std::memory_order_relaxed);
  return v >= 0 ? static_cast<Backend>(v) : env_backend();
}

void set_default_backend(Backend b) {
  g_backend_override.store(static_cast<int>(b), std::memory_order_relaxed);
}

void reset_default_backend() { g_backend_override.store(-1, std::memory_order_relaxed); }

ScopedBackend::ScopedBackend(Backend b)
    : had_override_(g_backend_override.load(std::memory_order_relaxed) >= 0),
      prev_(default_backend()) {
  set_default_backend(b);
}

ScopedBackend::~ScopedBackend() {
  if (had_override_) {
    set_default_backend(prev_);
  } else {
    reset_default_backend();
  }
}

const char* wire_precision_name(WirePrecision w) { return util::enum_name(w); }

bool wire_precision_from_string(std::string_view s, WirePrecision& out) {
  return util::enum_from_string(s, out);
}

namespace {

/// -1 = follow PLEXUS_WIRE, else the WirePrecision value of the override.
std::atomic<int> g_wire_override{-1};

WirePrecision env_wire_precision() {
  return util::env_enum<WirePrecision>("PLEXUS_WIRE").value_or(WirePrecision::Fp32);
}

}  // namespace

WirePrecision default_wire_precision() {
  const int v = g_wire_override.load(std::memory_order_relaxed);
  return v >= 0 ? static_cast<WirePrecision>(v) : env_wire_precision();
}

void set_default_wire_precision(WirePrecision w) {
  g_wire_override.store(static_cast<int>(w), std::memory_order_relaxed);
}

void reset_default_wire_precision() { g_wire_override.store(-1, std::memory_order_relaxed); }

ScopedWirePrecision::ScopedWirePrecision(WirePrecision w)
    : had_override_(g_wire_override.load(std::memory_order_relaxed) >= 0),
      prev_(default_wire_precision()) {
  set_default_wire_precision(w);
}

ScopedWirePrecision::~ScopedWirePrecision() {
  if (had_override_) {
    set_default_wire_precision(prev_);
  } else {
    reset_default_wire_precision();
  }
}

Transport& transport_for(Backend b) {
  switch (b) {
    case Backend::Sim: return sim_transport();
    case Backend::Mpi:
#ifdef PLEXUS_WITH_MPI
      return detail::mpi_transport();
#else
      PLEXUS_CHECK(false, "MPI backend requested but built without PLEXUS_WITH_MPI");
#endif
  }
  PLEXUS_CHECK(false, "unknown backend");
  return sim_transport();
}

bool mpi_transport_available() {
#ifdef PLEXUS_WITH_MPI
  return true;
#else
  return false;
#endif
}

#ifndef PLEXUS_WITH_MPI
// One-process-per-rank runtime hooks (implemented in transport_mpi.cpp when
// the backend is compiled in). Erroring stubs keep the examples linkable.
MpiRuntime mpi_runtime_init(int*, char***) {
  PLEXUS_CHECK(false, "mpi_runtime_init: built without PLEXUS_WITH_MPI");
  return {};
}

void mpi_runtime_barrier() {
  PLEXUS_CHECK(false, "mpi_runtime_barrier: built without PLEXUS_WITH_MPI");
}

void mpi_runtime_finalize() {
  PLEXUS_CHECK(false, "mpi_runtime_finalize: built without PLEXUS_WITH_MPI");
}
#endif

}  // namespace plexus::comm
