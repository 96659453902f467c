#pragma once
/// \file handle.hpp
/// Nonblocking-collective plumbing: the shared op record, the `CommHandle`
/// a caller polls/waits on, and the per-rank `CommEngine` channel threads.
///
/// Every collective — blocking or not — is represented by one `detail::CommOp`
/// and executed by exactly one thread per rank: one of the rank's comm
/// *channels* when `comm_thread_budget() > 0` (the default), or the posting
/// thread itself in inline mode (`PLEXUS_COMM_THREADS=0`). Ops are routed to
/// channels by their group's `channel_route` key — the group's X/Y/Z line
/// *family* when the 3D grid tagged it (`GroupShared::channel_hint`), else
/// the `GroupId` — taken mod the budget. Family routing is topology-aware: a
/// rank's own three line groups always land on three distinct keys, so with
/// a channel budget >= 3 they never collide on one channel, which the old
/// plain `GroupId mod budget` routing could not guarantee. Ops on the same
/// group always run strictly in post order — the Sim backend's per-group
/// barrier protocol (transport.cpp) stays matched across ranks exactly as in the
/// blocking-only design — while ops on groups mapped to *different* channels
/// execute concurrently in real time (disjoint X-/Y-/Z-line collectives
/// overlap on the wall clock the way the sim cost model already lets them
/// overlap in simulated time). SPMD programs must post collectives on a group
/// in the same order on every member, the same rule MPI imposes on
/// nonblocking collectives; additionally, cross-group posting order must be
/// consistent across ranks for groups that share a channel (with one channel
/// — the old single-FIFO behaviour — that means all groups).
///
/// The bytes an op moves travel through the Communicator's selected
/// `Transport` (comm/transport.hpp); the op record, channels and handle
/// semantics here are backend-independent.
///
/// Sim-time semantics (see communicator.hpp for the full contract): an op
/// records the poster's clock at post time and, during execution, derives its
/// completion instant `done_clock` from all members' post clocks, the group's
/// link-busy horizon and the ring cost model. The *caller* charges clocks and
/// stats at `wait()`; channel threads never touch the rank clock.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/cost.hpp"

namespace plexus::comm {

class Communicator;

namespace detail {

/// Shared state of one in-flight collective. The execute closure runs the
/// whole op through the Communicator's Transport on the executing thread;
/// completion fields are visible to the poster only after `finished` is
/// observed through the mutex.
struct CommOp {
  std::function<void(CommOp&)> execute;

  Collective op = Collective::Barrier;
  std::int64_t bytes = 0;
  int channel = 0;             ///< routing key (group's line family, else GroupId)
  bool accounted = true;       ///< false for user ops (icall): no stats/clock
  bool clocked = false;        ///< posting Communicator carries a SimClock
  double posted_clock = 0.0;   ///< poster's sim clock at post time

  // Filled by execute (read phase):
  double full_seconds = 0.0;   ///< cost-model duration of the collective
  double done_clock = 0.0;     ///< sim instant the collective completes
  std::int64_t wire_bytes = 0; ///< bytes the links actually carried (cost.hpp)
  double scalar = 0.0;         ///< result of scalar reductions
  std::exception_ptr error;    ///< first exception thrown by execute

  // Completion handshake + retire-once bookkeeping (retired is poster-only).
  std::mutex m;
  std::condition_variable cv;
  bool finished = false;
  bool retired = false;

  void mark_finished() {
    {
      std::lock_guard<std::mutex> lock(m);
      finished = true;
    }
    cv.notify_all();
  }
  void wait_finished() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return finished; });
  }
  bool poll_finished() {
    std::lock_guard<std::mutex> lock(m);
    return finished;
  }
};

/// Per-executing-thread accumulation scratch for in-place reductions. Each
/// channel thread (and each posting thread in inline mode) owns its own
/// buffer, so concurrent ops on different channels never race on scratch.
std::vector<unsigned char>& op_scratch();

}  // namespace detail

/// Handle to an in-flight collective, in the spirit of MPI_Request.
///
/// ## Lifecycle
///
/// A handle's op passes through four states:
///
///  1. **posted** — the `i*` entry point built the op record (post-time clock
///     snapshot, byte count, routing key) and enqueued it on its channel (or
///     ran it inline). The caller may compute freely; the buffers named in
///     the call belong to the op until it is waited or dropped.
///  2. **in flight** — a channel thread is executing the op: for the Sim
///     transport, the group barrier protocol and its byte movement; for the
///     MPI transport, the posted `MPI_I*` request being
///     progressed to completion. `test()` polls this state without blocking
///     and never charges time.
///  3. **complete** — the executing thread published the completion fields
///     (`done_clock`, `full_seconds`, scalar result, or error) and signalled
///     `finished`. Data buffers now hold the collective's result, but no
///     accounting has happened yet.
///  4. **retired or dropped** — terminal, reached exactly once:
///     * `wait()` blocks until complete, then *retires* the op: it charges
///       the **exposed** tail (the part of the transfer not hidden behind
///       recorded compute) onto the rank clock and `CommStats`, records the
///       timeline spans, and returns the scalar result (0 for data
///       collectives). Exceptions thrown on the executing thread are
///       rethrown here, once. A second `wait()` returns the cached scalar
///       and charges nothing.
///     * Destroying an un-waited handle *drops* the op: the destructor
///       blocks until the op has executed (keeping the group barriers
///       matched — the collective itself is never cancelled) but charges no
///       sim time and no stats, like `MPI_Request_free`: the caller gives up
///       on the accounting, not on the collective. Any pending error dies
///       with the op record.
///
/// A handle must not outlive its Communicator. Move-only.
class CommHandle {
 public:
  CommHandle() = default;
  CommHandle(CommHandle&& other) noexcept
      : op_(std::move(other.op_)), owner_(other.owner_) {
    other.owner_ = nullptr;
  }
  CommHandle& operator=(CommHandle&& other) noexcept {
    if (this != &other) {
      release();
      op_ = std::move(other.op_);
      owner_ = other.owner_;
      other.owner_ = nullptr;
    }
    return *this;
  }
  CommHandle(const CommHandle&) = delete;
  CommHandle& operator=(const CommHandle&) = delete;
  ~CommHandle() { release(); }

  bool valid() const { return op_ != nullptr; }

  /// True once the comm thread has finished executing the op (wait() will not
  /// block). Never charges time.
  bool test() { return op_ != nullptr && op_->poll_finished(); }

  /// Defined in communicator.hpp (needs the Communicator definition).
  double wait();

 private:
  friend class Communicator;
  CommHandle(std::shared_ptr<detail::CommOp> op, Communicator* owner)
      : op_(std::move(op)), owner_(owner) {}

  /// Defined in communicator.hpp: completing (not cancelling) keeps the
  /// barrier protocol matched, then tells the owner the op was abandoned so
  /// its stall-interval bookkeeping stays exact. Any pending error dies with
  /// the op record.
  void release();

  std::shared_ptr<detail::CommOp> op_;
  Communicator* owner_ = nullptr;
};

/// Per-rank comm channels: op k executes on channel `op->channel mod
/// channel_count`, strictly in post order *within* a channel; ops routed to
/// different channels run concurrently. Channel workers are spawned lazily on
/// first use and run with an intra-rank kernel budget of 1 so the data
/// movement they perform never spawns a compute pool of its own.
class CommEngine {
 public:
  /// `channels` is clamped below at 1 (the single-FIFO behaviour).
  explicit CommEngine(int channels);
  ~CommEngine();  ///< drains every channel queue, then joins the workers
  CommEngine(const CommEngine&) = delete;
  CommEngine& operator=(const CommEngine&) = delete;

  void post(std::shared_ptr<detail::CommOp> op);

  int channel_count() const { return static_cast<int>(channels_.size()); }

  /// Execute an op on the calling thread (inline mode / comm budget 0).
  static void run_inline(detail::CommOp& op);

 private:
  struct Channel {
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::shared_ptr<detail::CommOp>> queue;
    bool stop = false;
    std::thread worker;  ///< spawned on the channel's first post
  };

  void loop(Channel& ch);

  std::vector<std::unique_ptr<Channel>> channels_;
};

/// Comm channel budget per rank. Resolution order: the value set by
/// `set_comm_thread_budget`, else the PLEXUS_COMM_THREADS environment
/// variable, else 1. 0 means inline mode: collectives execute on the posting
/// thread at post time (no real overlap, no extra threads) — the sim-time
/// math is identical, only real concurrency is lost. 1 is the single-FIFO
/// comm thread; values > 1 cap the number of concurrent per-group channels
/// (ops on GroupIds congruent mod the budget share a channel and serialise).
/// Simulated clocks, stats and losses are bitwise-identical for any value.
int comm_thread_budget();

/// Process-wide override (clamped to [0, 8]); -1 restores the environment
/// default. Takes effect for Communicators constructed afterwards.
void set_comm_thread_budget(int n);

/// The raw override state: -1 when the environment governs, else the value
/// passed to set_comm_thread_budget. Lets scoped overrides restore
/// "follow the environment" rather than pinning the resolved number.
int comm_thread_override();

/// RAII budget override for tests and benches.
class ScopedCommThreads {
 public:
  explicit ScopedCommThreads(int n) : prev_(comm_thread_override()) {
    set_comm_thread_budget(n);
  }
  ~ScopedCommThreads() { set_comm_thread_budget(prev_); }
  ScopedCommThreads(const ScopedCommThreads&) = delete;
  ScopedCommThreads& operator=(const ScopedCommThreads&) = delete;

 private:
  int prev_;
};

}  // namespace plexus::comm
