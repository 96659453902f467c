#pragma once
/// \file thread_pool.hpp
/// Intra-rank threaded kernel engine: a persistent worker pool plus a
/// deterministic, statically chunked `parallel_for`.
///
/// The simulator runs one std::thread per simulated GPU rank; inside a rank,
/// the host kernels (SpMM, GEMM, elementwise ops) were serial. This engine
/// parallelises those kernels across a per-rank thread budget without
/// changing results:
///
///  * **Determinism.** The loop range is cut into chunks whose boundaries
///    depend only on (range, grain) — or, when `grain == 0`, on the thread
///    budget — never on scheduling. Each output row/element is owned by
///    exactly one chunk, so kernels whose chunks write disjoint output are
///    bitwise-identical for any thread count. Reductions stay deterministic
///    by passing an explicit `grain` (a thread-count-independent chunk grid)
///    and combining per-chunk partials in chunk-index order on the caller.
///  * **Budgets, not globals.** Every thread carries its own budget
///    (`set_intra_rank_threads`); `sim::run_cluster` divides the hardware
///    concurrency across simulated ranks so an 8-rank run does not
///    oversubscribe. A fresh thread defaults to `PLEXUS_THREADS` (if set)
///    or 1, so serial entry points stay serial unless asked.
///  * **Nesting is safe.** A `parallel_for` issued from inside a running
///    body executes inline (pool workers carry a budget of 1), so kernels
///    may be composed freely from rank threads.
///
/// Exceptions thrown by a body are captured and the first one is rethrown on
/// the calling thread after all workers finish the job; output written by the
/// failed job is unspecified.

#include <algorithm>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace plexus::util {

/// Body of a chunked parallel loop: called once per non-empty chunk with the
/// chunk index and the chunk's half-open sub-range of [begin, end).
using ChunkBody = std::function<void(std::int64_t chunk, std::int64_t begin, std::int64_t end)>;
/// Chunk-oblivious body: just the half-open sub-range.
using RangeBody = std::function<void(std::int64_t begin, std::int64_t end)>;

/// Fixed-size pool of `num_threads - 1` workers; the calling thread acts as
/// executor 0 of every job. Chunks are assigned statically round-robin
/// (chunk c runs on executor c % num_threads).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// True while a job issued by the owning thread is in flight (owner-thread
  /// view; used to reject unsafe teardown from inside a body).
  bool busy() const { return running_; }

  /// Runs `body` over [begin, end). `grain > 0` cuts chunks of that size
  /// (last chunk short); `grain == 0` cuts one balanced chunk per thread.
  /// Must be called from the owning thread; a nested call from inside a body
  /// on that thread runs inline over the same chunk grid.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const ChunkBody& body);

 private:
  void worker_loop(int executor);
  void run_chunks(int executor);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t job_epoch_ = 0;
  int active_ = 0;     ///< workers still executing the current job
  bool stop_ = false;
  bool running_ = false;  ///< owner-thread reentrancy guard (owner reads/writes only)

  // Current job; written by the owner under mutex_ before workers are woken.
  const ChunkBody* body_ = nullptr;
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;
  std::int64_t grain_ = 0;
  std::int64_t num_chunks_ = 0;
  std::exception_ptr error_;
};

/// max(1, std::thread::hardware_concurrency()).
int hardware_threads();

/// Parsed value of the PLEXUS_THREADS environment variable (the process-wide
/// compute-thread budget), or 0 when unset. A malformed value warns once
/// (util::env_int) and also reads as 0.
int env_thread_override();

/// The process-wide compute budget: PLEXUS_THREADS when set, else
/// hardware_threads(). sim::resolve_intra_rank_threads divides it across
/// simulated ranks; single-threaded phases such as setup use all of it
/// (ScopedProcessThreads).
int process_threads();

/// The calling thread's intra-rank thread budget. First use on a fresh thread
/// resolves to PLEXUS_THREADS when set, else 1.
int intra_rank_threads();

/// Sets the calling thread's budget (clamped to >= 1). The lazily built pool
/// is torn down and rebuilt on the next parallel loop if the size changed.
void set_intra_rank_threads(int n);

/// Number of chunks `parallel_for_grain(0, n, grain, ...)` will produce.
std::int64_t parallel_chunk_count(std::int64_t n, std::int64_t grain);

/// Estimated scalar-op count below which a loop is not worth a pool dispatch
/// (the wake/join handshake costs microseconds). The one cutoff every kernel
/// shares — tune here, not per call site.
inline constexpr std::int64_t kSerialWorkCutoff = std::int64_t{1} << 16;

/// Chunked parallel loop on the calling thread's engine (see ThreadPool).
/// Serial (budget 1) execution walks the identical chunk grid in index order,
/// so grain-fixed reductions match the threaded result bitwise.
void parallel_for_grain(std::int64_t begin, std::int64_t end, std::int64_t grain,
                        const ChunkBody& body);

/// Convenience wrapper: balanced per-thread chunks, chunk-oblivious body.
/// `work_estimate` is the loop's total scalar-op count when the caller can
/// estimate it; below kSerialWorkCutoff the body runs inline as one range.
/// -1 (unknown) always dispatches.
void parallel_for(std::int64_t begin, std::int64_t end, const RangeBody& body,
                  std::int64_t work_estimate = -1);

/// RAII budget override for benches and tests.
class ScopedIntraRankThreads {
 public:
  explicit ScopedIntraRankThreads(int n) : prev_(intra_rank_threads()) {
    set_intra_rank_threads(n);
  }
  ~ScopedIntraRankThreads() { set_intra_rank_threads(prev_); }
  ScopedIntraRankThreads(const ScopedIntraRankThreads&) = delete;
  ScopedIntraRankThreads& operator=(const ScopedIntraRankThreads&) = delete;

 private:
  int prev_;
};

/// RAII: raises the calling thread's budget to process_threads() for the
/// scope and restores it after. Setup entry points (make_proxy,
/// preprocess_graph, rmat_to_shards) open one, so generation and
/// preprocessing use every core although a fresh thread's budget is 1.
/// Does nothing on a pool worker or inside a running parallel body, where the
/// budget must stay as it is.
class ScopedProcessThreads {
 public:
  ScopedProcessThreads();
  ~ScopedProcessThreads();
  ScopedProcessThreads(const ScopedProcessThreads&) = delete;
  ScopedProcessThreads& operator=(const ScopedProcessThreads&) = delete;

 private:
  int prev_ = 0;  ///< 0 = the scope changed nothing
};

/// Sorts `v` under `less` on the calling thread's engine: one std::sort per
/// chunk, then rounds of pairwise std::merge. When no two elements of `v`
/// compare equivalent the sorted order is unique, so the result is
/// bitwise-identical to std::sort for every thread budget — the only use
/// callers may make of it. Merges through `scratch`, resized to v.size()
/// (the two may trade buffers); callers that sort repeatedly keep it to
/// reuse the allocation.
template <typename T, typename Less>
void parallel_sort(std::vector<T>& v, Less less, std::vector<T>& scratch) {
  // Below this many elements per chunk a pool dispatch costs more than it saves.
  constexpr std::int64_t kMinChunk = std::int64_t{1} << 14;
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t chunks = std::min<std::int64_t>(intra_rank_threads(), n / kMinChunk);
  if (chunks <= 1) {
    std::sort(v.begin(), v.end(), less);
    return;
  }
  const auto bound = [&](std::int64_t c) { return std::min(c, chunks) * n / chunks; };
  parallel_for_grain(0, chunks, 1, [&](std::int64_t c, std::int64_t, std::int64_t) {
    std::sort(v.begin() + bound(c), v.begin() + bound(c + 1), less);
  });
  scratch.resize(v.size());
  for (std::int64_t width = 1; width < chunks; width *= 2) {
    const std::int64_t pairs = (chunks + 2 * width - 1) / (2 * width);
    parallel_for_grain(0, pairs, 1, [&](std::int64_t p, std::int64_t, std::int64_t) {
      const auto lo = bound(2 * p * width);
      const auto mid = bound((2 * p + 1) * width);
      const auto hi = bound((2 * p + 2) * width);
      std::merge(v.begin() + lo, v.begin() + mid, v.begin() + mid, v.begin() + hi,
                 scratch.begin() + lo, less);
    });
    v.swap(scratch);
  }
}

}  // namespace plexus::util
