#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace plexus::util {

ThreadPool::ThreadPool(int num_threads) {
  PLEXUS_CHECK(num_threads >= 1, "ThreadPool: need at least one thread");
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {

/// Number of chunks in the (n, grain) grid; `threads` is the grain-0
/// fallback (one chunk per executor). The single source of truth — callers
/// size per-chunk arrays from this count and index them from chunk_span, so
/// every execution path must agree with it.
std::int64_t grid_chunks(std::int64_t n, std::int64_t grain, std::int64_t threads) {
  return grain > 0 ? (n + grain - 1) / grain : threads;
}

/// Boundaries of chunk `c` of the (begin, end, grain, chunks) grid.
void chunk_span(std::int64_t begin, std::int64_t end, std::int64_t grain, std::int64_t chunks,
                std::int64_t c, std::int64_t* c0, std::int64_t* c1) {
  if (grain > 0) {
    *c0 = begin + c * grain;
    *c1 = std::min(end, *c0 + grain);
  } else {
    const std::int64_t n = end - begin;
    *c0 = begin + c * n / chunks;
    *c1 = begin + (c + 1) * n / chunks;
  }
}

/// Serial walk of the whole chunk grid, in index order. The one
/// implementation behind every inline/serial execution path — the bitwise
/// guarantee of grain-fixed reductions depends on all paths sharing it.
void run_grid_inline(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     std::int64_t chunks, const ChunkBody& body) {
  for (std::int64_t c = 0; c < chunks; ++c) {
    std::int64_t c0 = 0;
    std::int64_t c1 = 0;
    chunk_span(begin, end, grain, chunks, c, &c0, &c1);
    if (c0 < c1) body(c, c0, c1);
  }
}

/// True on threads owned by a ThreadPool; they must keep their serial budget.
thread_local bool tl_in_worker = false;

}  // namespace

void ThreadPool::run_chunks(int executor) {
  const std::int64_t stride = num_threads();
  try {
    for (std::int64_t c = executor; c < num_chunks_; c += stride) {
      std::int64_t c0 = 0;
      std::int64_t c1 = 0;
      chunk_span(begin_, end_, grain_, num_chunks_, c, &c0, &c1);
      if (c0 >= c1) continue;
      (*body_)(c, c0, c1);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(int executor) {
  // Workers run with a serial budget so kernels invoked from a body nest
  // inline instead of spawning pools-of-pools; the flag makes the budget
  // unchangeable for the thread's lifetime.
  set_intra_rank_threads(1);
  tl_in_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || job_epoch_ != seen; });
      if (stop_) return;
      seen = job_epoch_;
    }
    run_chunks(executor);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                              const ChunkBody& body) {
  if (end <= begin) return;
  const std::int64_t chunks = grid_chunks(end - begin, grain, num_threads());

  if (chunks == 1 || running_ || workers_.empty()) {
    // One-chunk grid (nothing to parallelise), nested call from a body on
    // the owner thread, or a single-thread pool: run the chunk grid inline,
    // in index order. Uses only locals — workers of an outer job may still
    // be reading the shared job fields. running_ stays set so a body cannot
    // tear the pool down from under this frame (see set_intra_rank_threads).
    const bool was_running = running_;
    running_ = true;
    try {
      run_grid_inline(begin, end, grain, chunks, body);
    } catch (...) {
      running_ = was_running;
      throw;
    }
    running_ = was_running;
    return;
  }

  running_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    begin_ = begin;
    end_ = end;
    grain_ = grain;
    num_chunks_ = chunks;
    error_ = nullptr;
    active_ = static_cast<int>(workers_.size());
    ++job_epoch_;
  }
  start_cv_.notify_all();
  run_chunks(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
  }
  running_ = false;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

namespace {

/// Per-thread engine: the budget plus the lazily constructed pool. Destroyed
/// (workers joined) when the owning thread — e.g. a simulated rank — exits.
struct Engine {
  int budget = 0;  ///< 0 = not yet resolved
  std::unique_ptr<ThreadPool> pool;
};

thread_local Engine tl_engine;

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int env_thread_override() { return env_int("PLEXUS_THREADS", 1, 4096).value_or(0); }

int process_threads() {
  const int env = env_thread_override();
  return env > 0 ? env : hardware_threads();
}

int intra_rank_threads() {
  if (tl_engine.budget == 0) {
    const int env = env_thread_override();
    tl_engine.budget = env > 0 ? env : 1;
  }
  return tl_engine.budget;
}

void set_intra_rank_threads(int n) {
  n = std::max(1, n);
  // Pool workers must stay serial: a raised budget would build a
  // pool-inside-a-pool and oversubscribe the host.
  PLEXUS_CHECK(!tl_in_worker || n == 1,
               "set_intra_rank_threads: pool workers cannot raise their budget");
  if (tl_engine.pool && tl_engine.pool->num_threads() != n) {
    // Resizing tears down the pool; doing that from inside a running body
    // would join workers of the job we are executing (use-after-free).
    PLEXUS_CHECK(!tl_engine.pool->busy(),
                 "set_intra_rank_threads: cannot resize the engine from inside a parallel body");
    tl_engine.pool.reset();
  }
  tl_engine.budget = n;
}

ScopedProcessThreads::ScopedProcessThreads() {
  if (tl_in_worker || (tl_engine.pool && tl_engine.pool->busy())) return;
  prev_ = intra_rank_threads();
  set_intra_rank_threads(process_threads());
}

ScopedProcessThreads::~ScopedProcessThreads() {
  if (prev_ > 0) set_intra_rank_threads(prev_);
}

std::int64_t parallel_chunk_count(std::int64_t n, std::int64_t grain) {
  if (n <= 0) return 0;
  return grid_chunks(n, grain, intra_rank_threads());
}

void parallel_for_grain(std::int64_t begin, std::int64_t end, std::int64_t grain,
                        const ChunkBody& body) {
  if (end <= begin) return;
  const int t = intra_rank_threads();
  if (t <= 1) {
    // Serial execution of the same chunk grid, in chunk order (grain == 0
    // degenerates to a single chunk, matching a pool of one).
    run_grid_inline(begin, end, grain, grid_chunks(end - begin, grain, 1), body);
    return;
  }
  if (!tl_engine.pool) tl_engine.pool = std::make_unique<ThreadPool>(t);
  tl_engine.pool->parallel_for(begin, end, grain, body);
}

void parallel_for(std::int64_t begin, std::int64_t end, const RangeBody& body,
                  std::int64_t work_estimate) {
  if (end <= begin) return;
  if (work_estimate >= 0 && work_estimate < kSerialWorkCutoff) {
    body(begin, end);
    return;
  }
  parallel_for_grain(begin, end, 0,
                     [&body](std::int64_t, std::int64_t c0, std::int64_t c1) { body(c0, c1); });
}

}  // namespace plexus::util
