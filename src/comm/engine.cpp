#include "comm/handle.hpp"

#include <algorithm>
#include <atomic>

#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace plexus::comm {

namespace detail {

std::vector<unsigned char>& op_scratch() {
  static thread_local std::vector<unsigned char> buf;
  return buf;
}

}  // namespace detail

CommEngine::CommEngine(int channels) {
  channels_.resize(static_cast<std::size_t>(std::max(1, channels)));
  for (auto& ch : channels_) ch = std::make_unique<Channel>();
}

CommEngine::~CommEngine() {
  for (auto& ch : channels_) {
    {
      std::lock_guard<std::mutex> lock(ch->m);
      ch->stop = true;
    }
    ch->cv.notify_all();
  }
  for (auto& ch : channels_) {
    if (ch->worker.joinable()) ch->worker.join();
  }
}

void CommEngine::post(std::shared_ptr<detail::CommOp> op) {
  const auto idx = static_cast<std::size_t>(op->channel) % channels_.size();
  Channel& ch = *channels_[idx];
  {
    std::lock_guard<std::mutex> lock(ch.m);
    ch.queue.push_back(std::move(op));
    if (!ch.worker.joinable()) ch.worker = std::thread([this, &ch] { loop(ch); });
  }
  ch.cv.notify_one();
}

void CommEngine::run_inline(detail::CommOp& op) {
  try {
    op.execute(op);
  } catch (...) {
    op.error = std::current_exception();
  }
  op.execute = nullptr;  // drop captured buffers/closure state promptly
  op.mark_finished();
}

void CommEngine::loop(Channel& ch) {
  // Channel threads move bytes; they must never recursively build a kernel
  // pool, so each keeps the serial budget for its whole lifetime.
  util::set_intra_rank_threads(1);
  for (;;) {
    std::shared_ptr<detail::CommOp> op;
    {
      std::unique_lock<std::mutex> lock(ch.m);
      ch.cv.wait(lock, [&] { return ch.stop || !ch.queue.empty(); });
      if (ch.queue.empty()) return;  // stop set and fully drained
      op = std::move(ch.queue.front());
      ch.queue.pop_front();
    }
    run_inline(*op);
  }
}

namespace {

/// -1 = "use the environment", >= 0 = explicit override.
std::atomic<int> g_comm_threads{-1};

int env_comm_threads() {
  // Valid values above 8 clamp like set_comm_thread_budget.
  const auto v = util::env_int("PLEXUS_COMM_THREADS", 0, 4096);
  return v ? std::min(*v, 8) : 1;
}

}  // namespace

int comm_thread_budget() {
  const int v = g_comm_threads.load(std::memory_order_relaxed);
  return v >= 0 ? v : env_comm_threads();
}

int comm_thread_override() { return g_comm_threads.load(std::memory_order_relaxed); }

void set_comm_thread_budget(int n) {
  g_comm_threads.store(n < 0 ? -1 : std::min(n, 8), std::memory_order_relaxed);
}

}  // namespace plexus::comm
