#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>

namespace faultstudy::util {

namespace {
/// 0 outside any pool; workers overwrite this once at thread start.
thread_local std::size_t t_lane = 0;
}  // namespace

std::size_t current_lane() noexcept { return t_lane; }

std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("FAULTSTUDY_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// One for_index sweep in flight. Indices are claimed in contiguous chunks
/// from `cursor`; `completed` counts indices accounted for (run or skipped
/// after abort) so the caller knows when the range has drained.
struct ThreadPool::Sweep {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
};

struct ThreadPool::State {
  std::mutex mutex;
  std::condition_variable work_cv;  ///< workers sleep here between sweeps
  std::condition_variable done_cv;  ///< the caller waits for drain here
  Sweep* sweep = nullptr;           ///< current sweep, nullptr when idle
  std::uint64_t generation = 0;     ///< bumped once per sweep
  std::size_t active = 0;           ///< workers currently inside the sweep
  bool stop = false;
};

ThreadPool::ThreadPool(std::size_t threads)
    : state_(std::make_unique<State>()) {
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, lane = i + 1] {
      t_lane = lane;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(Sweep& sweep) {
  for (;;) {
    const std::size_t begin = sweep.cursor.fetch_add(sweep.chunk);
    if (begin >= sweep.n) return;
    const std::size_t end = std::min(begin + sweep.chunk, sweep.n);
    if (!sweep.abort.load(std::memory_order_relaxed)) {
      try {
        for (std::size_t i = begin; i < end; ++i) (*sweep.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(sweep.error_mutex);
        if (begin < sweep.error_chunk) {
          sweep.error_chunk = begin;
          sweep.error = std::current_exception();
        }
        sweep.abort.store(true, std::memory_order_relaxed);
      }
    }
    sweep.completed.fetch_add(end - begin);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(state_->mutex);
  for (;;) {
    state_->work_cv.wait(lock, [&] {
      return state_->stop ||
             (state_->generation != seen && state_->sweep != nullptr);
    });
    if (state_->stop) return;
    seen = state_->generation;
    Sweep& sweep = *state_->sweep;
    ++state_->active;
    lock.unlock();
    run_chunks(sweep);
    lock.lock();
    --state_->active;
    state_->done_cv.notify_all();
  }
}

void ThreadPool::for_index(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // The exact serial code path: no pool state is touched at all.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Sweep sweep;
  sweep.n = n;
  sweep.fn = &fn;
  // Chunks small enough to balance uneven items across lanes, large enough
  // to amortize the claim; clamped so tiny sweeps still fan out.
  sweep.chunk =
      std::min<std::size_t>(64, std::max<std::size_t>(1, n / (size() * 8)));

  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->sweep = &sweep;
    ++state_->generation;
  }
  state_->work_cv.notify_all();

  run_chunks(sweep);  // the calling thread is a lane too

  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done_cv.wait(lock, [&] {
      return sweep.completed.load() == n && state_->active == 0;
    });
    state_->sweep = nullptr;
  }
  if (sweep.error) std::rethrow_exception(sweep.error);
}

void parallel_for_index(std::size_t n, std::size_t threads,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t lanes = resolve_threads(threads);
  if (lanes <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(lanes);
  pool.for_index(n, fn);
}

}  // namespace faultstudy::util
