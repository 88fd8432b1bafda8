// Deterministic parallel execution substrate.
//
// The experiment harness and the mining pipeline both sweep large index
// spaces of *independent* work (one trial per (mechanism, seed) cell, one
// tokenization per report). The executor here parallelizes such sweeps
// while keeping results bit-identical to a serial run: work is scheduled by
// index in fixed-size chunks, every result is written into a pre-sized slot
// owned by its index, and all reduction happens on the calling thread in
// index order after the pool drains. Nothing observable depends on thread
// timing — only on the indices, which are the same in every run.
//
// Callers keep the other half of the contract: a unit of work derives any
// randomness from its own index (the harness seeds every trial from
// util::fnv1a(fault_id)), never from a stream shared across indices, and
// touches no state another index can see. Then the thread count changes
// wall-clock time and nothing else: a MatrixResult, OracleReport or mined
// bug list is bit-identical for every lane count.
//
// Thread-count resolution (`resolve_threads`): an explicit request wins;
// otherwise the FAULTSTUDY_THREADS environment variable; otherwise
// std::thread::hardware_concurrency(). A resolved count of 1 runs the exact
// serial code path on the calling thread — no pool, no synchronization.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace faultstudy::util {

/// Effective worker count for a parallel sweep.
///   requested > 0  -> requested (an explicit config/flag value wins);
///   requested == 0 -> FAULTSTUDY_THREADS if set to a positive integer,
///                     else hardware_concurrency(), never less than 1.
std::size_t resolve_threads(std::size_t requested = 0) noexcept;

/// The executing thread's lane index: 0 for a thread that is not a pool
/// worker (including every sweep's calling thread), 1..N-1 for workers of
/// the pool they belong to. Stable for the life of the thread, so it can
/// index per-lane slots (PoolStats::lanes) and stamp log lines and
/// flight-recorder events with the lane that wrote them.
std::size_t current_lane() noexcept;

/// Wall-clock self-profiling for a pool, sharded one cache line per lane so
/// concurrent lanes never contend. Wall time is a real measurement — these
/// stats live in the telemetry wall domain and never participate in
/// determinism comparisons. Self-contained (plain integers, no telemetry
/// dependency) so fs_util stays the bottom of the library stack.
struct PoolStats {
  static constexpr std::size_t kLatencyBuckets = 20;

  struct alignas(64) Lane {
    std::uint64_t chunks = 0;   ///< chunks this lane claimed
    std::uint64_t indices = 0;  ///< indices this lane executed
    std::uint64_t micros = 0;   ///< total wall time inside chunk bodies
    /// Chunk wall-latency histogram, bucket b = [2^b, 2^(b+1)) microseconds.
    std::array<std::uint64_t, kLatencyBuckets> latency_log2_us{};
    /// High-watermark of indices still unclaimed when this lane claimed.
    std::uint64_t max_pending = 0;
  };

  std::uint64_t sweeps = 0;  ///< written by the sweep's calling thread only
  std::vector<Lane> lanes;   ///< one slot per lane, index = current_lane()

  void reset(std::size_t lane_count) {
    sweeps = 0;
    lanes.assign(lane_count, Lane{});
  }
};

/// Fixed-size worker pool with chunked index scheduling.
///
/// `for_index(n, fn)` runs fn(i) exactly once for every i in [0, n) and
/// returns when all calls have completed. Indices are claimed in contiguous
/// chunks from an atomic cursor, so which *thread* runs an index is timing-
/// dependent, but callers that write only to per-index state observe no
/// difference from a serial loop. If any fn throws, the first exception (by
/// lowest claimed chunk among throwers) is rethrown on the calling thread
/// after the sweep drains; remaining unclaimed chunks are skipped.
///
/// A pool constructed with `threads <= 1` spawns no workers at all:
/// for_index degenerates to the plain serial loop on the calling thread,
/// which is the exact pre-parallel code path.
class ThreadPool {
 public:
  /// `threads` counts the calling thread too: a pool of size 4 spawns 3
  /// workers and the caller participates in every sweep.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (workers + the calling thread); >= 1.
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Attaches a self-profiling sink (resized to size() lanes); nullptr
  /// detaches. Serial-only — call between sweeps, not during one.
  void set_stats(PoolStats* stats) {
    stats_ = stats;
    if (stats_ != nullptr && stats_->lanes.size() < size()) {
      stats_->lanes.resize(size());
    }
  }

  void for_index(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Sweep;
  void worker_loop();
  static void run_chunks(Sweep& sweep);

  std::vector<std::thread> workers_;
  // Guarded by mutex_ in thread_pool.cpp via the Impl-free layout below.
  struct State;
  std::unique_ptr<State> state_;
  PoolStats* stats_ = nullptr;
};

/// Ambient self-profiling sink for the transient pools parallel_for_index
/// creates (callers never see those pools, so they cannot call set_stats on
/// them). Set serially before a sweep and clear afterwards; nullptr (the
/// default) disables. Not thread-safe: only the thread driving the sweeps
/// may flip it.
void set_ambient_pool_stats(PoolStats* stats) noexcept;
PoolStats* ambient_pool_stats() noexcept;

/// fn(i) for every i in [0, n), using `threads` lanes (resolved via
/// resolve_threads). Results are deterministic per the contract above.
/// Convenience for one-shot sweeps; hot callers that sweep repeatedly
/// should hold a ThreadPool. Picks up the ambient PoolStats sink, if any.
void parallel_for_index(std::size_t n, std::size_t threads,
                        const std::function<void(std::size_t)>& fn);

/// Maps [0, n) through fn into a pre-sized vector, one slot per index;
/// out[i] is fn(i) regardless of scheduling, so the result equals the
/// serial map for any thread count.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, std::size_t threads, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for_index(n, threads,
                     [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace faultstudy::util
