// Measurement primitives for the study benchmark: a process-wide heap
// allocation ledger and the clocks every span reads.
//
// The ledger replaces the global `operator new` of the benchmark binary.
// Each thread counts into a thread_local counter (a plain increment, no
// locked instruction), so a span that starts and ends on one thread reads
// an exact allocation count from `thread_allocs()`. A thread adds its count
// to a process total when it exits, so a quiescent point (after a sweep's
// pool has joined) reads the whole process from `process_allocs()`. Counts are work, not time: they repeat exactly from
// run to run and are reported as counts, never as speed-ups.
#pragma once

#include <chrono>
#include <cstdint>

namespace faultstudy::bench {

/// Allocations made so far by the calling thread.
std::uint64_t thread_allocs() noexcept;

/// Allocations made so far by the calling thread and by every thread that
/// has exited. Exact while no other thread is alive (call it between
/// sweeps: the study's pools are joined when a sweep returns).
std::uint64_t process_allocs() noexcept;

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds(std::int64_t ns) noexcept {
  return static_cast<double>(ns) * 1e-9;
}

/// User + system CPU time of the whole process, in seconds.
double process_cpu_s() noexcept;

/// Peak resident set size of the process, in MiB.
double peak_rss_mib() noexcept;

}  // namespace faultstudy::bench
