#include "ledger.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace faultstudy::bench {

namespace {

// Each thread counts into its own thread_local counter (a plain increment,
// no locked instruction). An exiting thread folds its count into
// g_exited; the pools the study starts are joined before anyone reads
// process_allocs(), so that sum is exact there.
std::atomic<std::uint64_t> g_exited{0};

thread_local std::uint64_t t_count = 0;

enum class State : unsigned char { kNew, kLive, kExited };
thread_local State t_state = State::kNew;

/// Folds the thread's count into g_exited when the thread exits.
struct ExitFold {
  ExitFold() = default;
  ExitFold(const ExitFold&) = delete;
  ExitFold& operator=(const ExitFold&) = delete;
  ~ExitFold() {
    t_state = State::kExited;
    g_exited.fetch_add(t_count, std::memory_order_relaxed);
    t_count = 0;
  }
};

/// First allocation of a thread, or one made during its teardown.
void slow_path() noexcept {
  if (t_state == State::kNew) {
    t_state = State::kLive;
    // Registers ExitFold's destructor for this thread (glibc allocates the
    // registration with calloc, not operator new, so this cannot recurse).
    thread_local ExitFold fold;
    (void)fold;
    return;
  }
  // After ExitFold ran: fold each late allocation straight away.
  g_exited.fetch_add(t_count, std::memory_order_relaxed);
  t_count = 0;
}

inline void count_allocation() noexcept {
  ++t_count;
  if (t_state != State::kLive) slow_path();
}

}  // namespace

std::uint64_t thread_allocs() noexcept { return t_count; }

std::uint64_t process_allocs() noexcept {
  return g_exited.load(std::memory_order_relaxed) + t_count;
}

double process_cpu_s() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace faultstudy::bench

// The counting allocator. Array, nothrow and sized forms of new/delete in
// libstdc++ forward to these two, so every heap allocation the program
// makes through operator new is counted exactly once.
void* operator new(std::size_t size) {
  faultstudy::bench::count_allocation();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
