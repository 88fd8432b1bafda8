// Synchronization-event tracing: the raw material for happens-before
// analysis.
//
// The simulated applications execute their multi-threaded operations as
// structural interleavings (env/interleave). When tracing is enabled, each
// such operation also emits the sequence of memory and synchronization
// events — reads, writes, lock acquisitions/releases, fork/join edges — in
// the global order the scheduler chose. The analysis layer replays this
// stream through a vector-clock happens-before detector; because the trace
// records the *synchronization structure* and not just the outcome, a race
// is detectable even in executions whose interleaving happened to dodge the
// hazard window.
//
// Tracing is off by default and every record call is guarded by a single
// branch, so untraced trials pay nothing.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "env/clock.hpp"

namespace faultstudy::env {

/// Logical thread id within one traced operation. Thread 0 is reserved for
/// the harness (fork/join bookkeeping); applications use 1+.
using ThreadId = std::uint32_t;

/// Identity of a shared object: a variable for read/write events, a mutex
/// for lock/unlock events, a thread for fork/join events.
using ObjectId = std::uint32_t;

enum class TraceOp : std::uint8_t {
  kRead = 0,  ///< thread reads shared variable `object`
  kWrite,     ///< thread writes shared variable `object`
  kLock,      ///< thread acquires mutex `object`
  kUnlock,    ///< thread releases mutex `object`
  kFork,      ///< thread starts thread `object` (happens-before edge)
  kJoin,      ///< thread joins thread `object` (happens-before edge)
};

std::string_view to_string(TraceOp op) noexcept;

struct TraceEvent {
  ThreadId thread = 0;
  TraceOp op = TraceOp::kRead;
  ObjectId object = 0;
  Tick at = 0;
  /// Human label for reports, e.g. "recompute signal mask". Record sites
  /// pass string literals; the view must outlive every copy of the trace.
  std::string_view note;
};

/// Append-only event log owned by the Environment. Disabled by default;
/// record() is a no-op (one branch) until enable() is called.
class TraceLog {
 public:
  void enable(bool on = true) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  void record(ThreadId thread, TraceOp op, ObjectId object, Tick at,
              std::string_view note = {}) {
    if (!enabled_) return;
    events_.push_back({thread, op, object, at, note});
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  void clear() noexcept { events_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

/// Well-known object ids, so emission sites and reports agree on names.
/// Variables and locks live in separate id spaces per TraceOp kind, but
/// distinct ids everywhere keep reports unambiguous.
namespace trace_objects {
inline constexpr ObjectId kSignalMask = 1;    ///< mysql-edt-01 shared state
inline constexpr ObjectId kAppletList = 2;    ///< gnome-edt-03 shared state
inline constexpr ObjectId kScoreboard = 3;    ///< apache worker scoreboard
inline constexpr ObjectId kSharedCounter = 4; ///< generic race specimens
inline constexpr ObjectId kStateLock = 101;   ///< mutex guarding the above
}  // namespace trace_objects

std::string_view object_name(ObjectId id) noexcept;

}  // namespace faultstudy::env
