// Happens-before + lockset race detection over synchronization traces.
//
// The detector replays an env::TraceLog stream through per-thread vector
// clocks (lock release/acquire and fork/join install the happens-before
// edges) and flags every pair of conflicting accesses — two accesses to the
// same variable, at least one a write — that are unordered by
// happens-before. Locksets are tracked alongside: a reported pair carries
// the locks each side held, which is how the report distinguishes "no lock
// at all" from "two different locks" when describing the bug.
//
// Per access the scan keeps only the trace index, the thread and that
// thread's clock. Locksets and per-thread histories are not tracked while
// scanning: once the scan has found its reports, one replay of the trace
// up to the last cited access rebuilds both sides of each report.
//
// Because detection keys on the synchronization *structure* rather than on
// whether this execution's interleaving landed in the hazard gap, a racy
// program is flagged on every traced racy operation — exactly the oracle
// property the taxonomy cross-check needs: an armed race fault must light
// the detector up deterministically, and a well-synchronized (fixed)
// program must never do so.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/vector_clock.hpp"
#include "env/trace.hpp"

namespace faultstudy::analysis {

/// One side of a racy pair: the access event plus the thread's recent
/// event history ("stack of events") leading up to it.
struct AccessRecord {
  std::size_t event_index = 0;  ///< index into the analyzed trace
  env::ThreadId thread = 0;
  env::TraceOp op = env::TraceOp::kRead;
  std::string_view note;  ///< the trace event's note (static storage)
  /// Locks held by the thread at the access, innermost last.
  std::vector<env::ObjectId> locks_held;
  /// Indices of the thread's preceding trace events, oldest first.
  std::vector<std::size_t> history;
};

struct RaceReport {
  env::ObjectId object = 0;
  AccessRecord first;   ///< the earlier access in trace order
  AccessRecord second;  ///< the later, conflicting access
};

struct RaceDetectorOptions {
  /// Cap on reports per analyze() call (a racy loop would otherwise flood).
  std::size_t max_reports = 64;
  /// Events of per-thread history attached to each side of a report.
  std::size_t history_depth = 8;
  /// Report each (object, thread-pair) at most once.
  bool dedupe_pairs = true;
};

class RaceDetector {
 public:
  explicit RaceDetector(RaceDetectorOptions options = {})
      : options_(options) {}

  /// Analyzes a complete trace; stateless across calls.
  std::vector<RaceReport> analyze(std::span<const env::TraceEvent> trace);

  /// Convenience for the common caller.
  std::vector<RaceReport> analyze(const env::TraceLog& log) {
    return analyze(std::span<const env::TraceEvent>(log.events()));
  }

  const RaceDetectorOptions& options() const noexcept { return options_; }

 private:
  RaceDetectorOptions options_;
};

/// Multi-line human-readable rendering of one report, both event stacks
/// included.
std::string to_string(const RaceReport& report,
                      std::span<const env::TraceEvent> trace);

}  // namespace faultstudy::analysis
