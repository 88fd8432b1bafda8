// Fault-forensics flight recorder: a fixed-capacity ring buffer of
// structured events that stays attached to every trial.
//
// The recorder is the always-on half of the forensics layer (DESIGN.md §10):
// injection arming, environment resource transitions, application state
// changes, recovery actions, and detector verdicts are appended as small
// fixed-size records stamped with the simulated clock. When the ring is
// full the oldest events are overwritten —
// a post-mortem cares about the window leading up to the failure, not the
// full history — and the drop count is kept so exports can say what was
// lost.
//
// The recorder is the forensic view of the observation bus (obs/bus.hpp):
// an attached ring costs one store into a preallocated slot per event whose
// bus row names a FlightCode.
//
// Determinism contract: a trial is single-threaded and the ring is owned by
// one trial at a time (a matrix lane clears and reuses its ring between
// trials), so event order and sim-clock stamps are bit-identical for every
// `--threads` value. A record holds nothing else: no executor lane, no
// wall time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "env/clock.hpp"

namespace faultstudy::forensics {

/// One code per distinct thing worth remembering about a trial. Codes carry
/// up to two integer operands (`a`, `b`); the meaning of each is documented
/// per code. Detail strings are reconstructed at export time from the code —
/// the ring itself never allocates.
enum class FlightCode : std::uint8_t {
  // -- harness protocol --
  kTrialStart = 0,    ///< a = workload items per cycle, b = cycles
  kFaultArmed,        ///< a = core::Trigger, b = core::Symptom
  kEnvArmed,          ///< environmental precondition established
  kItemFailed,        ///< a = item index, b = apps::StepStatus
  kRecoveryBegin,     ///< a = item index
  kRecoveryOk,        ///< a = item index, b = items rewound
  kRecoveryFailed,    ///< a = item index
  kRollback,          ///< a = items rewound past
  kVerdict,           ///< a = TrialVerdict

  // -- environment resource transitions --
  kFdExhausted,          ///< a = descriptors wanted, b = in use
  kProcTableFull,        ///< a = table capacity
  kProcHung,             ///< a = pid
  kDiskFull,             ///< a = bytes wanted, b = bytes used
  kFileSizeLimit,        ///< a = bytes wanted, b = per-file limit
  kDnsBroken,            ///< a = env::DnsHealth forced, b = heals-at tick
  kLinkDegraded,         ///< a = env::LinkState forced, b = heals-at tick
  kCardRemoved,          ///< network interface pulled
  kPortDenied,           ///< a = port, already bound by another owner
  kKernelResourceDenied, ///< a = units wanted, b = units available
  kEntropyBlocked,       ///< a = bits wanted, b = bits held
  kSignalRaised,         ///< a = env::Signal, b = deliver-at tick

  // -- application state changes --
  kAppStarted,        ///< a = worker processes spawned
  kAppStopped,
  kAppChildSpawned,   ///< a = pid (e.g. a CGI child)

  // -- recovery mechanism actions --
  kCheckpoint,        ///< state snapshot taken
  kFailover,          ///< process-pairs backup promotion
  kColdRestart,       ///< lossy stop+start cycle
  kRejuvenation,      ///< a = 1 for a proactive (scheduled) pass
  kRetrySanitized,    ///< wrapper rejected a killer input on retry

  kCount,  // sentinel
};

/// Why a trial ended; operand `a` of kVerdict and the post-mortem verdict.
enum class TrialVerdict : std::uint8_t {
  kSurvived = 0,
  kStartFailure,       ///< the application never came up
  kRetryCapExceeded,   ///< one item kept failing past the per-item cap
  kBudgetExhausted,    ///< total recoveries hit the trial budget
  kRecoveryFailed,     ///< the mechanism itself failed to revive the app
  kCount,
};

std::string_view to_string(FlightCode code) noexcept;
std::string_view to_string(TrialVerdict verdict) noexcept;

struct FlightEvent {
  FlightCode code = FlightCode::kTrialStart;
  env::Tick at = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const FlightEvent&) const = default;
};

/// Ring capacity every trial gets by default: large enough to hold the full
/// event history of nearly every specimen (a trial emits tens of events, not
/// thousands), small enough to sit in a few cache lines' worth of pages.
inline constexpr std::size_t kDefaultRingCapacity = 256;

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultRingCapacity)
      : ring_(capacity > 0 ? capacity : 1) {}

  /// Stamps subsequent events with this simulated clock. The clock must
  /// outlive the recording phase; unbound recorders stamp tick 0.
  void bind_clock(const env::VirtualClock* clock) noexcept { clock_ = clock; }

  /// Appends an event, overwriting the oldest when the ring is full.
  void record(FlightCode code, std::uint64_t a = 0,
              std::uint64_t b = 0) noexcept {
    FlightEvent& slot = ring_[total_ % ring_.size()];
    slot.code = code;
    slot.at = clock_ != nullptr ? clock_->now() : 0;
    slot.a = a;
    slot.b = b;
    ++total_;
  }

  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const noexcept {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
  }
  /// Every event ever recorded, including overwritten ones.
  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Events lost to overwriting.
  std::uint64_t dropped() const noexcept {
    return total_ < ring_.size() ? 0 : total_ - ring_.size();
  }
  bool empty() const noexcept { return total_ == 0; }

  /// Snapshot in chronological order, oldest surviving event first.
  std::vector<FlightEvent> chronological() const {
    std::vector<FlightEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::uint64_t first = total_ - n;
    for (std::uint64_t i = first; i < total_; ++i) {
      out.push_back(ring_[i % ring_.size()]);
    }
    return out;
  }

  void clear() noexcept { total_ = 0; }

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t total_ = 0;
  const env::VirtualClock* clock_ = nullptr;
};

}  // namespace faultstudy::forensics
