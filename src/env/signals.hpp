// Simulated signal delivery with masking windows.
//
// Models the MySQL fault "race condition between the masking of a signal and
// its arrival": an application masks a signal at some point in an operation;
// a signal arriving in the window before the mask is applied hits the buggy
// path. Arrival timing comes from the scheduler's interleaving draw.
#pragma once

#include <string>
#include <vector>

#include "env/clock.hpp"
#include "obs/bus.hpp"

namespace faultstudy::env {

enum class Signal { kHup = 1, kUsr1 = 10, kTerm = 15, kChld = 17 };

struct PendingSignal {
  Signal signal = Signal::kHup;
  Tick deliver_at = 0;
};

class SignalBus {
 public:
  /// Schedules a signal for delivery at `at`.
  void raise(Signal signal, Tick at);

  /// Signals due at or before `now`; delivered signals are consumed.
  std::vector<Signal> deliver_due(Tick now);

  /// Pending (not yet due) count, for tests.
  std::size_t pending() const noexcept { return pending_.size(); }

  void clear() noexcept { pending_.clear(); }

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  std::vector<PendingSignal> pending_;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
