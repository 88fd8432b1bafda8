// The decorated mechanism roster: per-layer attribution of the recovery
// matrix, measured from outside the program.
//
// TimedRoster wraps each NamedMechanism's factory so run_matrix builds a
// TimedMechanism around the real mechanism. The wrapper hands the inner
// mechanism a TimedApp proxy instead of the real application, so every
// start/stop/snapshot/restore/rejuvenate a mechanism issues is timed and
// its allocations counted. The wrapper lives exactly as long as one trial
// (run_matrix makes a fresh mechanism per trial), so its lifetime is the
// trial span:
//
//   trial span (wrapper lifetime, one lane)
//   ├── recovery.attach / recovery.checkpoint / recovery.recover (hooks)
//   │   └── apps.start / stop / snapshot / restore / rejuvenate (proxy)
//   └── harness self time: initial start, item loop, env, hook sites,
//       per-trial sink construction
//
// Self time is a span minus the spans nested in it, so the apps.* busy
// times, the mechanism hooks' self time and the harness self time add up
// to the trial busy time.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "harness/experiment.hpp"

namespace faultstudy::bench {

/// Calls, busy time and heap allocations of one kind of span.
struct OpTally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
};

enum AppOp : std::size_t { kStart, kStop, kSnapshot, kRestore, kRejuvenate,
                           kAppOps };
enum MechOp : std::size_t { kAttach, kCheckpoint, kRecover, kMechOps };

/// Everything the decorated roster measured over one matrix sweep.
struct RosterTally {
  std::array<OpTally, kAppOps> app{};
  std::array<OpTally, kMechOps> mech{};
  /// Time spent in proxied app calls inside each mechanism hook.
  std::array<std::int64_t, kMechOps> mech_child_ns{};
  std::uint64_t recovered = 0;  ///< recover() calls that reported success
  OpTally trials;               ///< trial spans
  std::array<std::int64_t, 3> trial_ns_by_app{};   ///< core::AppId order
  std::vector<std::int64_t> trial_ns_by_mechanism; ///< roster order

  std::int64_t app_ns() const noexcept;
  std::int64_t mech_self_ns() const noexcept;
  std::int64_t trial_self_ns() const noexcept;
};

struct TrialTally;

/// A roster whose factories build timed wrappers around the given roster's
/// mechanisms. Factories may run concurrently on any lane; each finished
/// trial folds into the shared tally under a lock.
class TimedRoster {
 public:
  explicit TimedRoster(std::vector<harness::NamedMechanism> inner);

  // The factories capture `this`.
  TimedRoster(const TimedRoster&) = delete;
  TimedRoster& operator=(const TimedRoster&) = delete;

  const std::vector<harness::NamedMechanism>& roster() const noexcept {
    return roster_;
  }

  /// The tally since construction or the previous take(); resets it.
  RosterTally take();

 private:
  friend class TimedMechanism;
  void fold(const TrialTally& trial);

  std::vector<harness::NamedMechanism> inner_;
  std::vector<harness::NamedMechanism> roster_;
  std::mutex mutex_;
  RosterTally totals_;  // guarded by mutex_
};

}  // namespace faultstudy::bench
