// Coverage-probe primitives: the probe site enumeration and the plain
// per-trial CoverageMap, the coverage view of the observation bus
// (obs/bus.hpp).
//
// A probe is the cheapest possible observation: "this branch ran". The atlas
// layer (obs/atlas.hpp) folds per-trial maps into a study-wide coverage
// atlas; an attached map costs one array-indexed increment per event whose
// bus row names a probe.
//
// Determinism contract: a trial is single-threaded and owns its CoverageMap;
// parallel sweeps give every matrix cell its own map in a per-index slot and
// merge serially in index order (DESIGN.md §8), so the folded atlas is
// bit-identical for every thread count. Every value is an integer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/taxonomy.hpp"

namespace faultstudy::obs {

/// Every structural coverage point the study claims to exercise, one
/// enumerator per distinct branch or state transition. Injectable fault
/// sites are NOT listed here — they are indexed by core::Trigger in the
/// CoverageMap's separate `inject` plane, one probe per arming recipe in
/// src/inject/registry.cpp.
enum class Site : std::uint16_t {
  // -- environment resource denial / failure branches --
  kEnvProcSpawnDenied = 0,  ///< process table full
  kEnvProcHung,             ///< a process stopped making progress
  kEnvFdDenied,             ///< descriptor pool exhausted
  kEnvDiskNoSpace,          ///< append refused: file system full
  kEnvDiskFileTooBig,       ///< append refused: per-file size limit
  kEnvDnsBroken,            ///< DNS forced into a non-healthy state
  kEnvDnsError,             ///< lookup returned an error
  kEnvDnsSlow,              ///< lookup answered past the latency budget
  kEnvDnsReverseMiss,       ///< reverse record not configured
  kEnvPortDenied,           ///< bind refused: port held by another owner
  kEnvKernelResourceDenied, ///< kernel network resource exhausted
  kEnvLinkDegraded,         ///< link forced slow or down
  kEnvSchedReplay,          ///< replay bias reproduced the last draw
  kEnvEntropyBlocked,       ///< read wanted more bits than the pool held
  kEnvSignalRaised,         ///< a signal was queued for delivery

  // -- application state transitions --
  kAppStarted,
  kAppStopped,
  kAppRestored,     ///< checkpoint state re-materialized
  kAppChildSpawned, ///< runaway/CGI child forked
  kAppWebRequest,   ///< web server served a request
  kAppWebCacheFill,
  kAppDbQuery,      ///< database answered a query
  kAppUiEvent,      ///< desktop handled a UI event

  // -- recovery-mechanism state-machine edges --
  kRecAttach,                 ///< mechanism attached to a running app
  kRecCheckpoint,             ///< state snapshot taken
  kRecRecoveryOk,             ///< recover() revived the app
  kRecRecoveryFailed,         ///< recover() itself failed
  kRecRollbackRewind,         ///< recovery rolled past completed items
  kRecFailover,               ///< process-pairs backup promotion
  kRecColdRestart,            ///< lossy stop+start cycle
  kRecRejuvenation,           ///< reactive rejuvenation pass
  kRecProactiveRejuvenation,  ///< scheduled (quiescent) pass
  kRecRetrySanitized,         ///< wrapper rejected a killer input
  kRecSweep,                  ///< kill-everything-owned sweep ran

  // -- trial verdict edges (the recovery protocol's terminal states) --
  kTrialSurvived,
  kTrialStartFailure,
  kTrialRetryCapExceeded,
  kTrialBudgetExhausted,
  kTrialRecoveryFailed,

  kCount,  // sentinel
};

inline constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kCount);

/// The per-trial probe sink. Two planes: structural sites (the Site enum)
/// and injectable fault sites (one per trigger recipe). Plain integer
/// arrays; a trial is single-threaded, so no atomics.
struct CoverageMap {
  std::array<std::uint64_t, kNumSites> sites{};
  std::array<std::uint64_t, core::kNumTriggers> inject{};

  void hit(Site site) noexcept {
    ++sites[static_cast<std::size_t>(site)];
  }
  void hit_inject(core::Trigger trigger) noexcept {
    ++inject[static_cast<std::size_t>(trigger)];
  }

  std::uint64_t count(Site site) const noexcept {
    return sites[static_cast<std::size_t>(site)];
  }
  std::uint64_t count_inject(core::Trigger trigger) const noexcept {
    return inject[static_cast<std::size_t>(trigger)];
  }

  /// Field-wise sum, for folding repeat trials of one matrix cell together
  /// and per-cell maps into the study atlas (serial, index order).
  void merge(const CoverageMap& other) noexcept {
    for (std::size_t i = 0; i < kNumSites; ++i) sites[i] += other.sites[i];
    for (std::size_t i = 0; i < core::kNumTriggers; ++i) {
      inject[i] += other.inject[i];
    }
  }

  /// Number of distinct probes (both planes) with at least one hit.
  std::size_t probes_hit() const noexcept {
    std::size_t n = 0;
    for (const std::uint64_t v : sites) n += v > 0 ? 1 : 0;
    for (const std::uint64_t v : inject) n += v > 0 ? 1 : 0;
    return n;
  }

  bool empty() const noexcept { return probes_hit() == 0; }

  bool operator==(const CoverageMap&) const = default;
};

/// Full probe universe: structural sites plus one injection site per
/// trigger. The atlas reports coverage as a fraction of this constant.
inline constexpr std::size_t kProbeUniverse =
    kNumSites + core::kNumTriggers;

}  // namespace faultstudy::obs
