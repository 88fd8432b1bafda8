// The observation bus: one typed event per hook site, one per-trial sink.
//
// Every interesting simulator event — an environment denial, an application
// state change, a recovery action, a step of the harness protocol — is
// emitted exactly once: `obs::emit(sinks_, Event::kDiskNoSpace, bytes,
// used)`. A static per-event table (kEventTable) derives every view from
// that one record:
//
//   * telemetry: TrialCounters slots (telemetry/counters.hpp) to bump (+1),
//     sum (+a or +b) or peak (max with b), and a TrialTelemetry latency
//     histogram fed with a;
//   * forensics: the FlightCode appended to the flight-recorder ring with
//     operands (a, b);
//   * coverage: the structural Site to hit, or a probe indexed by a (the
//     trial verdict's site, the armed trigger's inject-plane slot).
//
// Cost model (DESIGN.md §9): with no sink bound a hook site is one
// `ptr != nullptr` branch; with a sink bound it is one table row applied to
// whichever views are attached. There is no compile-out switch.
//
// Determinism contract: a trial is single-threaded and owns its sinks, so
// every view is simulation state and bit-identical for every `--threads`
// value. No view records which lane ran the trial.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "forensics/recorder.hpp"
#include "obs/probes.hpp"
#include "telemetry/trial.hpp"

namespace faultstudy::obs {

/// One enumerator per distinct hook. Operands `a`/`b` are documented per
/// event; events that carry a FlightCode use that code's operands.
enum class Event : std::uint8_t {
  // -- environment: process table --
  kProcSpawnDenied = 0,   ///< a = table capacity
  kProcSpawned,           ///< a = pid, b = processes in the table
  kProcKilled,            ///< a = processes killed
  kProcHung,              ///< a = pid
  // -- environment: descriptors --
  kFdDenied,              ///< a = descriptors wanted, b = in use
  kFdAcquired,            ///< a = descriptors acquired, b = in use
  kFdReleased,            ///< a = descriptors released
  // -- environment: disk --
  kDiskNoSpace,           ///< a = bytes wanted, b = bytes used
  kDiskFileTooBig,        ///< a = bytes wanted, b = per-file limit
  kDiskWrite,             ///< a = bytes written, b = bytes used
  kDiskTruncate,
  // -- environment: DNS --
  kDnsBroken,             ///< a = env::DnsHealth forced, b = heals-at tick
  kDnsLookup,
  kDnsError,
  kDnsSlow,
  kDnsReverseMiss,
  // -- environment: network --
  kLinkDegraded,          ///< a = env::LinkState forced, b = heals-at tick
  kCardRemoved,
  kPortBound,
  kPortDenied,            ///< a = port
  kPortReleased,          ///< a = ports released
  kKernelResourceDenied,  ///< a = units wanted, b = units available
  // -- environment: scheduler, entropy, signals --
  kSchedDraw,
  kSchedReplay,
  kEntropyRead,
  kEntropyBlocked,        ///< a = bits wanted, b = bits held
  kEntropyTaken,          ///< a = bits taken
  kSignalRaised,          ///< a = env::Signal, b = deliver-at tick
  // -- applications --
  kAppStarted,            ///< a = worker processes spawned
  kAppStopped,
  kAppRestored,
  kAppChildSpawned,       ///< a = pid
  kWebCgiChild,           ///< a = pid
  kWebCacheFill,
  kWebRequest,
  kDbQuery,
  kUiEvent,
  // -- recovery mechanisms --
  kCheckpoint,
  kFailover,
  kColdRestart,
  kRejuvenation,
  kProactiveRejuvenation, ///< a = 1 (the flight record's proactive flag)
  kRetrySanitized,        ///< a = work item id
  kSweep,
  // -- harness protocol --
  kTrialStart,            ///< a = workload items per cycle, b = cycles
  kFaultArmed,            ///< a = core::Trigger, b = core::Symptom
  kEnvArmed,
  kAttached,
  kItemDone,              ///< a = item latency in ticks
  kItemFailed,            ///< a = item index, b = apps::StepStatus
  kRecoveryBegin,         ///< a = item index
  kRecoveryDone,          ///< a = recovery latency in ticks
  kRollback,              ///< a = items rewound past
  kRecoveryFailed,        ///< a = item index
  kRecoveryOk,            ///< a = item index, b = items rewound
  kVerdict,               ///< a = forensics::TrialVerdict

  kCount,  // sentinel
};

inline constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::kCount);

/// An EventRow counter slot that moves no counter.
inline constexpr std::size_t kNoCounter = telemetry::kNumCounters;

/// Which coverage probe an event hits.
enum class ProbeKind : std::uint8_t {
  kSite,       ///< `site`, unless it is Site::kCount (no probe)
  kSiteAtA,    ///< `site` + a (a contiguous Site section)
  kInjectAtA,  ///< inject-plane slot a (a core::Trigger)
};

/// Everything one event means to each view; unset members mean "no effect
/// on that view". Counter slots index telemetry::kCounters and are written
/// as telemetry::counter_index("<metric name>").
struct EventRow {
  std::size_t inc = kNoCounter;     ///< += 1
  std::size_t add_a = kNoCounter;   ///< += a
  std::size_t add_b = kNoCounter;   ///< += b
  std::size_t peak_b = kNoCounter;  ///< = max(counter, b)
  telemetry::TickHistogram telemetry::TrialTelemetry::*observe_a = nullptr;
  forensics::FlightCode flight = forensics::FlightCode::kCount;
  Site site = Site::kCount;
  ProbeKind probe = ProbeKind::kSite;
};

namespace detail {

constexpr std::array<EventRow, kNumEvents> make_event_table() {
  using E = Event;
  using F = forensics::FlightCode;
  using T = telemetry::TrialTelemetry;
  using telemetry::counter_index;
  std::array<EventRow, kNumEvents> t{};
  const auto at = [&t](E e) -> EventRow& {
    return t[static_cast<std::size_t>(e)];
  };

  at(E::kProcSpawnDenied) = {.inc = counter_index("env/proc/spawn_failures"),
                             .flight = F::kProcTableFull,
                             .site = Site::kEnvProcSpawnDenied};
  at(E::kProcSpawned) = {.inc = counter_index("env/proc/spawns"),
                         .peak_b = counter_index("env/proc/peak")};
  at(E::kProcKilled) = {.add_a = counter_index("env/proc/kills")};
  at(E::kProcHung) = {.inc = counter_index("env/proc/marked_hung"),
                      .flight = F::kProcHung,
                      .site = Site::kEnvProcHung};

  at(E::kFdDenied) = {.inc = counter_index("env/fd/acquire_failures"),
                      .flight = F::kFdExhausted,
                      .site = Site::kEnvFdDenied};
  at(E::kFdAcquired) = {.add_a = counter_index("env/fd/acquired"),
                        .peak_b = counter_index("env/fd/peak")};
  at(E::kFdReleased) = {.add_a = counter_index("env/fd/released")};

  at(E::kDiskNoSpace) = {.inc = counter_index("env/disk/write_failures"),
                         .flight = F::kDiskFull,
                         .site = Site::kEnvDiskNoSpace};
  at(E::kDiskFileTooBig) = {.inc = counter_index("env/disk/write_failures"),
                            .flight = F::kFileSizeLimit,
                            .site = Site::kEnvDiskFileTooBig};
  at(E::kDiskWrite) = {.inc = counter_index("env/disk/writes"),
                       .add_a = counter_index("env/disk/bytes_written"),
                       .peak_b = counter_index("env/disk/peak_used")};
  at(E::kDiskTruncate) = {.inc = counter_index("env/disk/truncates")};

  at(E::kDnsBroken) = {.flight = F::kDnsBroken, .site = Site::kEnvDnsBroken};
  at(E::kDnsLookup) = {.inc = counter_index("env/dns/lookups")};
  at(E::kDnsError) = {.inc = counter_index("env/dns/errors"),
                      .site = Site::kEnvDnsError};
  at(E::kDnsSlow) = {.inc = counter_index("env/dns/slow_replies"),
                     .site = Site::kEnvDnsSlow};
  at(E::kDnsReverseMiss) = {.inc = counter_index("env/dns/reverse_misses"),
                            .site = Site::kEnvDnsReverseMiss};

  at(E::kLinkDegraded) = {.flight = F::kLinkDegraded,
                          .site = Site::kEnvLinkDegraded};
  at(E::kCardRemoved) = {.flight = F::kCardRemoved};
  at(E::kPortBound) = {.inc = counter_index("env/net/port_binds")};
  at(E::kPortDenied) = {.inc = counter_index("env/net/port_bind_failures"),
                        .flight = F::kPortDenied,
                        .site = Site::kEnvPortDenied};
  at(E::kPortReleased) = {.add_a = counter_index("env/net/ports_released")};
  at(E::kKernelResourceDenied) = {
      .inc = counter_index("env/net/kernel_resource_denied"),
      .flight = F::kKernelResourceDenied,
      .site = Site::kEnvKernelResourceDenied};

  at(E::kSchedDraw) = {.inc = counter_index("env/sched/draws")};
  at(E::kSchedReplay) = {.inc = counter_index("env/sched/replays"),
                         .site = Site::kEnvSchedReplay};
  at(E::kEntropyRead) = {.inc = counter_index("env/entropy/reads")};
  at(E::kEntropyBlocked) = {.inc = counter_index("env/entropy/blocked"),
                            .flight = F::kEntropyBlocked,
                            .site = Site::kEnvEntropyBlocked};
  at(E::kEntropyTaken) = {.add_a = counter_index("env/entropy/bits_taken")};
  at(E::kSignalRaised) = {.flight = F::kSignalRaised,
                          .site = Site::kEnvSignalRaised};

  at(E::kAppStarted) = {.flight = F::kAppStarted, .site = Site::kAppStarted};
  at(E::kAppStopped) = {.flight = F::kAppStopped, .site = Site::kAppStopped};
  at(E::kAppRestored) = {.site = Site::kAppRestored};
  at(E::kAppChildSpawned) = {.flight = F::kAppChildSpawned,
                             .site = Site::kAppChildSpawned};
  at(E::kWebCgiChild) = {.inc = counter_index("app/cgi_children"),
                         .flight = F::kAppChildSpawned,
                         .site = Site::kAppChildSpawned};
  at(E::kWebCacheFill) = {.inc = counter_index("app/cache_fills"),
                          .site = Site::kAppWebCacheFill};
  at(E::kWebRequest) = {.inc = counter_index("app/requests_served"),
                        .site = Site::kAppWebRequest};
  at(E::kDbQuery) = {.inc = counter_index("app/queries_ok"),
                     .site = Site::kAppDbQuery};
  at(E::kUiEvent) = {.inc = counter_index("app/ui_events"),
                     .site = Site::kAppUiEvent};

  at(E::kCheckpoint) = {.inc = counter_index("recovery/checkpoints"),
                        .flight = F::kCheckpoint,
                        .site = Site::kRecCheckpoint};
  at(E::kFailover) = {.inc = counter_index("recovery/failovers"),
                      .flight = F::kFailover,
                      .site = Site::kRecFailover};
  at(E::kColdRestart) = {.inc = counter_index("recovery/cold_restarts"),
                         .flight = F::kColdRestart,
                         .site = Site::kRecColdRestart};
  at(E::kRejuvenation) = {.inc = counter_index("recovery/rejuvenation_cycles"),
                          .flight = F::kRejuvenation,
                          .site = Site::kRecRejuvenation};
  at(E::kProactiveRejuvenation) = {
      .inc = counter_index("recovery/proactive_rejuvenations"),
      .flight = F::kRejuvenation,
      .site = Site::kRecProactiveRejuvenation};
  at(E::kRetrySanitized) = {.inc = counter_index("recovery/retries_sanitized"),
                            .flight = F::kRetrySanitized,
                            .site = Site::kRecRetrySanitized};
  at(E::kSweep) = {.site = Site::kRecSweep};

  at(E::kTrialStart) = {.flight = F::kTrialStart};
  at(E::kFaultArmed) = {.flight = F::kFaultArmed,
                        .probe = ProbeKind::kInjectAtA};
  at(E::kEnvArmed) = {.flight = F::kEnvArmed};
  at(E::kAttached) = {.site = Site::kRecAttach};
  at(E::kItemDone) = {.observe_a = &T::item_latency_ticks};
  at(E::kItemFailed) = {.flight = F::kItemFailed};
  at(E::kRecoveryBegin) = {.flight = F::kRecoveryBegin};
  at(E::kRecoveryDone) = {.inc = counter_index("recovery/attempts"),
                           .observe_a = &T::recovery_latency_ticks};
  at(E::kRollback) = {.flight = F::kRollback,
                      .site = Site::kRecRollbackRewind};
  at(E::kRecoveryFailed) = {.inc = counter_index("recovery/failures"),
                            .flight = F::kRecoveryFailed,
                            .site = Site::kRecRecoveryFailed};
  at(E::kRecoveryOk) = {.inc = counter_index("recovery/successes"),
                        .add_b = counter_index("recovery/items_rewound"),
                        .flight = F::kRecoveryOk,
                        .site = Site::kRecRecoveryOk};
  // The trial section of the Site enum mirrors forensics::TrialVerdict.
  at(E::kVerdict) = {.flight = F::kVerdict,
                     .site = Site::kTrialSurvived,
                     .probe = ProbeKind::kSiteAtA};
  return t;
}

}  // namespace detail

// kVerdict's probe relies on the trial section of Site mirroring
// forensics::TrialVerdict one-to-one.
static_assert(static_cast<std::size_t>(Site::kTrialRecoveryFailed) -
                  static_cast<std::size_t>(Site::kTrialSurvived) ==
              static_cast<std::size_t>(
                  forensics::TrialVerdict::kRecoveryFailed));
static_assert(static_cast<std::size_t>(Site::kTrialRecoveryFailed) + 1 ==
              kNumSites);

/// The per-event table every view is derived from, indexed by Event.
inline constexpr std::array<EventRow, kNumEvents> kEventTable =
    detail::make_event_table();

namespace detail {
constexpr bool rows_match_counter_folds() {
  using telemetry::Fold;
  const auto is = [](std::size_t slot, Fold fold) {
    return slot == kNoCounter || telemetry::kCounters[slot].fold == fold;
  };
  for (const EventRow& row : kEventTable) {
    if (!is(row.inc, Fold::kSum) || !is(row.add_a, Fold::kSum) ||
        !is(row.add_b, Fold::kSum) || !is(row.peak_b, Fold::kPeak)) {
      return false;
    }
  }
  return true;
}
}  // namespace detail
static_assert(detail::rows_match_counter_folds(),
              "peak_b must name a peak counter; inc/add_a/add_b a sum counter");

/// The one per-trial sink. Attach any subset of the views; a bus with none
/// attached should be bound as nullptr so hook sites skip it in one branch.
struct TrialSinks {
  telemetry::TrialTelemetry* telemetry = nullptr;
  forensics::FlightRecorder* flight = nullptr;
  CoverageMap* coverage = nullptr;

  bool any() const noexcept {
    return telemetry != nullptr || flight != nullptr || coverage != nullptr;
  }

  /// Applies `event`'s table row to every attached view.
  void emit(Event event, std::uint64_t a = 0,
            std::uint64_t b = 0) const noexcept {
    const EventRow& row = kEventTable[static_cast<std::size_t>(event)];
    if (telemetry != nullptr) {
      telemetry::TrialCounters& c = telemetry->counters;
      if (row.inc != kNoCounter) ++c[row.inc];
      if (row.add_a != kNoCounter) c[row.add_a] += a;
      if (row.add_b != kNoCounter) c[row.add_b] += b;
      if (row.peak_b != kNoCounter) c[row.peak_b] = std::max(c[row.peak_b], b);
      if (row.observe_a != nullptr) {
        (telemetry->*row.observe_a).observe(static_cast<std::int64_t>(a));
      }
    }
    if (flight != nullptr && row.flight != forensics::FlightCode::kCount) {
      flight->record(row.flight, a, b);
    }
    if (coverage != nullptr) {
      switch (row.probe) {
        case ProbeKind::kSite:
          if (row.site != Site::kCount) coverage->hit(row.site);
          break;
        case ProbeKind::kSiteAtA:
          coverage->hit(static_cast<Site>(static_cast<std::size_t>(row.site) +
                                          static_cast<std::size_t>(a)));
          break;
        case ProbeKind::kInjectAtA:
          coverage->hit_inject(static_cast<core::Trigger>(a));
          break;
      }
    }
  }
};

/// The hook-site form: one null check when no sink is bound. Kept apart
/// from TrialSinks::emit so the check inlines at every site even where the
/// row application does not.
inline void emit(const TrialSinks* sinks, Event event, std::uint64_t a = 0,
                 std::uint64_t b = 0) noexcept {
  if (sinks != nullptr) sinks->emit(event, a, b);
}

}  // namespace faultstudy::obs
