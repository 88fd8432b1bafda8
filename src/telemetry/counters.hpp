// The per-trial counter vocabulary: one constexpr table (kCounters) is the
// only place a counter is declared. Each row holds the exported metric name
// and how repeat trials fold the counter. Everything else walks the table:
// TrialCounters is one array slot per row, merge() and fold_into()
// (telemetry/trial.hpp) loop over it, the observation bus's event rows
// (obs/bus.hpp) name the slot they bump, and the per-trial golden gate
// prints it in order. A new counter is one row here plus the bus row that
// bumps it.
//
// A trial is single-threaded, so increments need no atomics; parallel
// sweeps give every trial its own counters in a per-index slot and merge
// serially in index order (the executor's determinism contract, DESIGN.md
// §8), which is what keeps aggregated telemetry bit-identical across
// thread counts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace faultstudy::telemetry {

/// How repeat trials of one matrix cell fold a counter, and how fold_into
/// exports it.
enum class Fold : std::uint8_t {
  kSum,   ///< += ; a registry counter, registered only when non-zero
  kPeak,  ///< max ; a high-watermark, always registered as a registry gauge
};

struct CounterDef {
  /// Exported metric name. "env/" rows are the simulated environment's
  /// resources, "recovery/" rows the recovery machinery (fold_into exports
  /// them as "recovery/<mechanism>/..."), "app/" rows the application.
  std::string_view name;
  Fold fold = Fold::kSum;
};

inline constexpr CounterDef kCounters[] = {
    // Process table.
    {"env/proc/spawns"},
    {"env/proc/spawn_failures"},  // table full
    {"env/proc/kills"},
    {"env/proc/marked_hung"},
    {"env/proc/peak", Fold::kPeak},
    // Descriptor table.
    {"env/fd/acquired"},
    {"env/fd/acquire_failures"},  // pool exhausted
    {"env/fd/released"},
    {"env/fd/peak", Fold::kPeak},
    // Disk.
    {"env/disk/writes"},
    {"env/disk/bytes_written"},
    {"env/disk/write_failures"},  // no space / file-size limit
    {"env/disk/truncates"},
    {"env/disk/peak_used", Fold::kPeak},
    // DNS.
    {"env/dns/lookups"},
    {"env/dns/errors"},
    {"env/dns/slow_replies"},
    {"env/dns/reverse_misses"},
    // Network.
    {"env/net/port_binds"},
    {"env/net/port_bind_failures"},
    {"env/net/ports_released"},
    {"env/net/kernel_resource_denied"},
    // Scheduler.
    {"env/sched/draws"},
    {"env/sched/replays"},  // replay bias reproduced the last draw
    // Entropy pool.
    {"env/entropy/reads"},
    {"env/entropy/blocked"},  // read wanted more bits than held
    {"env/entropy/bits_taken"},

    // The trial runner's recovery attempts and outcomes.
    {"recovery/attempts"},
    {"recovery/successes"},
    {"recovery/failures"},
    {"recovery/items_rewound"},  // rollback depth, summed over recoveries
    // Each mechanism's own actions.
    {"recovery/checkpoints"},
    {"recovery/failovers"},                // process-pairs backup promotions
    {"recovery/cold_restarts"},            // lossy stop+start cycles
    {"recovery/rejuvenation_cycles"},      // reactive rejuvenation passes
    {"recovery/proactive_rejuvenations"},  // scheduled (quiescent) passes
    {"recovery/retries_sanitized"},        // wrapper rejected a killer input

    // The simulated application, beyond the harness-level outcome fields.
    {"app/requests_served"},  // web server
    {"app/cache_fills"},
    {"app/cgi_children"},
    {"app/queries_ok"},  // database
    {"app/ui_events"},   // desktop
};

inline constexpr std::size_t kNumCounters = std::size(kCounters);

/// Index of the counter named `name` in kCounters. A name the table does
/// not hold is a compile error at the call site.
consteval std::size_t counter_index(std::string_view name) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (kCounters[i].name == name) return i;
  }
  throw "counter_index: name not in kCounters";
}

namespace detail {
consteval bool counter_names_unique() {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (counter_index(kCounters[i].name) != i) return false;
  }
  return true;
}
}  // namespace detail
static_assert(detail::counter_names_unique(),
              "every kCounters row needs its own metric name");

/// The per-trial counter view of the observation bus, indexed by
/// counter_index("...").
using TrialCounters = std::array<std::uint64_t, kNumCounters>;

/// Folds repeat trials of one matrix cell: += for sums, max for peaks.
void merge(TrialCounters& into, const TrialCounters& from) noexcept;

}  // namespace faultstudy::telemetry
