// The plain per-trial counter structs the observation bus (obs/bus.hpp)
// bumps: every TrialCounters field is named by at least one row of the bus's
// event table.
//
// Everything in this header is a plain struct of integers. A trial is
// single-threaded, so increments need no atomics; parallel sweeps give every
// trial its own struct in a per-index slot and merge serially in index order
// (the executor's determinism contract, DESIGN.md §8), which is what keeps
// aggregated telemetry bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace faultstudy::telemetry {

/// What the simulated environment's resources did during one trial.
struct ResourceCounters {
  // Process table.
  std::uint64_t proc_spawns = 0;
  std::uint64_t proc_spawn_failures = 0;  ///< table full
  std::uint64_t proc_kills = 0;
  std::uint64_t procs_marked_hung = 0;
  std::uint64_t peak_procs = 0;
  // Descriptor table.
  std::uint64_t fds_acquired = 0;
  std::uint64_t fd_acquire_failures = 0;  ///< pool exhausted
  std::uint64_t fds_released = 0;
  std::uint64_t peak_fds = 0;
  // Disk.
  std::uint64_t disk_writes = 0;
  std::uint64_t disk_bytes_written = 0;
  std::uint64_t disk_write_failures = 0;  ///< no space / file-size limit
  std::uint64_t disk_truncates = 0;
  std::uint64_t peak_disk_used = 0;
  // DNS.
  std::uint64_t dns_lookups = 0;
  std::uint64_t dns_errors = 0;
  std::uint64_t dns_slow_replies = 0;
  std::uint64_t dns_reverse_misses = 0;
  // Network.
  std::uint64_t port_binds = 0;
  std::uint64_t port_bind_failures = 0;
  std::uint64_t ports_released = 0;
  std::uint64_t kernel_resource_denied = 0;
  // Scheduler.
  std::uint64_t sched_draws = 0;
  std::uint64_t sched_replays = 0;  ///< replay bias reproduced the last draw
  // Entropy pool.
  std::uint64_t entropy_reads = 0;
  std::uint64_t entropy_blocked = 0;  ///< read wanted more bits than held
  std::uint64_t entropy_bits_taken = 0;

  bool operator==(const ResourceCounters&) const = default;
};

/// What the recovery machinery did during one trial: the trial runner's
/// attempts/outcomes plus each mechanism's own actions.
struct RecoveryCounters {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t items_rewound = 0;  ///< rollback depth, summed over recoveries
  std::uint64_t checkpoints = 0;
  std::uint64_t failovers = 0;            ///< process-pairs backup promotions
  std::uint64_t cold_restarts = 0;        ///< lossy stop+start cycles
  std::uint64_t rejuvenation_cycles = 0;  ///< reactive rejuvenation passes
  std::uint64_t proactive_rejuvenations = 0;  ///< scheduled (quiescent) passes
  std::uint64_t retries_sanitized = 0;  ///< wrapper rejected a killer input

  bool operator==(const RecoveryCounters&) const = default;
};

/// What the simulated application did during one trial, beyond the
/// harness-level outcome fields.
struct AppCounters {
  std::uint64_t requests_served = 0;  ///< web server
  std::uint64_t cache_fills = 0;
  std::uint64_t cgi_children = 0;
  std::uint64_t queries_ok = 0;  ///< database
  std::uint64_t ui_events = 0;   ///< desktop

  bool operator==(const AppCounters&) const = default;
};

/// The per-trial counter view of the observation bus.
struct TrialCounters {
  ResourceCounters resources;
  RecoveryCounters recovery;
  AppCounters app;

  bool operator==(const TrialCounters&) const = default;
};

/// Field-wise sum (for folding repeat trials of one matrix cell together).
void merge(ResourceCounters& into, const ResourceCounters& from) noexcept;
void merge(RecoveryCounters& into, const RecoveryCounters& from) noexcept;
void merge(AppCounters& into, const AppCounters& from) noexcept;
void merge(TrialCounters& into, const TrialCounters& from) noexcept;

}  // namespace faultstudy::telemetry
