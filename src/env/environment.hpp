// The operating environment: "states or events that occur outside of the
// application being studied" (Section 3 of the paper).
//
// Everything a fault's trigger condition can depend on lives here: the
// kernel's process and descriptor tables, the file system, DNS, the network,
// the thread scheduler, the entropy pool, signal delivery, the host's name,
// and wall-clock time. Given a fixed environment, the simulated applications
// are completely deterministic [Dijkstra72]; every non-deterministic
// behaviour in the harness is a read of this object.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "env/clock.hpp"
#include "env/disk.hpp"
#include "env/dns.hpp"
#include "env/entropy.hpp"
#include "env/fd_table.hpp"
#include "env/network.hpp"
#include "env/process_table.hpp"
#include "env/scheduler.hpp"
#include "env/signals.hpp"
#include "env/trace.hpp"
#include "obs/bus.hpp"

namespace faultstudy::env {

struct EnvironmentConfig {
  std::uint64_t seed = 1;
  std::size_t process_slots = 64;
  std::size_t fd_slots = 256;
  std::uint64_t disk_capacity = 1ull << 30;      ///< 1 GiB
  std::uint64_t max_file_size = 1ull << 26;      ///< 64 MiB ("2GB limit" scaled)
  std::uint64_t entropy_bits = 4096;
  std::uint64_t entropy_refill_per_tick = 8;
};

class Environment {
 public:
  explicit Environment(const EnvironmentConfig& config = {});

  // Subsystems.
  VirtualClock& clock() noexcept { return clock_; }
  const VirtualClock& clock() const noexcept { return clock_; }
  ProcessTable& processes() noexcept { return processes_; }
  FdTable& fds() noexcept { return fds_; }
  Disk& disk() noexcept { return disk_; }
  DnsServer& dns() noexcept { return dns_; }
  Network& network() noexcept { return network_; }
  Scheduler& scheduler() noexcept { return scheduler_; }
  EntropyPool& entropy() noexcept { return entropy_; }
  SignalBus& signals() noexcept { return signals_; }
  /// Synchronization-event log for happens-before analysis; disabled by
  /// default (see env/trace.hpp).
  TraceLog& trace() noexcept { return trace_; }
  const TraceLog& trace() const noexcept { return trace_; }

  Tick now() const noexcept { return clock_.now(); }

  /// Advances virtual time. Transient subsystem states (broken DNS, slow
  /// network) expire on their own deadlines; the entropy pool refills.
  void advance(Tick ticks) noexcept { clock_.advance(ticks); }

  const std::string& hostname() const noexcept { return hostname_; }
  void set_hostname(std::string name) { hostname_ = std::move(name); }

  const EnvironmentConfig& config() const noexcept { return config_; }

  /// Binds the per-trial observation sinks into every subsystem; apps and
  /// recovery mechanisms emit through emit(). Pass nullptr to detach (the
  /// default state). The sinks must outlive the binding.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept;

  /// The bound sinks, or nullptr when nothing observes this environment.
  const obs::TrialSinks* sinks() const noexcept { return sinks_; }

  /// One hook site: applies `event` to whatever views are bound.
  void emit(obs::Event event, std::uint64_t a = 0,
            std::uint64_t b = 0) const noexcept {
    obs::emit(sinks_, event, a, b);
  }

 private:
  EnvironmentConfig config_;
  VirtualClock clock_;
  ProcessTable processes_;
  FdTable fds_;
  Disk disk_;
  DnsServer dns_;
  Network network_;
  Scheduler scheduler_;
  EntropyPool entropy_;
  SignalBus signals_;
  TraceLog trace_;
  std::string hostname_ = "production-host";
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
