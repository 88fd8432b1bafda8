// Simulated kernel process table.
//
// Processes belong to an owner (an application id or the free-form "system")
// and may be marked hung. The paper's kProcessTableFull faults arise when an
// application's hung children consume every slot; generic recovery survives
// them because recovery kills all processes associated with the application.
//
// The table is one vector in ascending pid order. Pids only grow, so a spawn
// appends; a kill is a binary search and an erase. Once the vector's
// capacity covers the processes alive at once, spawning and killing
// allocate nothing, unless an owner name outgrows the small-string buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/bus.hpp"

namespace faultstudy::env {

using Pid = std::uint32_t;

struct Process {
  Pid pid = 0;
  std::string owner;
  bool hung = false;
};

class ProcessTable {
 public:
  explicit ProcessTable(std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return procs_.size(); }
  std::size_t available() const noexcept { return capacity_ - procs_.size(); }
  bool full() const noexcept { return procs_.size() >= capacity_; }

  /// Forks a process for `owner`; nullopt when the table is full.
  std::optional<Pid> spawn(std::string_view owner);

  /// True if the pid existed.
  bool kill(Pid pid);

  /// Marks a process hung (it stops making progress but keeps its slot and
  /// its ports).
  bool mark_hung(Pid pid);

  /// Kills every process owned by `owner`; returns how many died. This is
  /// the recovery-system action "kill all processes associated with the
  /// application".
  std::size_t kill_owned_by(std::string_view owner);

  std::size_t count_owned_by(std::string_view owner) const;
  std::size_t count_hung_owned_by(std::string_view owner) const;

  Process* find(Pid pid);
  const Process* find(Pid pid) const;

  /// Grows the table (dynamic kernel limits, Section 6.2 countermeasure).
  void grow(std::size_t extra) noexcept { capacity_ += extra; }

  /// All live pids owned by `owner`, ascending.
  std::vector<Pid> owned_by(std::string_view owner) const;

  /// Same, written into a caller-provided vector (cleared first) so hot
  /// observers can reuse one allocation across calls.
  void owned_by(std::string_view owner, std::vector<Pid>& out) const;

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  std::size_t capacity_;
  std::vector<Process> procs_;  ///< ascending pid
  Pid next_pid_ = 100;
  const obs::TrialSinks* sinks_ = nullptr;
};

}  // namespace faultstudy::env
