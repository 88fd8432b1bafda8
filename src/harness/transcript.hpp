// Trial transcripts: a structured, append-only record of what happened
// during a trial, for the examples and for post-mortem inspection of
// surprising matrix cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "env/clock.hpp"

namespace faultstudy::harness {

enum class EventKind : std::uint8_t {
  kStart,
  kItemOk,
  kFailure,
  kRecoveryBegin,
  kRecoveryOk,
  kRecoveryFailed,
  kVerdict,
  // -- resource-level events, the invariant checker's input
  //    (analysis/invariant_checker.hpp). `item` carries the count/pid/bytes
  //    noted per kind. --
  kFdOpen,       ///< item = descriptors acquired beyond the running balance
  kFdClose,      ///< item = descriptors released
  kProcSpawn,    ///< item = pid of the spawned process
  kProcKill,     ///< item = pid of the killed process
  kDiskWrite,    ///< item = bytes written
  kRollback,     ///< item = workload items rewound past
  kSignalRaise,  ///< item = pid the signal targets
};

struct Event {
  EventKind kind = EventKind::kStart;
  env::Tick at = 0;
  std::size_t item = 0;
  std::string detail;
};

class Transcript {
 public:
  void record(EventKind kind, env::Tick at, std::size_t item,
              std::string detail = {});

  const std::vector<Event>& events() const noexcept { return events_; }

  std::size_t count(EventKind kind) const noexcept;

  /// Multi-line human-readable rendering.
  std::string to_string() const;

 private:
  std::vector<Event> events_;
};

}  // namespace faultstudy::harness
