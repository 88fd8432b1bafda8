// Simulated /dev/random entropy pool.
//
// Reads drain the pool; environmental events (interrupts, input) refill it
// at a steady rate per tick. The apache-edt-07 fault blocks when a read
// wants more bits than the pool holds — transient because recovery takes
// time, and time refills the pool.
#pragma once

#include <cstdint>

#include "env/clock.hpp"
#include "obs/bus.hpp"

namespace faultstudy::env {

class EntropyPool {
 public:
  EntropyPool(std::uint64_t initial_bits, std::uint64_t refill_per_tick)
      : bits_(initial_bits), refill_per_tick_(refill_per_tick) {}

  std::uint64_t bits(Tick now) const noexcept;

  /// Attempts to take `want` bits at time `now`; false if insufficient
  /// (a real read would block — callers treat that as the failure).
  bool take(std::uint64_t want, Tick now) noexcept;

  /// Drops the pool to `bits` at `now` (arming the shortage condition).
  void drain_to(std::uint64_t bits, Tick now) noexcept;

  std::uint64_t refill_rate() const noexcept { return refill_per_tick_; }

  /// Per-trial observation sinks; nullptr (the default) records nothing.
  void bind_sinks(const obs::TrialSinks* sinks) noexcept { sinks_ = sinks; }

 private:
  void settle(Tick now) const noexcept;

  mutable std::uint64_t bits_;
  std::uint64_t refill_per_tick_;
  mutable Tick last_ = 0;
  const obs::TrialSinks* sinks_ = nullptr;
  static constexpr std::uint64_t kPoolMax = 4096;
};

}  // namespace faultstudy::env
