#include "env/environment.hpp"

namespace faultstudy::env {

Environment::Environment(const EnvironmentConfig& config)
    : config_(config),
      processes_(config.process_slots),
      fds_(config.fd_slots),
      disk_(config.disk_capacity, config.max_file_size),
      scheduler_(config.seed),
      entropy_(config.entropy_bits, config.entropy_refill_per_tick) {}

void Environment::bind_sinks(const obs::TrialSinks* sinks) noexcept {
  sinks_ = sinks;
  processes_.bind_sinks(sinks);
  fds_.bind_sinks(sinks);
  disk_.bind_sinks(sinks);
  dns_.bind_sinks(sinks);
  network_.bind_sinks(sinks);
  scheduler_.bind_sinks(sinks);
  entropy_.bind_sinks(sinks);
  signals_.bind_sinks(sinks);
}

}  // namespace faultstudy::env
