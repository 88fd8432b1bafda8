#include "env/scheduler.hpp"

#include <algorithm>
#include <cmath>

namespace faultstudy::env {

Interleaving Scheduler::draw() {
  obs::emit(sinks_, obs::Event::kSchedDraw);
  if (has_last_ && replay_bias_ > 0.0 && rng_.chance(replay_bias_)) {
    obs::emit(sinks_, obs::Event::kSchedReplay);
    return last_;
  }
  Interleaving i;
  i.raw = rng_.next_u64();
  i.phase = static_cast<double>(i.raw >> 11) * 0x1.0p-53;
  last_ = i;
  has_last_ = true;
  return i;
}

void Scheduler::set_replay_bias(double probability) noexcept {
  replay_bias_ = std::clamp(probability, 0.0, 1.0);
}

bool Scheduler::in_hazard_window(const Interleaving& i, double start,
                                 double width) noexcept {
  const double end = start + width;
  if (end <= 1.0) return i.phase >= start && i.phase < end;
  // Window wraps past 1.0.
  return i.phase >= start || i.phase < std::fmod(end, 1.0);
}

}  // namespace faultstudy::env
