#include "env/entropy.hpp"

#include <algorithm>

namespace faultstudy::env {

void EntropyPool::settle(Tick now) const noexcept {
  if (now <= last_) return;
  const std::uint64_t gained =
      static_cast<std::uint64_t>(now - last_) * refill_per_tick_;
  bits_ = std::min(kPoolMax, bits_ + gained);
  last_ = now;
}

std::uint64_t EntropyPool::bits(Tick now) const noexcept {
  settle(now);
  return bits_;
}

bool EntropyPool::take(std::uint64_t want, Tick now) noexcept {
  settle(now);
  obs::emit(sinks_, obs::Event::kEntropyRead);
  if (bits_ < want) {
    obs::emit(sinks_, obs::Event::kEntropyBlocked, want, bits_);
    return false;
  }
  bits_ -= want;
  obs::emit(sinks_, obs::Event::kEntropyTaken, want);
  return true;
}

void EntropyPool::drain_to(std::uint64_t target, Tick now) noexcept {
  settle(now);
  bits_ = std::min(bits_, target);
}

}  // namespace faultstudy::env
