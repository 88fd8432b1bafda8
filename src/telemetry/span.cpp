#include "telemetry/span.hpp"

namespace faultstudy::telemetry {

std::int64_t SpanTracer::now() const noexcept {
  if (sim_ != nullptr) return sim_->now();
  if (wall_) {
    const auto elapsed = std::chrono::steady_clock::now() - wall_epoch_;
    return std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
        .count();
  }
  return 0;
}

std::size_t SpanTracer::open(std::string_view name) {
  const std::size_t index = spans_.size();
  spans_.push_back({.name = name, .start = now(), .depth = depth_++});
  return index;
}

void SpanTracer::close(std::size_t index) noexcept {
  if (index >= spans_.size()) return;
  spans_[index].duration = now() - spans_[index].start;
  if (depth_ > 0) --depth_;
}

}  // namespace faultstudy::telemetry
