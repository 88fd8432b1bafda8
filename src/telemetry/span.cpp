#include "telemetry/span.hpp"

namespace faultstudy::telemetry {

std::int64_t SpanTracer::now() const noexcept {
  return sim_ != nullptr ? sim_->now() : 0;
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
