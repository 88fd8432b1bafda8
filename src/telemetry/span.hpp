// Span tracing on the simulated clock.
//
// Timestamps come from the trial's env::VirtualClock. Virtual time is part
// of the deterministic simulation state, so spans are bit-identical across
// thread counts and replayable from a seed; they are what --trace exports.
//
// A tracer is single-writer: one trial owns it. A parallel matrix gives
// each lane one tracer, reset between trials, and each cell keeps a copy of
// its first repeat's spans in a per-index slot; the fold appends those in
// index order.
//
// Span names are views, never copies: a name must have static storage
// duration (a string literal, or a name interned for the life of the
// process), so opening a span never allocates for its name.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "env/clock.hpp"

namespace faultstudy::telemetry {

struct Span {
  std::string_view name;  ///< static storage, see above
  std::int64_t start = 0;     ///< simulated ticks
  std::int64_t duration = 0;  ///< same unit as start
  std::uint32_t depth = 0;    ///< nesting level at open, 0 = root

  bool operator==(const Span&) const = default;
};

class SpanTracer {
 public:
  SpanTracer() = default;

  /// Timestamps subsequent spans with the simulated clock. The clock must
  /// outlive the tracer's recording phase.
  void bind_sim(const env::VirtualClock* clock) noexcept { sim_ = clock; }

  /// An unbound tracer records nothing; SpanScope checks this once.
  bool bound() const noexcept { return sim_ != nullptr; }

  std::int64_t now() const noexcept;

  /// Opens a span and returns its index; close() stamps the duration.
  /// `name` must have static storage duration.
  std::size_t open(std::string_view name);
  void close(std::size_t index) noexcept;

  const std::vector<Span>& spans() const noexcept { return spans_; }
  bool empty() const noexcept { return spans_.empty(); }
  /// Back to a fresh, unbound tracer; the span buffer keeps its capacity.
  void reset() noexcept {
    spans_.clear();
    depth_ = 0;
    sim_ = nullptr;
  }

  bool operator==(const SpanTracer&) const = default;

 private:
  const env::VirtualClock* sim_ = nullptr;
  std::uint32_t depth_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction when the tracer is non-null and bound,
/// closes on destruction. Cheap enough for per-recovery granularity; not
/// meant for per-item inner loops (keep spans coarse — see DESIGN.md).
class SpanScope {
 public:
  SpanScope(SpanTracer* tracer, std::string_view name)
      : tracer_(tracer != nullptr && tracer->bound() ? tracer : nullptr) {
    if (tracer_ != nullptr) index_ = tracer_->open(name);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanTracer* tracer_ = nullptr;
  std::size_t index_ = 0;
};

#define TELEM_SPAN_CAT2(a, b) a##b
#define TELEM_SPAN_CAT(a, b) TELEM_SPAN_CAT2(a, b)

// TELEM_SPAN(tracer_ptr, "recovery/rollback"): scoped span tied to the
// enclosing block; a null tracer records nothing.
#define TELEM_SPAN(tracer, name)                 \
  ::faultstudy::telemetry::SpanScope TELEM_SPAN_CAT( \
      telem_span_, __LINE__)((tracer), (name))

}  // namespace faultstudy::telemetry
