// Per-trial and per-study telemetry aggregates.
//
// TrialTelemetry is the single-threaded sink one trial writes into: plain
// counters, fixed-array tick histograms, and a sim-domain span tracer, so
// recording a trial allocates nothing beyond the span buffer's growth. A
// parallel matrix sweep gives each lane one TrialTelemetry, reset between
// trials, and keeps each cell's sum in a per-index slot; the slots are
// folded into a StudyTelemetry serially in index order, so the aggregate
// is bit-identical for every thread count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/counters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace faultstudy::telemetry {

/// Everything one trial records: the telemetry view of the observation bus
/// (obs::TrialSinks), which run_trial binds to the trial's clock.
struct TrialTelemetry {
  TrialCounters counters{};
  TickHistogram recovery_latency_ticks;  ///< env ticks per recovery attempt
  TickHistogram item_latency_ticks;      ///< env ticks per workload item
  SpanTracer spans;                      ///< sim domain

  /// Folds a repeat trial of the same matrix cell in: counters by their
  /// Fold, histograms summed. Spans are not merged; a cell keeps its first
  /// repeat's.
  void merge(const TrialTelemetry& other) noexcept;

  /// Back to a freshly constructed TrialTelemetry, keeping the span
  /// buffer's capacity, so one lane's telemetry serves trial after trial.
  void reset() noexcept;

  bool operator==(const TrialTelemetry&) const = default;
};

/// Registers and bumps registry metrics from one trial's aggregates (or a
/// sum of them), one kCounters row at a time. Resource and app counters
/// fold into global `env/...` and `app/...` metrics; recovery counters and
/// latency histograms fold under `recovery/<mechanism>/...` so
/// per-mechanism behavior stays visible. Sums are registered only when
/// non-zero, peaks always.
void fold_into(const TrialTelemetry& trial, std::string_view mechanism,
               MetricsRegistry& registry);

/// The study-wide aggregate the CLI exports: a metrics registry plus the
/// sim-domain traces worth keeping (one representative trial per matrix
/// cell — full traces for every repeat would dwarf the results), each
/// labeled "mechanism/fault-id" for the Chrome export's thread names.
struct StudyTelemetry {
  MetricsRegistry metrics;
  std::vector<std::pair<std::string, SpanTracer>> traces;
};

}  // namespace faultstudy::telemetry
