// Per-trial and per-study telemetry aggregates.
//
// TrialTelemetry is the single-threaded sink one trial writes into: plain
// counters, tick histograms, and a sim-domain span tracer. A parallel matrix
// sweep allocates one TrialTelemetry per cell in a per-index slot and folds
// them into a StudyTelemetry serially in index order, so the aggregate is
// bit-identical for every thread count.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/counters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::telemetry {

/// Everything one trial records: the telemetry view of the observation bus
/// (obs::TrialSinks), which run_trial binds to the trial's clock.
struct TrialTelemetry {
  TrialTelemetry();

  TrialCounters counters{};
  Histogram recovery_latency_ticks;  ///< env ticks per recovery attempt
  Histogram item_latency_ticks;      ///< env ticks per workload item
  SpanTracer spans;                  ///< sim domain
};

/// Registers and bumps registry metrics from one trial's aggregates, one
/// kCounters row at a time. Resource and app counters fold into global
/// `env/...` and `app/...` metrics; recovery counters and latency histograms
/// fold under `recovery/<mechanism>/...` so per-mechanism behavior stays
/// visible. Sums are registered only when non-zero, peaks always.
void fold_into(const TrialTelemetry& trial, std::string_view mechanism,
               MetricsRegistry& registry);

/// The study-wide aggregate the CLI exports: a metrics registry plus the
/// sim-domain traces worth keeping (one representative trial per matrix
/// cell — full traces for every repeat would dwarf the results).
struct StudyTelemetry {
  MetricsRegistry metrics;
  std::vector<std::pair<std::string, SpanTracer>> traces;

  /// Folds one trial. `trace_label` names the trace thread in the Chrome
  /// export (e.g. "rollback_retry/web-fd-leak"); pass keep_trace = false to
  /// fold metrics only.
  void fold_trial(std::string_view mechanism, std::string_view trace_label,
                  TrialTelemetry&& trial, bool keep_trace);
};

/// Wall-domain self-profile of a mining pipeline run: steady-clock stage
/// spans plus funnel/throughput metrics. Real measurements — excluded from
/// determinism comparisons by construction.
struct PipelineTelemetry {
  PipelineTelemetry() { spans.bind_wall(); }

  SpanTracer spans;
  MetricsRegistry metrics;
  util::PoolStats pool;  ///< executor profile of the pipeline's sweeps
};

/// Folds wall-domain executor stats into a registry under `prefix`:
/// per-pool counters (sweeps, chunks, indices, busy-micros), a max-pending
/// queue-depth gauge, and the chunk wall-latency histogram (log2-µs
/// buckets) summed over lanes.
void fold_pool_stats(const util::PoolStats& stats, std::string_view prefix,
                     MetricsRegistry& registry);

}  // namespace faultstudy::telemetry
