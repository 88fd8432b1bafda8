// One-call study report: runs the full methodology (three corpora through
// the mining pipeline, the recovery matrix on the mined faults' seeds) and
// renders everything the paper reports as a single markdown document —
// tables 1-3, the discussion aggregates, figure series, and the recovery
// experiment.
//
// This is the library's "reproduce the paper" button: `faultstudy_cli
// report <out.md>` runs it, renders the markdown and writes Figures 1-3 as
// SVG.
//
// StudyExports is the one place the attached recovery matrix becomes
// documents: `faultstudy_cli matrix`, the report and the export golden
// all read it, so each document's bytes depend only on the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "mining/pipeline.hpp"
#include "obs/atlas.hpp"
#include "obs/baseline.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"

namespace faultstudy::report {

/// The standard mechanisms over every seed, run once with telemetry,
/// forensics and coverage attached. The atlas gauges are published before
/// the metrics snapshot is taken, so every document sees coverage.
struct StudyExports {
  StudyExports(const harness::TrialConfig& config, int repeats);

  std::vector<corpus::SeedFault> seeds;
  std::uint64_t seed;  ///< the base trial seed
  int repeats;         ///< trials per (mechanism, seed) cell
  harness::MatrixResult matrix;
  telemetry::StudyTelemetry telemetry;  ///< registry and kept span tracers
  telemetry::MetricsSnapshot metrics;   ///< taken after the atlas gauges
  forensics::StudyForensics forensics;
  std::vector<forensics::TriageCluster> triage;
  obs::CoverageAtlas coverage;

  /// One timeline row per kept span tracer, for telemetry::to_chrome_trace.
  std::vector<telemetry::TraceThread> trace_threads() const;
  /// The post-mortem explorer, with each mechanism's success row.
  std::string explorer() const;
  /// The triage table: failure signatures by cluster size.
  std::string triage_text() const;
  /// The study snapshot that `--snapshot` writes and `--baseline` diffs.
  obs::StudySnapshot snapshot() const;
};

struct StudyResults {
  mining::PipelineResult apache;
  mining::PipelineResult gnome;
  mining::PipelineResult mysql;
  std::vector<core::Fault> all_faults;
  core::StudySummary summary;
  /// The recovery matrix at 3 repeats per cell, at the default trial seed.
  StudyExports exports;
};

/// Runs everything. Deterministic in the corpus/matrix seeds.
StudyResults run_full_study();

/// Renders the results as markdown.
std::string render_markdown(const StudyResults& results);

}  // namespace faultstudy::report
