// One-call study report: runs the full methodology (three corpora through
// the mining pipeline, the recovery matrix on the mined faults' seeds) and
// renders everything the paper reports as a single markdown document —
// tables 1-3, the discussion aggregates, figure series, and the recovery
// experiment.
//
// This is the library's "reproduce the paper" button: `faultstudy_cli
// report <out.md>` runs it, renders the markdown and writes Figures 1-3 as
// SVG. The pieces are exposed so callers can render subsets.
#pragma once

#include <string>

#include "core/aggregate.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "mining/pipeline.hpp"
#include "obs/atlas.hpp"
#include "telemetry/metrics.hpp"

namespace faultstudy::report {

struct StudyReportOptions {
  bool include_figures = true;
  bool include_recovery_matrix = true;
  bool include_funnels = true;
  /// Run the matrix instrumented and render its folded telemetry snapshot
  /// (simulated-clock domain, so the section is deterministic).
  bool include_telemetry = true;
  /// Run the matrix with flight recorders attached and render the failure-
  /// forensics section (post-mortem counts and triage clusters).
  bool include_forensics = true;
  /// Run the matrix with coverage probes folded into an atlas and render
  /// the coverage section (probe totals, taxonomy cells, blind spots).
  bool include_coverage = true;
  /// Matrix repeats per (fault, mechanism) cell.
  int matrix_repeats = 3;
};

struct StudyResults {
  mining::PipelineResult apache;
  mining::PipelineResult gnome;
  mining::PipelineResult mysql;
  std::vector<core::Fault> all_faults;
  core::StudySummary summary;
  harness::MatrixResult matrix;  ///< empty when the option is off
  /// Matrix telemetry folded across every trial (empty when either the
  /// matrix or the telemetry option is off).
  telemetry::MetricsSnapshot telemetry;
  /// Post-mortems from every failed matrix trial and their triage clusters
  /// (empty when either the matrix or the forensics option is off).
  forensics::StudyForensics forensics;
  std::vector<forensics::TriageCluster> triage;
  /// Coverage atlas folded from every matrix trial (empty when either the
  /// matrix or the coverage option is off).
  obs::CoverageAtlas coverage;
};

/// Runs everything. Deterministic in the corpus/matrix seeds.
StudyResults run_full_study(const StudyReportOptions& options = {});

/// Renders the results as markdown.
std::string render_markdown(const StudyResults& results,
                            const StudyReportOptions& options = {});

}  // namespace faultstudy::report
