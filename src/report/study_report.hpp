// One-call study report: runs the full methodology (three corpora through
// the mining pipeline, the recovery matrix on the mined faults' seeds) and
// renders everything the paper reports as a single markdown document —
// tables 1-3, the discussion aggregates, figure series, and the recovery
// experiment.
//
// This is the library's "reproduce the paper" button: `faultstudy_cli
// report <out.md>` runs it, renders the markdown and writes Figures 1-3 as
// SVG.
#pragma once

#include <string>

#include "core/aggregate.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "mining/pipeline.hpp"
#include "obs/atlas.hpp"
#include "telemetry/metrics.hpp"

namespace faultstudy::report {

struct StudyResults {
  mining::PipelineResult apache;
  mining::PipelineResult gnome;
  mining::PipelineResult mysql;
  std::vector<core::Fault> all_faults;
  core::StudySummary summary;
  /// The recovery matrix at 3 repeats per cell, with every view attached.
  harness::MatrixResult matrix;
  /// Matrix telemetry folded across every trial.
  telemetry::MetricsSnapshot telemetry;
  /// Post-mortems from every failed matrix trial and their triage clusters.
  forensics::StudyForensics forensics;
  std::vector<forensics::TriageCluster> triage;
  /// Coverage atlas folded from every matrix trial.
  obs::CoverageAtlas coverage;
};

/// Runs everything. Deterministic in the corpus/matrix seeds.
StudyResults run_full_study();

/// Renders the results as markdown.
std::string render_markdown(const StudyResults& results);

}  // namespace faultstudy::report
