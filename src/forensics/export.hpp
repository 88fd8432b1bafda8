// Serialization of forensic artifacts: machine-readable JSON for tooling
// and a self-contained HTML study explorer for humans.
//
// Both renderers walk deterministic collections in deterministic order and
// never emit wall-clock time or floating-point formatting traps,
// so their output is byte-identical for every `--threads` value — the same
// contract the telemetry exporters honor.
//
// Both write in place: keys and markup are literals appended as they are,
// integers go in through std::to_chars and strings through the JSON or HTML
// escaper, all into the one output buffer with no per-field temporaries.
// The explorer buckets post-mortems by failure signature in one pass, so
// its cost is linear in the post-mortems, not clusters × post-mortems.
// ExportGolden.MatchesParentCommit pins the bytes of both.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "forensics/postmortem.hpp"
#include "forensics/triage.hpp"

namespace faultstudy::forensics {

/// Recovery-success context for the explorer's drill-down, built by the
/// caller from the matrix result (forensics itself only sees failures).
struct MechanismSuccessRow {
  std::string mechanism;
  bool generic = true;
  std::size_t survived = 0;  ///< cells survived across all fault classes
  std::size_t total = 0;     ///< cells where the fault was observed
  std::size_t state_losses = 0;
};

/// Full forensic dump: study totals, every post-mortem (chain, env state,
/// ring events), and the triage clusters. Written into one buffer reserved
/// from json_size_bound, so it is never regrown.
std::string to_json(const StudyForensics& study,
                    const std::vector<TriageCluster>& clusters);

/// An upper bound on to_json's output size, computed from the records:
/// each ring event exactly, every other record part at its widest.
std::size_t json_size_bound(const StudyForensics& study,
                            const std::vector<TriageCluster>& clusters);

/// Self-contained HTML study explorer: summary tiles, the triage table,
/// recovery success drill-down, and per-specimen causal timelines grouped
/// by cluster. No external assets; inline CSS and a few lines of JS.
std::string render_explorer_html(
    const StudyForensics& study, const std::vector<TriageCluster>& clusters,
    const std::vector<MechanismSuccessRow>& mechanisms,
    std::string_view title);

}  // namespace faultstudy::forensics
