// Rendering of the detector-vs-taxonomy oracle cross-check
// (harness::run_oracle_crosscheck): the confusion table between race-labeled
// specimens and happens-before detector firings.
#pragma once

#include <string>

#include "harness/experiment.hpp"

namespace faultstudy::report {

/// Fixed-width confusion table:
///
///   | specimen label        | detector fired | detector silent |
///   |-----------------------|----------------|-----------------|
///   | race (EDT)            |              4 |               0 |
///   | other transient (EDT) |              0 |               8 |
///   ...
std::string render_oracle_confusion(const harness::OracleReport& report);

}  // namespace faultstudy::report
