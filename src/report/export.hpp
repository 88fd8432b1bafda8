// CSV and markdown export of study results, for downstream analysis.
#pragma once

#include <span>
#include <string>

#include "core/aggregate.hpp"

namespace faultstudy::report {

/// CSV field escaping per RFC 4180 (quotes doubled, fields with separators
/// quoted).
std::string csv_escape(std::string_view field);

/// One row per fault: id,app,class,trigger,bucket,title.
std::string faults_to_csv(std::span<const core::Fault> faults);

/// Markdown rendering of a class-count table (for READMEs and reports).
std::string counts_to_markdown(const core::ClassCounts& counts,
                               std::string_view caption);

}  // namespace faultstudy::report
