// ASCII figures: stacked per-bucket bars reproducing Figures 1-3.
//
// Each bucket renders as one row; the bar stacks the three classes using
// distinct glyphs ('#': environment-independent, 'o': EDN, '*': EDT), so the
// two shape properties the paper highlights — growth across releases and a
// roughly constant EI share — are visible directly in terminal output.
#pragma once

#include <span>
#include <string>

#include "stats/series.hpp"

namespace faultstudy::report {

/// Two glyphs per fault, then the bucket's total; a glyph legend follows
/// the rows.
std::string render_stacked_bars(std::span<const stats::SeriesPoint> series,
                                std::string_view title);

}  // namespace faultstudy::report
