// SVG rendering of the study's figures: stacked per-bucket bars, one file
// per figure, no external dependencies. The output opens in any browser,
// which is how downstream users will actually look at Figures 1-3.
#pragma once

#include <span>
#include <string>

#include "stats/series.hpp"

namespace faultstudy::report {

/// Renders a 640x360 vertical stacked-bar chart of the series with a class
/// legend (EI blue, EDN amber, EDT red).
std::string render_svg(std::span<const stats::SeriesPoint> series,
                       std::string_view title);

/// Escapes XML-special characters in text content.
std::string xml_escape(std::string_view text);

}  // namespace faultstudy::report
