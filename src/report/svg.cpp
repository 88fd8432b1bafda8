#include "report/svg.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace faultstudy::report {

std::string xml_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string render_svg(std::span<const stats::SeriesPoint> series,
                       std::string_view title) {
  constexpr int kWidth = 640;
  constexpr int kHeight = 360;
  constexpr int kBarGap = 8;
  // Class colors: EI, EDN, EDT.
  constexpr const char* kColors[3] = {"#4878a8", "#e8b04a", "#c85a54"};
  const int margin_left = 40;
  const int margin_top = 40;
  const int margin_bottom = 48;
  const int plot_w = kWidth - margin_left - 10;
  const int plot_h = kHeight - margin_top - margin_bottom;

  std::size_t max_total = 1;
  for (const auto& p : series) {
    max_total = std::max(max_total, p.counts.total());
  }

  std::string svg;
  svg += "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
         std::to_string(kWidth) + "\" height=\"" +
         std::to_string(kHeight) + "\">\n";
  svg += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  svg += "<text x=\"" + std::to_string(kWidth / 2) +
         "\" y=\"20\" text-anchor=\"middle\" font-family=\"sans-serif\" "
         "font-size=\"14\">" +
         xml_escape(title) + "</text>\n";

  const int n = static_cast<int>(series.size());
  if (n > 0) {
    const int bar_w =
        std::max(4, (plot_w - kBarGap * (n + 1)) / std::max(1, n));
    int x = margin_left + kBarGap;
    for (const auto& p : series) {
      int y = margin_top + plot_h;
      const core::FaultClass order[] = {
          core::FaultClass::kEnvironmentIndependent,
          core::FaultClass::kEnvDependentNonTransient,
          core::FaultClass::kEnvDependentTransient,
      };
      for (int c = 0; c < 3; ++c) {
        const auto count = p.counts[order[c]];
        if (count == 0) continue;
        const int h = static_cast<int>(
            static_cast<double>(count) / static_cast<double>(max_total) * plot_h);
        y -= h;
        svg += "<rect x=\"" + std::to_string(x) + "\" y=\"" +
               std::to_string(y) + "\" width=\"" + std::to_string(bar_w) +
               "\" height=\"" + std::to_string(h) + "\" fill=\"" +
               kColors[c] + "\"/>\n";
      }
      svg += "<text x=\"" + std::to_string(x + bar_w / 2) + "\" y=\"" +
             std::to_string(margin_top + plot_h + 16) +
             "\" text-anchor=\"middle\" font-family=\"sans-serif\" "
             "font-size=\"10\">" +
             xml_escape(p.label) + "</text>\n";
      svg += "<text x=\"" + std::to_string(x + bar_w / 2) + "\" y=\"" +
             std::to_string(y - 4) +
             "\" text-anchor=\"middle\" font-family=\"sans-serif\" "
             "font-size=\"10\">" +
             std::to_string(p.counts.total()) + "</text>\n";
      x += bar_w + kBarGap;
    }
  }

  const char* names[3] = {"environment-independent",
                          "env-dependent-nontransient",
                          "env-dependent-transient"};
  int lx = margin_left;
  const int ly = kHeight - 12;
  for (int c = 0; c < 3; ++c) {
    svg += "<rect x=\"" + std::to_string(lx) + "\" y=\"" +
           std::to_string(ly - 9) + "\" width=\"10\" height=\"10\" fill=\"" +
           kColors[c] + "\"/>\n";
    svg += "<text x=\"" + std::to_string(lx + 14) + "\" y=\"" +
           std::to_string(ly) +
           "\" font-family=\"sans-serif\" font-size=\"10\">" +
           std::string(names[c]) + "</text>\n";
    lx += 14 + static_cast<int>(std::string(names[c]).size()) * 6 + 16;
  }

  svg += "</svg>\n";
  return svg;
}

}  // namespace faultstudy::report
