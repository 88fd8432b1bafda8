#include "report/figure.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace faultstudy::report {

std::string render_stacked_bars(std::span<const stats::SeriesPoint> series,
                                std::string_view title) {
  constexpr std::size_t kGlyphsPerFault = 2;
  std::string out;
  out += title;
  out += '\n';
  out += std::string(title.size(), '=');
  out += '\n';

  std::size_t label_width = 0;
  for (const auto& p : series) {
    label_width = std::max(label_width, p.label.size());
  }

  for (const auto& p : series) {
    out += util::pad_right(p.label, label_width);
    out += " |";
    const auto glyph_run = [&](core::FaultClass c, char glyph) {
      const std::size_t n = p.counts[c] * kGlyphsPerFault;
      out.append(n, glyph);
    };
    glyph_run(core::FaultClass::kEnvironmentIndependent, '#');
    glyph_run(core::FaultClass::kEnvDependentNonTransient, 'o');
    glyph_run(core::FaultClass::kEnvDependentTransient, '*');
    out += "  (" + std::to_string(p.counts.total()) + ")";
    out += '\n';
  }

  out += "\n  # environment-independent   o env-dependent-nontransient   "
         "* env-dependent-transient\n";
  return out;
}

}  // namespace faultstudy::report
