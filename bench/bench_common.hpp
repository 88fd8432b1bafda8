// Shared plumbing for the reproduction benches: run the mining pipeline for
// one application, print the funnel, the paper-style table, and the
// paper-vs-measured comparison.
#pragma once

#include <cstdio>
#include <string>

#include "core/aggregate.hpp"
#include "corpus/synth.hpp"
#include "mining/pipeline.hpp"
#include "report/figure.hpp"
#include "report/table.hpp"

namespace faultstudy::bench {

struct PaperCounts {
  std::size_t ei = 0, edn = 0, edt = 0;
};

inline void print_comparison(const core::ClassCounts& measured,
                             const PaperCounts& paper) {
  report::AsciiTable t({"class", "paper", "measured", "match"});
  const auto row = [&](core::FaultClass c, std::size_t paper_count) {
    const std::size_t m = measured[c];
    t.add_row({std::string(core::to_string(c)), std::to_string(paper_count),
               std::to_string(m), m == paper_count ? "yes" : "NO"});
  };
  row(core::FaultClass::kEnvironmentIndependent, paper.ei);
  row(core::FaultClass::kEnvDependentNonTransient, paper.edn);
  row(core::FaultClass::kEnvDependentTransient, paper.edt);
  std::fputs(t.to_string().c_str(), stdout);
}

inline core::ClassCounts counts_of(const mining::PipelineResult& result) {
  const auto faults = mining::to_faults(result);
  return core::tally(faults);
}

inline void print_tracker_funnel(const mining::PipelineResult& result,
                                 std::size_t corpus_size) {
  std::printf(
      "selection funnel: %zu reports -> %zu runtime -> %zu production -> "
      "%zu severe/critical -> %zu unique bugs\n\n",
      corpus_size, result.filter_funnel.runtime,
      result.filter_funnel.production, result.filter_funnel.severe,
      result.bugs.size());
}

inline void print_list_funnel(const mining::PipelineResult& result,
                              std::size_t corpus_size) {
  std::printf(
      "keyword funnel: %zu messages -> %zu keyword hits -> %zu report-shaped "
      "-> %zu threads -> %zu unique bugs\n\n",
      corpus_size, result.keyword_funnel.keyword_hits,
      result.keyword_funnel.report_shaped, result.keyword_funnel.threads,
      result.bugs.size());
}

}  // namespace faultstudy::bench
