// Exact mined-output gate: the three mining pipelines at the paper's synth
// seed must reproduce every funnel count, cluster count and unique bug —
// provenance ids, bucket, trigger, class, confidence and each evidence row
// in order — byte for byte. test_pipeline's Tables 1-3 pin only the class
// tallies; a classifier change that reorders evidence or shifts a
// confidence by one ulp passes those and fails here. Doubles print with %a
// so the comparison is exact.
//
// On a mismatch the test writes the lines it produced to
// <build>/tests/MinedGolden.actual.txt and fails. A deliberate change to
// mining or classification is re-blessed by copying that file over
// tests/golden/mined_bugs_seed20000625.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/synth.hpp"
#include "mining/pipeline.hpp"

namespace faultstudy::mining {
namespace {

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void put_result(std::vector<std::string>& out, std::string_view app,
                const PipelineResult& r) {
  const FilterFunnel& f = r.filter_funnel;
  const KeywordFunnel& k = r.keyword_funnel;
  std::string head(app);
  head += " filter=" + std::to_string(f.total) + '/' +
          std::to_string(f.runtime) + '/' + std::to_string(f.production) +
          '/' + std::to_string(f.severe);
  head += " keyword=" + std::to_string(k.total_messages) + '/' +
          std::to_string(k.keyword_hits) + '/' +
          std::to_string(k.report_shaped) + '/' + std::to_string(k.threads);
  head += " clusters=" + std::to_string(r.clusters);
  head += " bugs=" + std::to_string(r.bugs.size());
  out.push_back(std::move(head));

  for (std::size_t b = 0; b < r.bugs.size(); ++b) {
    const UniqueBug& bug = r.bugs[b];
    const core::Classification& c = bug.classification;
    std::string line(app);
    line += " bug " + std::to_string(b) + " ids=";
    for (std::size_t i = 0; i < bug.report_ids.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(bug.report_ids[i]);
    }
    line += " bucket=" + std::to_string(bug.bucket);
    line += " trigger=" + std::string(core::to_string(c.trigger));
    line += " class=" + std::string(core::to_string(c.fault_class));
    line += " confidence=" + hex_double(c.confidence);
    out.push_back(std::move(line));
    for (const core::CueMatch& e : c.evidence) {
      out.push_back(std::string(app) + " bug " + std::to_string(b) +
                    " evidence \"" + e.phrase + "\" field=" + e.field +
                    " trigger=" + std::string(core::to_string(e.trigger)) +
                    " weight=" + hex_double(e.weight));
    }
  }
}

std::vector<std::string> mined_lines(std::size_t threads) {
  PipelineOptions options;
  options.threads = threads;
  std::vector<std::string> out;
  put_result(out, "apache",
             run_tracker_pipeline(corpus::make_apache_tracker(), options));
  put_result(out, "gnome",
             run_tracker_pipeline(corpus::make_gnome_tracker(), options));
  put_result(out, "mysql",
             run_mailinglist_pipeline(corpus::make_mysql_list(), options));
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(MinedGolden, MatchesParentCommit) {
  const std::string golden_path =
      std::string(FAULTSTUDY_GOLDEN_DIR) + "/mined_bugs_seed20000625.txt";
  const auto golden = read_lines(golden_path);

  for (const std::size_t threads : {1u, 4u}) {
    const auto actual = mined_lines(threads);
    if (golden == actual) continue;

    const std::string actual_path =
        std::string(FAULTSTUDY_TEST_BINARY_DIR) + "/MinedGolden.actual.txt";
    std::ofstream out(actual_path);
    out << "# app filter=total/runtime/production/severe"
           " keyword=messages/hits/report_shaped/threads clusters bugs;"
           " then per unique bug its ids, bucket, trigger, class and"
           " confidence (%a), then each evidence row in order\n";
    for (const auto& line : actual) out << line << '\n';

    std::size_t first = 0;
    while (first < golden.size() && first < actual.size() &&
           golden[first] == actual[first]) {
      ++first;
    }
    ADD_FAILURE() << "mined output at " << threads << " lane(s) differs from "
                  << golden_path << " (" << golden.size() << " golden lines, "
                  << actual.size() << " actual); first difference at line "
                  << first + 1 << "\n  golden: "
                  << (first < golden.size() ? golden[first] : "<none>")
                  << "\n  actual: "
                  << (first < actual.size() ? actual[first] : "<none>")
                  << "\nActual lines written to " << actual_path
                  << "; copy it over the golden file to re-bless.";
    return;
  }
}

}  // namespace
}  // namespace faultstudy::mining
