// Exact gate on the study's export writers: the ten exports of the
// attached seed-99 matrix (forensics JSON, explorer HTML, Chrome trace,
// metrics JSON, Prometheus text, atlas JSON, heatmap HTML, study snapshot,
// atlas text, triage text) must keep the byte count and FNV-1a digest they
// had when this gate was written, at one lane and at four. The lane-identity
// tests only compare a run with another run of the same build; this one
// compares with the committed constants, so a writer rewrite that shifts one
// byte in every lane count still fails here.
//
// The documents come from report::StudyExports, the code `faultstudy_cli
// matrix` runs for any output flag, so the sizes below are also the sizes
// of the files that command writes at its default seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "forensics/export.hpp"
#include "harness/experiment.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "report/study_report.hpp"
#include "telemetry/export.hpp"
#include "util/rng.hpp"

namespace faultstudy {
namespace {

struct ExportDigest {
  const char* name;
  std::size_t bytes;
  std::uint64_t fnv1a;
};

// The parent commit's exports at trial seed 99, 3 repeats.
constexpr ExportDigest kGolden[] = {
    {"forensics.json", 10575239, 0xef5404aa0d9a44e7ULL},
    {"explorer.html", 1175575, 0xbb25cf75189b176aULL},
    {"trace.json", 1454978, 0xffeb5d803d5d9243ULL},
    {"metrics.json", 3944, 0xb91386923ef65ad0ULL},
    {"metrics.prom", 24787, 0xfe78bd7a0d5a19c6ULL},
    {"atlas.json", 22903, 0x601ac4e52203ed0bULL},
    {"atlas.html", 14454, 0xdf49adebe5f33592ULL},
    {"snapshot.json", 16472, 0xfb4c86b09fff4f57ULL},
    {"atlas.txt", 2160, 0xf3e8fa1b2433b971ULL},
    {"triage.txt", 14348, 0xf73d2e9434fce89cULL},
};

/// Renders the ten exports of the attached matrix in kGolden order.
std::vector<std::string> render_exports(std::size_t threads) {
  harness::TrialConfig config;
  config.threads = threads;
  const report::StudyExports ex(config, 3);
  return {forensics::to_json(ex.forensics, ex.triage),
          ex.explorer(),
          telemetry::to_chrome_trace(ex.trace_threads()),
          telemetry::to_json(ex.metrics),
          telemetry::to_prometheus(ex.metrics),
          obs::to_json(ex.coverage),
          obs::render_heatmap_html(ex.coverage),
          obs::to_json(ex.snapshot()),
          obs::render_text(ex.coverage),
          ex.triage_text()};
}

TEST(ExportGolden, MatchesParentCommit) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const auto exports = render_exports(threads);
    ASSERT_EQ(exports.size(), std::size(kGolden));
    for (std::size_t i = 0; i < exports.size(); ++i) {
      const ExportDigest& want = kGolden[i];
      EXPECT_EQ(exports[i].size(), want.bytes) << want.name;
      EXPECT_EQ(util::fnv1a(exports[i]), want.fnv1a)
          << want.name << ": got 0x" << std::hex << util::fnv1a(exports[i]);
    }
  }
}

}  // namespace
}  // namespace faultstudy
