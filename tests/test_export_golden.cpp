// Exact gate on the study's export writers: the eight exports of the
// attached seed-99 matrix (forensics JSON, explorer HTML, Chrome trace,
// metrics JSON, Prometheus text, atlas JSON, heatmap HTML, study snapshot)
// must keep the byte count and FNV-1a digest they had when this gate was
// written, at one lane and at four. The lane-identity tests only compare a
// run with another run of the same build; this one compares with the
// committed constants, so a writer rewrite that shifts one byte in every
// lane count still fails here.
//
// The views are attached and exported exactly as `faultstudy_cli matrix`
// does with every output flag, so the sizes below are also the sizes of
// the files that command writes at its default seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/seeds.hpp"
#include "forensics/export.hpp"
#include "forensics/postmortem.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "obs/atlas.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"
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
};

/// Runs the attached matrix and renders the eight exports in kGolden order.
std::vector<std::string> render_exports(std::size_t threads) {
  harness::TrialConfig config;
  config.threads = threads;
  telemetry::StudyTelemetry telemetry;
  forensics::StudyForensics study;
  obs::CoverageAtlas atlas;
  const auto seeds = corpus::all_seeds();
  const auto matrix =
      harness::run_matrix(seeds, harness::standard_mechanisms(), config, 3,
                          &telemetry, &study, &atlas);
  obs::export_gauges(atlas, telemetry.metrics);

  const auto clusters = forensics::triage(study.postmortems);
  std::vector<forensics::MechanismSuccessRow> rows;
  for (const auto& r : matrix.reports) {
    rows.push_back({r.mechanism, r.generic, r.survived_all(), r.total_all(),
                    r.state_losses});
  }
  std::vector<telemetry::TraceThread> traces;
  for (const auto& [label, tracer] : telemetry.traces) {
    traces.push_back({label, &tracer});
  }
  const auto metrics = telemetry.metrics.snapshot();
  return {forensics::to_json(study, clusters),
          forensics::render_explorer_html(study, clusters, rows,
                                          "Fault-forensics study explorer"),
          telemetry::to_chrome_trace(traces), telemetry::to_json(metrics),
          telemetry::to_prometheus(metrics), obs::to_json(atlas),
          obs::render_heatmap_html(atlas),
          obs::to_json(obs::build_snapshot(seeds, matrix, atlas, metrics,
                                           config.seed, 3))};
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
