// Observation-bus overhead gate on the full recovery matrix.
//
// The matrix with every study view attached at once (telemetry, forensics,
// coverage) must cost at most 5% more wall time than the bare run. Bare,
// observed and bare-again runs interleave within every round and each
// variant keeps its minimum over the rounds; bare-again against bare is the
// noise floor. Exits 1 when the gate fails.
//
// Lane identity of the observed matrix's exports is checked elsewhere:
// ExportGolden.MatchesParentCommit pins all eight at one and four lanes.
#include <chrono>
#include <cstdio>

#include "corpus/seeds.hpp"
#include "forensics/postmortem.hpp"
#include "harness/experiment.hpp"
#include "obs/atlas.hpp"
#include "telemetry/trial.hpp"

using namespace faultstudy;

namespace {

constexpr double kGatePercent = 5.0;

/// The three study views, owned together so a run can attach all of them.
struct StudyViews {
  telemetry::StudyTelemetry telemetry;
  forensics::StudyForensics forensics;
  obs::CoverageAtlas atlas;
};

harness::MatrixResult run_matrix(std::size_t threads, StudyViews* views) {
  harness::TrialConfig config;
  config.threads = threads;
  if (views == nullptr) {
    return harness::run_matrix(corpus::all_seeds(),
                               harness::standard_mechanisms(), config);
  }
  return harness::run_matrix(corpus::all_seeds(),
                             harness::standard_mechanisms(), config, 3,
                             &views->telemetry, &views->forensics,
                             &views->atlas);
}

double matrix_millis_once(bool observed) {
  StudyViews views;
  const auto start = std::chrono::steady_clock::now();
  // The serial path isolates per-trial overhead.
  (void)run_matrix(1, observed ? &views : nullptr);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

struct MatrixTimes {
  double bare = 0.0;
  double observed = 0.0;
  double bare_again = 0.0;
};

/// Minimum wall time per variant over `rounds` interleaved
/// bare/observed/bare-again triples. Interleaving keeps ambient load drift
/// symmetric between the variants; the minimum is the noise-robust pick,
/// since interference only adds time.
MatrixTimes interleaved_min_millis(int rounds) {
  MatrixTimes best;
  for (int r = 0; r < rounds; ++r) {
    const double bare = matrix_millis_once(false);
    const double observed = matrix_millis_once(true);
    const double bare_again = matrix_millis_once(false);
    if (r == 0 || bare < best.bare) best.bare = bare;
    if (r == 0 || observed < best.observed) best.observed = observed;
    if (r == 0 || bare_again < best.bare_again) best.bare_again = bare_again;
  }
  return best;
}

}  // namespace

int main() {
  constexpr int kRounds = 5;
  // Warm-up evens out first-touch allocation between the variants.
  (void)interleaved_min_millis(1);
  const MatrixTimes best = interleaved_min_millis(kRounds);
  const double overhead = (best.observed - best.bare) / best.bare * 100.0;
  const double noise = (best.bare_again - best.bare) / best.bare * 100.0;
  std::printf("observe overhead gate: bare %.1f ms, observed %.1f ms -> "
              "%+.2f%% (noise floor %+.2f%%, gate %.1f%%, min over %d "
              "interleaved rounds)\n",
              best.bare, best.observed, overhead, noise, kGatePercent,
              kRounds);
  if (overhead > kGatePercent) {
    std::fprintf(stderr, "FATAL: observation overhead %+.2f%% exceeds %.1f%%\n",
                 overhead, kGatePercent);
    return 1;
  }
  return 0;
}
