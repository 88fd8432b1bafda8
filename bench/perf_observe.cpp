// Observation-bus overhead benchmarks and gates (google-benchmark).
//
// Before benchmarking, main() runs two gates on the full recovery matrix
// with every study view attached at once (telemetry, forensics, coverage):
//
//   identity   every export must be byte-identical for 1 and 4 lanes: the
//              Chrome trace, the metrics (Prometheus and JSON), the
//              post-mortem JSON, the explorer HTML, the atlas JSON, the
//              heatmap HTML and the study snapshot (DESIGN.md §9);
//   overhead   the observed matrix must cost at most 5% more wall time than
//              the bare run. Bare, observed and bare-again runs interleave
//              within every round and each variant keeps its minimum over
//              the rounds; bare-again against bare is the noise floor.
//
// Gate measurements land in BENCH_observe.json (bench::BenchJson).
//
// Benchmark rows, the per-event cost of a hook site (the matrix and the
// study-level folds and exports are timed end to end and per layer by
// perfbench/):
//   BM_NullSinkBranch    one hook site with no sink bound
//   BM_EmitAttached      one hook site with every view attached
//   BM_ProbeHit          one CoverageMap probe increment
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus/seeds.hpp"
#include "forensics/export.hpp"
#include "forensics/postmortem.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "obs/baseline.hpp"
#include "obs/bus.hpp"
#include "obs/export.hpp"
#include "telemetry/export.hpp"
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

void BM_NullSinkBranch(benchmark::State& state) {
  const obs::TrialSinks* sinks = nullptr;
  for (auto _ : state) {
    // The opaque pointer keeps the branch from being folded away.
    benchmark::DoNotOptimize(sinks);
    obs::emit(sinks, obs::Event::kSchedDraw);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_NullSinkBranch);

void BM_EmitAttached(benchmark::State& state) {
  telemetry::TrialTelemetry telemetry;
  forensics::FlightRecorder ring;
  obs::CoverageMap coverage;
  const obs::TrialSinks all{&telemetry, &ring, &coverage};
  const obs::TrialSinks* sinks = &all;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sinks);
    obs::emit(sinks, obs::Event::kFdDenied, 4, 250);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(
      telemetry.counters[telemetry::counter_index("env/fd/acquire_failures")]);
}
BENCHMARK(BM_EmitAttached);

void BM_ProbeHit(benchmark::State& state) {
  obs::CoverageMap map;
  obs::CoverageMap* sink = &map;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sink);
    sink->hit(obs::Site::kEnvFdDenied);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(map.count(obs::Site::kEnvFdDenied));
}
BENCHMARK(BM_ProbeHit);

/// Every serialized artifact of one observed matrix run.
std::vector<std::string> render_exports(std::size_t threads) {
  StudyViews views;
  const harness::MatrixResult matrix = run_matrix(threads, &views);

  std::vector<telemetry::TraceThread> traces;
  for (const auto& [label, tracer] : views.telemetry.traces) {
    traces.push_back({label, &tracer});
  }
  const auto metrics = views.telemetry.metrics.snapshot();
  const auto clusters = forensics::triage(views.forensics.postmortems);
  std::vector<forensics::MechanismSuccessRow> rows;
  for (const auto& report : matrix.reports) {
    rows.push_back({report.mechanism, report.generic, report.survived_all(),
                    report.total_all(), report.state_losses});
  }
  return {
      telemetry::to_chrome_trace(traces),
      telemetry::to_prometheus(metrics),
      telemetry::to_json(metrics),
      forensics::to_json(views.forensics, clusters),
      forensics::render_explorer_html(views.forensics, clusters, rows,
                                      "bench"),
      obs::to_json(views.atlas),
      obs::render_heatmap_html(views.atlas),
      obs::to_json(obs::build_snapshot(corpus::all_seeds(), matrix,
                                       views.atlas, metrics, 99, 3)),
  };
}

double matrix_millis_once(bool observed) {
  StudyViews views;
  const auto start = std::chrono::steady_clock::now();
  // The serial path isolates per-trial overhead.
  benchmark::DoNotOptimize(run_matrix(1, observed ? &views : nullptr));
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

int main(int argc, char** argv) {
  static const char* const kArtifacts[] = {
      "Chrome trace", "Prometheus metrics", "JSON metrics",
      "post-mortem JSON", "explorer HTML", "atlas JSON", "heatmap HTML",
      "study snapshot"};
  const auto serial = render_exports(1);
  const auto wide = render_exports(4);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (serial[i] != wide[i]) {
      std::fprintf(stderr, "FATAL: %s differs between 1 and 4 lanes\n",
                   kArtifacts[i]);
      return 1;
    }
  }
  std::printf("observe identity check: OK (%zu exports, 1 vs 4 lanes)\n",
              serial.size());

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
  bench::BenchJson json("observe");
  json.add("matrix_bare_min", best.bare, "ms");
  json.add("matrix_observed_min", best.observed, "ms");
  json.add("overhead", overhead, "percent");
  json.add("noise_floor", noise, "percent");
  json.add("gate", kGatePercent, "percent");
  if (!json.write()) return 1;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
