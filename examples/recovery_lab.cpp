// Recovery lab: arm one fault from the study into its simulated application
// and watch a recovery mechanism fight it, step by step. After the narrated
// trial, a stability sweep re-runs the same (fault, mechanism) cell across
// differently-seeded trials on the parallel executor and reports the
// survival fraction (races are probabilistic; one trial can mislead).
//
//   ./build/examples/recovery_lab [fault-id] [mechanism]
//       [--repeats R] [--threads N] [--telemetry=PATH] [--trace=PATH]
//       [--coverage=PATH] [--baseline=PATH] [--log-level=LEVEL]
//   e.g. ./build/examples/recovery_lab apache-edt-02 process-pairs
//        ./build/examples/recovery_lab apache-edn-02 cold-restart --threads 4
//
// --telemetry writes the narrated trial's metrics (.json = JSON, else
// Prometheus text); --trace writes its sim-tick span timeline as Chrome
// trace_event JSON. --coverage writes the narrated trial's coverage atlas
// (.json = atlas JSON, .html = heatmap, else text); --baseline reads a
// committed study snapshot (`faultstudy_cli matrix --snapshot=` writes
// one) and prints what it recorded for this specimen next to the trial's
// own coverage. Unknown `--` options and counts with trailing characters
// are usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "harness/transcript.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

bool write_file(const std::string& path, const std::string& payload) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << payload;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::size_t threads = 0;  // 0 = auto (FAULTSTUDY_THREADS, else hardware)
  std::size_t repeats = 16;
  std::string telemetry_path;
  std::string trace_path;
  std::string coverage_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--repeats") {
      char* end = nullptr;
      const long long n =
          i + 1 < argc ? std::strtoll(argv[++i], &end, 10) : -1;
      if (end == nullptr || end == argv[i] || *end != '\0' || n < 0) {
        std::fprintf(stderr, "%s needs a non-negative integer\n", arg.c_str());
        return 1;
      }
      (arg == "--threads" ? threads : repeats) = static_cast<std::size_t>(n);
      continue;
    }
    if (arg.starts_with("--telemetry=")) {
      telemetry_path = arg.substr(std::strlen("--telemetry="));
      continue;
    }
    if (arg.starts_with("--trace=")) {
      trace_path = arg.substr(std::strlen("--trace="));
      continue;
    }
    if (arg.starts_with("--coverage=")) {
      coverage_path = arg.substr(std::strlen("--coverage="));
      continue;
    }
    if (arg.starts_with("--baseline=")) {
      baseline_path = arg.substr(std::strlen("--baseline="));
      continue;
    }
    if (arg.starts_with("--log-level=")) {
      const auto level =
          util::parse_log_level(arg.substr(std::strlen("--log-level=")));
      if (!level.has_value()) {
        std::fprintf(stderr,
                     "--log-level wants debug|info|warn|error|off\n");
        return 1;
      }
      util::set_log_level(*level);
      continue;
    }
    if (arg.starts_with("--")) {
      std::fprintf(stderr,
                   "unknown option %s\nusage: recovery_lab [fault-id] "
                   "[mechanism] [--repeats R] [--threads N] "
                   "[--telemetry=PATH] [--trace=PATH] [--coverage=PATH] "
                   "[--baseline=PATH] [--log-level=LEVEL]\n",
                   arg.c_str());
      return 1;
    }
    args.push_back(arg);
  }
  const std::string fault_id = !args.empty() ? args[0] : "apache-edt-02";
  const std::string mechanism_name =
      args.size() > 1 ? args[1] : "process-pairs";

  const corpus::SeedFault* seed = nullptr;
  const auto seeds = corpus::all_seeds();
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) {
      seed = &s;
      break;
    }
  }
  if (seed == nullptr) {
    std::fprintf(stderr, "unknown fault id '%s'; known ids look like "
                         "apache-edt-02, gnome-ei-04, mysql-edn-01\n",
                 fault_id.c_str());
    return 1;
  }

  harness::MechanismFactory factory;
  for (const auto& nm : harness::standard_mechanisms()) {
    if (nm.name == mechanism_name) factory = nm.make;
  }
  if (!factory) {
    std::fprintf(stderr, "unknown mechanism '%s'\n", mechanism_name.c_str());
    return 1;
  }

  std::printf("fault     : %s — %s\n", seed->fault_id.c_str(),
              seed->title.c_str());
  std::printf("trigger   : %s (%s)\n",
              std::string(core::to_string(seed->trigger)).c_str(),
              std::string(core::describe(seed->trigger)).c_str());
  std::printf("class     : %s\n",
              std::string(core::to_string(corpus::seed_class(*seed))).c_str());
  std::printf("mechanism : %s\n\n", mechanism_name.c_str());

  // The narrated trial: one traced run of the study's trial protocol.
  const bool want_telemetry = !telemetry_path.empty() || !trace_path.empty();
  const bool want_coverage = !coverage_path.empty() || !baseline_path.empty();
  telemetry::TrialTelemetry telem;
  obs::CoverageMap cover;
  obs::TrialSinks sinks;
  if (want_telemetry) sinks.telemetry = &telem;
  if (want_coverage) sinks.coverage = &cover;
  const auto plan = inject::plan_for(*seed, 42);
  auto mechanism = factory();
  harness::TrialObservation observation;
  const harness::TrialOutcome outcome = harness::run_trial(
      plan, *mechanism,
      harness::TrialConfig{.cycles = 2,
                           .per_item_retries = 6,
                           .recovery_budget = 20,
                           .seed = 42},
      &observation, sinks);

  std::fputs(observation.transcript.to_string().c_str(), stdout);
  std::printf("\nfailures observed: %zu, recoveries: %zu\n", outcome.failures,
              outcome.recoveries);

  if (want_telemetry) {
    telemetry::MetricsRegistry registry;
    telemetry::fold_into(telem, mechanism_name, registry);
    if (!telemetry_path.empty()) {
      const auto snapshot = registry.snapshot();
      const std::string payload = telemetry_path.ends_with(".json")
                                      ? telemetry::to_json(snapshot)
                                      : telemetry::to_prometheus(snapshot);
      if (!write_file(telemetry_path, payload)) return 1;
      std::printf("telemetry: wrote %s\n", telemetry_path.c_str());
    }
    if (!trace_path.empty()) {
      const std::string payload = telemetry::to_chrome_trace(
          {{fault_id + "/" + mechanism_name, &telem.spans}});
      if (!write_file(trace_path, payload)) return 1;
      std::printf("trace: wrote %s\n", trace_path.c_str());
    }
  }

  if (want_coverage) {
    obs::CoverageAtlas atlas;
    atlas.begin_study({*seed}, {mechanism_name});
    atlas.fold_trial(*seed, cover);
    std::printf("\ncoverage : %zu/%zu probes hit in the narrated trial\n",
                atlas.probes_hit(), obs::CoverageAtlas::probe_universe());
    if (!coverage_path.empty()) {
      const std::string payload =
          coverage_path.ends_with(".json")   ? obs::to_json(atlas)
          : coverage_path.ends_with(".html") ? obs::render_heatmap_html(atlas)
                                             : obs::render_text(atlas);
      if (!write_file(coverage_path, payload)) return 1;
      std::printf("coverage : wrote %s\n", coverage_path.c_str());
    }
    if (!baseline_path.empty()) {
      std::ifstream in(baseline_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", baseline_path.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const auto snapshot = obs::parse_snapshot(buf.str());
      if (!snapshot.ok()) {
        std::fprintf(stderr, "%s: %s\n", baseline_path.c_str(),
                     snapshot.error().c_str());
        return 1;
      }
      bool found = false;
      for (const auto& row : snapshot.value().specimens) {
        if (row.fault_id != fault_id) continue;
        found = true;
        std::printf("baseline : study recorded %llu probes hit over %llu "
                    "trials for this specimen\n",
                    static_cast<unsigned long long>(row.probes_hit),
                    static_cast<unsigned long long>(row.trials));
      }
      if (!found) {
        std::printf("baseline : %s has no record of %s\n",
                    baseline_path.c_str(), fault_id.c_str());
      }
    }
  }

  if (repeats > 0) {
    // Stability sweep: the narrated trial is one draw; races and timing
    // phases are probabilistic, so re-run the cell across `repeats`
    // differently-seeded trials on the parallel executor.
    const auto outcomes = util::parallel_map<harness::TrialOutcome>(
        repeats, threads, [&](std::size_t r) {
          harness::TrialConfig config;
          config.seed = 1000 + static_cast<std::uint64_t>(r) * 131 +
                        util::fnv1a(seed->fault_id);
          const auto repeat_plan = inject::plan_for(*seed, config.seed);
          auto repeat_mechanism = factory();
          return harness::run_trial(repeat_plan, *repeat_mechanism, config);
        });
    std::size_t observed = 0, wins = 0;
    for (const auto& o : outcomes) {
      if (!o.failure_observed) continue;
      ++observed;
      if (o.survived) ++wins;
    }
    std::printf("stability: survived %zu/%zu fault-observing trials "
                "(%zu of %zu repeats, %zu lanes)\n",
                wins, observed, observed, repeats,
                util::resolve_threads(threads));
  }
  return outcome.survived ? 0 : 2;
}
