// faultstudy — the study's command-line front end.
//
//   faultstudy_cli classify             # read a report from stdin, classify
//   faultstudy_cli taxonomy             # the trigger ontology
//   faultstudy_cli corpus <app> <file>  # write the synthetic corpus to disk
//   faultstudy_cli mine <app|file>      # run the mining pipeline, print table
//   faultstudy_cli simulate <fault> <mechanism>   # one traced recovery trial
//   faultstudy_cli matrix               # the recovery matrix and its exports
//   faultstudy_cli diff <baseline> <candidate>    # compare two snapshots
//   faultstudy_cli report <out.md>      # the study report plus Figures 1-3
//
// `mine` accepts either an application name (generates the calibrated
// synthetic corpus) or a path to a tracker dump / mbox file written by
// `corpus` (or by you). `simulate` always runs traced with a flight
// recorder: when the trial does not survive it prints the post-mortem
// (signature, causal chain, env state, flight ring, detector verdicts) and
// exits 3. `report` also writes figure{1,2,3}_*.svg into the working
// directory.
//
// A global `--threads N` flag (anywhere on the command line) sets the
// execution lanes for `matrix` and `mine`; results are bit-identical for
// every value. Default: the FAULTSTUDY_THREADS environment variable, else
// one lane per hardware thread. `--seed N` overrides the base trial seed.
//
// Exports. `matrix` runs the study once and attaches only the views the
// requested outputs need; every output flag may repeat, and each path's
// extension picks its format, so one run writes every artifact:
//   --telemetry=<path>   metrics snapshot; `.json` selects the JSON
//                        exporter, anything else Prometheus text.
//   --trace=<path>       Chrome trace_event timeline (chrome://tracing,
//                        Perfetto). matrix/simulate traces use simulated
//                        ticks and are byte-identical for any --threads;
//                        mine traces are wall-clock self-profiles.
//   --coverage=<path>    matrix/simulate coverage atlas; `.json` selects
//                        the atlas JSON, `.html` the heatmap, anything
//                        else the text summary.
//   --forensics=<path>   matrix only: post-mortems of every failed trial;
//                        `.json` selects the forensic dump, `.html` the
//                        study explorer, anything else the triage table.
//   --snapshot=<path>    matrix only: the study snapshot
//                        (`faultstudy-baseline/1`) a later run diffs
//                        against.
//   --baseline=<path>    matrix only: diff the run against a committed
//                        study snapshot and exit 4 on fatal drift.
// Every matrix/simulate export is byte-identical for any --threads.
//
// Exit codes: 0 ok, 1 I/O error, 2 usage error, 3 a snapshot that does not
// parse (diff, --baseline) or a simulated trial that did not survive,
// 4 fatal drift (diff, --baseline). Unknown `--` options are a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/rules.hpp"
#include "corpus/serialize.hpp"
#include "corpus/synth.hpp"
#include "forensics/export.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "mining/pipeline.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "report/study_report.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"
#include "stats/series.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

/// Lanes for matrix/mine sweeps; 0 = auto (env var, else hardware).
std::size_t g_threads = 0;
/// Base trial seed; < 0 keeps each command's default.
long long g_seed = -1;
std::vector<std::string> g_telemetry_paths;
std::vector<std::string> g_trace_paths;
std::vector<std::string> g_coverage_paths;
std::vector<std::string> g_forensics_paths;
std::vector<std::string> g_snapshot_paths;
std::string g_baseline_path;

/// The repeatable `--flag=PATH` outputs.
const struct {
  std::string_view prefix;
  std::vector<std::string>* paths;
} kOutputFlags[] = {
    {"--telemetry=", &g_telemetry_paths}, {"--trace=", &g_trace_paths},
    {"--coverage=", &g_coverage_paths},   {"--forensics=", &g_forensics_paths},
    {"--snapshot=", &g_snapshot_paths},
};

bool telemetry_wanted() {
  return !g_telemetry_paths.empty() || !g_trace_paths.empty();
}

int usage() {
  std::fputs(
      "usage:\n"
      "  faultstudy_cli classify                       (report on stdin)\n"
      "  faultstudy_cli taxonomy                       (trigger ontology)\n"
      "  faultstudy_cli corpus <apache|gnome|mysql> <out-file>\n"
      "  faultstudy_cli mine <apache|gnome|mysql|dump-file>\n"
      "  faultstudy_cli simulate <fault-id> <mechanism>\n"
      "  faultstudy_cli matrix\n"
      "  faultstudy_cli diff <baseline> <candidate>    (compare snapshots)\n"
      "  faultstudy_cli report <out.md>                (full study report)\n"
      "options (every PATH flag but --baseline may repeat):\n"
      "  --threads N        execution lanes for matrix/mine (default: "
      "FAULTSTUDY_THREADS, else hardware; results identical for any N)\n"
      "  --seed N           base trial seed for simulate/matrix\n"
      "  --telemetry=PATH   write a metrics snapshot (.json = JSON, else "
      "Prometheus text)\n"
      "  --trace=PATH       write a Chrome trace_event timeline\n"
      "  --coverage=PATH    matrix/simulate: write the coverage atlas "
      "(.json = JSON, .html = heatmap, else text)\n"
      "  --forensics=PATH   matrix: write the post-mortems (.json = dump, "
      ".html = explorer, else triage text)\n"
      "  --snapshot=PATH    matrix: write the study snapshot\n"
      "  --baseline=PATH    matrix: diff against a study snapshot, exit 4 "
      "on fatal drift\n"
      "  --log-level=LEVEL  diagnostic verbosity: debug|info|warn|error|off "
      "(default warn)\n"
      "exit codes: 0 ok, 1 io, 2 usage, 3 snapshot parse error or trial "
      "not survived, 4 drift\n",
      stderr);
  return 2;
}

/// Writes one output file and reports it on stdout; false on an I/O error.
bool write_export(const char* label, const std::string& path,
                  const std::string& payload) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << payload;
  std::printf("%-9s : wrote %s (%zu bytes)\n", label, path.c_str(),
              payload.size());
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Reads and parses a study snapshot into `out`. Returns 0, or the exit
/// code of the failure (1 unreadable, 3 unparsable) after saying why.
int load_snapshot(const std::string& path, obs::StudySnapshot& out) {
  const auto text = read_file(path);
  if (!text.has_value()) return 1;
  auto parsed = obs::parse_snapshot(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error().c_str());
    return 3;
  }
  out = std::move(parsed.value());
  return 0;
}

/// Prints the drift report and maps it to the exit code (4 = fatal drift).
int report_drift(const obs::DriftReport& drift) {
  std::fputs(obs::render_text(drift).c_str(), stdout);
  return drift.regressed() ? 4 : 0;
}

/// Writes the --telemetry and --trace outputs; false on an I/O error.
bool export_telemetry(const telemetry::MetricsSnapshot& snapshot,
                      const std::vector<telemetry::TraceThread>& threads) {
  for (const auto& path : g_telemetry_paths) {
    if (!write_export("telemetry", path,
                      path.ends_with(".json")
                          ? telemetry::to_json(snapshot)
                          : telemetry::to_prometheus(snapshot))) {
      return false;
    }
  }
  for (const auto& path : g_trace_paths) {
    if (!write_export("trace", path, telemetry::to_chrome_trace(threads))) {
      return false;
    }
  }
  return true;
}

/// Writes the --coverage outputs; false on an I/O error.
bool export_coverage(const obs::CoverageAtlas& atlas) {
  for (const auto& path : g_coverage_paths) {
    const std::string payload =
        path.ends_with(".json")   ? obs::to_json(atlas)
        : path.ends_with(".html") ? obs::render_heatmap_html(atlas)
                                  : obs::render_text(atlas);
    if (!write_export("coverage", path, payload)) return false;
  }
  return true;
}

/// The triage table: failure signatures by cluster size.
std::string render_triage(
    const forensics::StudyForensics& study,
    const std::vector<forensics::TriageCluster>& clusters) {
  report::AsciiTable t({"signature", "count", "failures", "recoveries",
                        "specimens"});
  for (const auto& c : clusters) {
    t.add_row({c.signature, std::to_string(c.count),
               std::to_string(c.total_failures),
               std::to_string(c.total_recoveries),
               std::to_string(c.fault_ids.size())});
  }
  return std::to_string(study.failures()) + "/" +
         std::to_string(study.trials) + " trials failed, " +
         std::to_string(clusters.size()) + " failure signatures\n\n" +
         t.to_string();
}

/// Writes the --forensics outputs; false on an I/O error.
bool export_forensics(const harness::MatrixResult& matrix,
                      const forensics::StudyForensics& study) {
  const auto clusters = forensics::triage(study.postmortems);
  for (const auto& path : g_forensics_paths) {
    std::string payload;
    if (path.ends_with(".json")) {
      payload = forensics::to_json(study, clusters);
    } else if (path.ends_with(".html")) {
      std::vector<forensics::MechanismSuccessRow> rows;
      for (const auto& r : matrix.reports) {
        rows.push_back({r.mechanism, r.generic, r.survived_all(),
                        r.total_all(), r.state_losses});
      }
      payload = forensics::render_explorer_html(
          study, clusters, rows, "Fault-forensics study explorer");
    } else {
      payload = render_triage(study, clusters);
    }
    if (!write_export("forensics", path, payload)) return false;
  }
  return true;
}

int cmd_taxonomy() {
  report::AsciiTable t({"trigger", "class", "changes on retry", "mechanism"});
  for (const core::Trigger trigger : core::all_triggers()) {
    const auto& ruling = core::default_ruling(trigger);
    t.add_row({std::string(core::to_string(trigger)),
               std::string(core::to_code(ruling.fault_class)),
               ruling.condition_changes_on_retry ? "yes" : "no",
               std::string(core::describe(trigger))});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}

int cmd_report(const std::string& path) {
  std::puts("running the full study (mining + recovery matrix)...");
  const auto results = report::run_full_study();
  if (!write_export("report", path, report::render_markdown(results))) {
    return 1;
  }
  const struct {
    const char* file;
    const char* title;
    core::AppId app;
    const std::vector<std::string>* labels;
  } figures[] = {
      {"figure1_apache.svg", "Figure 1: Apache faults per release",
       core::AppId::kApache, &corpus::apache_releases()},
      {"figure2_gnome.svg", "Figure 2: GNOME faults over time",
       core::AppId::kGnome, &corpus::gnome_periods()},
      {"figure3_mysql.svg", "Figure 3: MySQL faults per release",
       core::AppId::kMysql, &corpus::mysql_releases()},
  };
  for (const auto& fig : figures) {
    const auto series =
        stats::build_series(results.all_faults, fig.app, *fig.labels);
    if (!write_export("figure", fig.file,
                      report::render_svg(series, fig.title))) {
      return 1;
    }
  }
  std::printf("\nheadline: generic recovery survived %zu/%zu faults; "
              "app-specific %zu/%zu\n",
              results.matrix.reports.front().survived_all(),
              results.matrix.reports.front().total_all(),
              results.matrix.reports.back().survived_all(),
              results.matrix.reports.back().total_all());
  return 0;
}

int cmd_classify() {
  // Accept either the structured field format or free text (all of it
  // becomes the body).
  std::ostringstream all;
  all << std::cin.rdbuf();
  const std::string input = all.str();

  core::ReportText report;
  bool structured = false;
  for (const auto line : util::split(input, '\n')) {
    const auto set = [&](std::string_view tag, std::string& field) {
      if (util::starts_with(line, tag)) {
        field = std::string(util::trim(line.substr(tag.size())));
        structured = true;
        return true;
      }
      return false;
    };
    if (set("Title:", report.title)) continue;
    if (set("How-To-Repeat:", report.how_to_repeat)) continue;
    if (set("Comments:", report.developer_comments)) continue;
    report.body += std::string(line) + "\n";
  }
  if (!structured) report.body = input;

  const auto result = core::RuleClassifier().classify(report);
  std::printf("class      : %s\n",
              std::string(core::to_string(result.fault_class)).c_str());
  std::printf("trigger    : %s — %s\n",
              std::string(core::to_string(result.trigger)).c_str(),
              std::string(core::describe(result.trigger)).c_str());
  std::printf("confidence : %.2f\n", result.confidence);
  const auto& ruling = core::default_ruling(result.trigger);
  std::printf("retry      : condition %s\n",
              ruling.condition_changes_on_retry ? "likely changes (generic "
                                                  "recovery can work)"
                                                : "persists (needs "
                                                  "application-specific "
                                                  "recovery)");
  for (const auto& cue : result.evidence) {
    std::printf("  evidence : '%s' in %s\n", cue.phrase.c_str(),
                cue.field.c_str());
  }
  return 0;
}

int cmd_corpus(const std::string& app, const std::string& path) {
  std::string payload;
  if (app == "apache") {
    payload = corpus::tracker_to_text(corpus::make_apache_tracker());
  } else if (app == "gnome") {
    payload = corpus::tracker_to_text(corpus::make_gnome_tracker());
  } else if (app == "mysql") {
    payload = corpus::mailinglist_to_mbox(corpus::make_mysql_list());
  } else {
    return usage();
  }
  return write_export("corpus", path, payload) ? 0 : 1;
}

void print_study(const mining::PipelineResult& result) {
  const auto faults = mining::to_faults(result);
  const auto counts = core::tally(faults);
  std::printf("unique bugs: %zu\n\n", result.bugs.size());
  std::fputs(report::render_class_table(counts, "").c_str(), stdout);
}

int cmd_mine(const std::string& target) {
  telemetry::PipelineTelemetry profile;
  mining::PipelineOptions options;
  options.threads = g_threads;
  if (telemetry_wanted()) options.telemetry = &profile;
  std::printf("mine: target=%s threads=%zu\n", target.c_str(),
              util::resolve_threads(g_threads));

  std::optional<mining::PipelineResult> result;
  if (target == "apache" || target == "gnome") {
    const auto tracker = target == "apache" ? corpus::make_apache_tracker()
                                            : corpus::make_gnome_tracker();
    result = mining::run_tracker_pipeline(tracker, options);
  } else if (target == "mysql") {
    result =
        mining::run_mailinglist_pipeline(corpus::make_mysql_list(), options);
  } else {
    // A file: sniff the format.
    const auto text = read_file(target);
    if (!text.has_value()) return 1;
    if (text->starts_with("From ")) {
      const auto list = corpus::mailinglist_from_mbox(*text);
      if (!list.ok()) {
        std::fprintf(stderr, "mbox parse error: %s\n", list.error().c_str());
        return 1;
      }
      result = mining::run_mailinglist_pipeline(list.value(), options);
    } else {
      const auto tracker = corpus::tracker_from_text(*text);
      if (!tracker.ok()) {
        std::fprintf(stderr, "tracker parse error: %s\n",
                     tracker.error().c_str());
        return 1;
      }
      result = mining::run_tracker_pipeline(tracker.value(), options);
    }
  }
  print_study(*result);
  if (options.telemetry != nullptr &&
      !export_telemetry(profile.metrics.snapshot(),
                        {{"mine (wall)", &profile.spans}})) {
    return 1;
  }
  return 0;
}

/// The post-mortem of a failed trial: signature, causal chain, resource
/// state at the failure, the flight ring's fill and the detector verdicts.
void print_postmortem(const forensics::PostMortemRecord& pm) {
  std::printf("signature : %s\n", forensics::failure_signature(pm).c_str());
  std::printf("\ncausal chain:\n");
  for (const auto& link : pm.chain) {
    std::printf("  [%-11s] t=%-8llu %s\n",
                std::string(to_string(link.stage)).c_str(),
                static_cast<unsigned long long>(link.at),
                link.description.c_str());
  }
  const auto& s = pm.env_state;
  std::printf("\nenv at failure: procs %zu/%zu, fds %zu/%zu, disk %llu/%llu "
              "bytes, entropy %llu bits\n",
              s.procs_used, s.procs_capacity, s.fds_used, s.fds_capacity,
              static_cast<unsigned long long>(s.disk_used),
              static_cast<unsigned long long>(s.disk_capacity),
              static_cast<unsigned long long>(s.entropy_bits));
  std::printf("flight ring: %zu events held, %llu overwritten\n",
              pm.events.size(),
              static_cast<unsigned long long>(pm.events_dropped));
  if (pm.analyzed) {
    std::printf("detectors : %zu race report(s), %zu invariant "
                "violation(s)\n",
                pm.race_reports, pm.invariant_violations);
  }
}

int cmd_simulate(const std::string& fault_id, const std::string& mechanism) {
  const auto seeds = corpus::all_seeds();
  const corpus::SeedFault* seed = nullptr;
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) seed = &s;
  }
  if (seed == nullptr) {
    std::fprintf(stderr, "unknown fault id %s\n", fault_id.c_str());
    return 1;
  }
  harness::MechanismFactory factory;
  for (const auto& nm : harness::standard_mechanisms()) {
    if (nm.name == mechanism) factory = nm.make;
  }
  if (!factory) {
    std::fprintf(stderr, "unknown mechanism %s (try process-pairs, "
                         "rollback-retry, progressive-retry, cold-restart, "
                         "rejuvenation, app-specific)\n",
                 mechanism.c_str());
    return 1;
  }
  // Defaults match the pre-flag behavior exactly: plan seed 42, trial
  // config seed 99; --seed N sets both.
  harness::TrialConfig config;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  // Traced, with a flight ring: a failed trial's post-mortem carries the
  // race-detector and invariant-checker verdicts in its detection stage.
  harness::TrialObservation observation;
  forensics::FlightRecorder ring;
  telemetry::TrialTelemetry telem;
  obs::CoverageMap cover;
  obs::TrialSinks sinks{.flight = &ring};
  if (telemetry_wanted()) sinks.telemetry = &telem;
  if (!g_coverage_paths.empty()) sinks.coverage = &cover;
  const auto plan = inject::plan_for(
      *seed, g_seed >= 0 ? static_cast<std::uint64_t>(g_seed) : 42);
  auto mech = factory();
  const auto outcome =
      harness::run_trial(plan, *mech, config, &observation, sinks);
  std::printf("simulate  : seed=%llu threads=1\n",
              static_cast<unsigned long long>(config.seed));
  std::printf("fault     : %s (%s, %s)\n", seed->fault_id.c_str(),
              std::string(core::to_string(seed->trigger)).c_str(),
              std::string(core::to_string(corpus::seed_class(*seed))).c_str());
  std::printf("mechanism : %s\n", mechanism.c_str());
  std::printf("observed  : %zu failures, %zu recoveries\n", outcome.failures,
              outcome.recoveries);
  std::printf("verdict   : %s\n",
              outcome.survived ? "SURVIVED" : "NOT SURVIVED");
  if (!outcome.first_failure.empty()) {
    std::printf("first failure: %s\n", outcome.first_failure.c_str());
  }
  if (sinks.telemetry != nullptr) {
    telemetry::MetricsRegistry registry;
    telemetry::fold_into(telem, mechanism, registry);
    if (!export_telemetry(registry.snapshot(),
                          {{fault_id + "/" + mechanism, &telem.spans}})) {
      return 1;
    }
  }
  if (sinks.coverage != nullptr) {
    obs::CoverageAtlas atlas;
    atlas.begin_study({*seed}, {mechanism});
    atlas.fold_trial(*seed, cover);
    if (!export_coverage(atlas)) return 1;
  }
  if (outcome.postmortem.has_value()) print_postmortem(*outcome.postmortem);
  return outcome.survived ? 0 : 3;
}

int cmd_matrix() {
  constexpr int kRepeats = 3;
  // Read the baseline first: a bad path fails before the study runs.
  std::optional<obs::StudySnapshot> baseline;
  if (!g_baseline_path.empty()) {
    const int rc = load_snapshot(g_baseline_path, baseline.emplace());
    if (rc != 0) return rc;
  }
  harness::TrialConfig config;
  config.threads = g_threads;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  std::printf("matrix: seed=%llu threads=%zu\n",
              static_cast<unsigned long long>(config.seed),
              util::resolve_threads(g_threads));
  // Attach only the views the requested outputs need. A study snapshot
  // (written or diffed) carries the atlas and the telemetry counters.
  const bool study_snapshot =
      baseline.has_value() || !g_snapshot_paths.empty();
  telemetry::StudyTelemetry study;
  telemetry::StudyTelemetry* tp =
      telemetry_wanted() || study_snapshot ? &study : nullptr;
  obs::CoverageAtlas atlas;
  obs::CoverageAtlas* ap =
      !g_coverage_paths.empty() || study_snapshot ? &atlas : nullptr;
  forensics::StudyForensics postmortems;
  forensics::StudyForensics* fp =
      g_forensics_paths.empty() ? nullptr : &postmortems;
  const auto seeds = corpus::all_seeds();
  const auto matrix =
      harness::run_matrix(seeds, harness::standard_mechanisms(), config,
                          kRepeats, tp, fp, ap);
  report::AsciiTable t({"mechanism", "EI", "EDN", "EDT", "overall"});
  for (const auto& r : matrix.reports) {
    const auto cell = [&](core::FaultClass c) {
      const auto i = static_cast<std::size_t>(c);
      return std::to_string(r.survived[i]) + "/" + std::to_string(r.total[i]);
    };
    t.add_row({r.mechanism, cell(core::FaultClass::kEnvironmentIndependent),
               cell(core::FaultClass::kEnvDependentNonTransient),
               cell(core::FaultClass::kEnvDependentTransient),
               util::percent(static_cast<double>(r.survived_all()) /
                             static_cast<double>(r.total_all()))});
  }
  std::fputs(t.to_string().c_str(), stdout);
  // Publish atlas gauges before the metrics snapshot is taken, so both the
  // telemetry export and the study snapshot see coverage.
  if (ap != nullptr && tp != nullptr) obs::export_gauges(atlas, study.metrics);
  if (!export_coverage(atlas)) return 1;
  if (fp != nullptr && !export_forensics(matrix, postmortems)) return 1;
  if (tp == nullptr) return 0;  // every output below needs telemetry
  const auto metrics = study.metrics.snapshot();
  std::vector<telemetry::TraceThread> threads;
  threads.reserve(study.traces.size());
  for (const auto& [label, tracer] : study.traces) {
    threads.push_back({label, &tracer});
  }
  if (!export_telemetry(metrics, threads)) return 1;
  if (!study_snapshot) return 0;
  const auto snapshot = obs::build_snapshot(seeds, matrix, atlas, metrics,
                                            config.seed, kRepeats);
  for (const auto& path : g_snapshot_paths) {
    if (!write_export("snapshot", path, obs::to_json(snapshot))) return 1;
  }
  return baseline.has_value() ? report_drift(obs::diff(*baseline, snapshot))
                              : 0;
}

int cmd_diff(const std::string& baseline_path,
             const std::string& candidate_path) {
  obs::StudySnapshot baseline, candidate;
  if (const int rc = load_snapshot(baseline_path, baseline); rc != 0) {
    return rc;
  }
  if (const int rc = load_snapshot(candidate_path, candidate); rc != 0) {
    return rc;
  }
  return report_drift(obs::diff(baseline, candidate));
}

/// A whole argument as a non-negative decimal integer; trailing
/// characters (`4abc`) make it invalid.
std::optional<long long> parse_count(const char* text) {
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || n < 0) return std::nullopt;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull the global flags out, keep the rest positional.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--seed") {
      const auto n = i + 1 < argc ? parse_count(argv[++i]) : std::nullopt;
      if (!n.has_value()) return usage();
      if (arg == "--seed") {
        g_seed = *n;
      } else if (*n < 1) {
        return usage();
      } else {
        g_threads = static_cast<std::size_t>(*n);
      }
      continue;
    }
    bool output = false;
    for (const auto& [prefix, paths] : kOutputFlags) {
      if (!arg.starts_with(prefix)) continue;
      if (arg.size() == prefix.size()) return usage();
      paths->push_back(arg.substr(prefix.size()));
      output = true;
    }
    if (output) continue;
    if (arg.starts_with("--baseline=")) {
      g_baseline_path = arg.substr(std::strlen("--baseline="));
      if (g_baseline_path.empty()) return usage();
      continue;
    }
    if (arg.starts_with("--log-level=")) {
      const auto level =
          util::parse_log_level(arg.substr(std::strlen("--log-level=")));
      if (!level.has_value()) return usage();
      util::set_log_level(*level);
      continue;
    }
    if (arg.starts_with("--")) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
    args.push_back(arg);
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd == "classify") return cmd_classify();
  if (cmd == "taxonomy") return cmd_taxonomy();
  if (cmd == "corpus" && args.size() == 3) return cmd_corpus(args[1], args[2]);
  if (cmd == "mine" && args.size() == 2) return cmd_mine(args[1]);
  if (cmd == "simulate" && args.size() == 3)
    return cmd_simulate(args[1], args[2]);
  if (cmd == "matrix") return cmd_matrix();
  if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
  if (cmd == "report" && args.size() == 2) return cmd_report(args[1]);
  return usage();
}
