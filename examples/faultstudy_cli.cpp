// faultstudy — the study's command-line front end. Run it without
// arguments for its commands, options and exit codes.
//
// `mine` takes an application name (the calibrated synthetic corpus) or a
// tracker dump / mbox file written by `corpus` (or by you). `simulate`
// runs one trial traced with a flight recorder and prints its transcript,
// then its audit: every racy access pair the happens-before detector
// finds, with both threads' event stacks, and every transcript invariant
// violation. A trial that does not survive adds its post-mortem (signature,
// causal chain, env state, flight ring, detector verdicts) and exits 5.
// `--repeats R` adds a stability sweep: R differently seeded trials of the
// same cell, and how many of those that observed the fault survived it.
// `oracle` runs one traced trial per specimen and checks the detector
// against the taxonomy labels. `report` also writes figure{1,2,3}_*.svg
// into the working directory.
//
// `matrix` runs the study once. With any output flag or --baseline it
// attaches every view through report::StudyExports, so each file is the
// same whatever flags come with it; with none it runs bare. Every output
// flag but --baseline may repeat, and each path's extension picks its
// format, so one run writes every artifact. `--threads N` (anywhere on the
// command line) sets the lanes of every sweep; the matrix, oracle and sweep
// results and every matrix/simulate export (simulated-tick traces
// included) are byte-identical for any N. A command given an output flag
// it does not read exits 2.
#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "core/rules.hpp"
#include "corpus/serialize.hpp"
#include "corpus/synth.hpp"
#include "forensics/export.hpp"
#include "harness/experiment.hpp"
#include "mining/pipeline.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "report/oracle.hpp"
#include "report/study_report.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"
#include "stats/series.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

/// Lanes for matrix/mine/oracle and simulate's sweep; 0 = auto (env var,
/// else hardware).
std::size_t g_threads = 0;
/// Base trial seed; < 0 keeps each command's default.
long long g_seed = -1;
/// Trials in simulate's stability sweep; 0 = no sweep.
std::size_t g_repeats = 0;
std::vector<std::string> g_telemetry_paths;
std::vector<std::string> g_trace_paths;
std::vector<std::string> g_coverage_paths;
std::vector<std::string> g_forensics_paths;
std::vector<std::string> g_snapshot_paths;
/// At most one: main() rejects a second --baseline.
std::vector<std::string> g_baseline_paths;

/// The `--flag=PATH` options and the commands that read each.
const struct {
  std::string_view prefix;
  std::vector<std::string>* paths;
  std::array<std::string_view, 2> readers;
} kOutputFlags[] = {
    {"--telemetry=", &g_telemetry_paths, {"matrix", "simulate"}},
    {"--trace=", &g_trace_paths, {"matrix", "simulate"}},
    {"--coverage=", &g_coverage_paths, {"matrix", "simulate"}},
    {"--forensics=", &g_forensics_paths, {"matrix"}},
    {"--snapshot=", &g_snapshot_paths, {"matrix"}},
    {"--baseline=", &g_baseline_paths, {"matrix", "simulate"}},
};

int usage() {
  std::fputs(
      "usage:\n"
      "  faultstudy_cli classify                       (report on stdin)\n"
      "  faultstudy_cli taxonomy                       (trigger ontology)\n"
      "  faultstudy_cli corpus <apache|gnome|mysql> <out-file>\n"
      "  faultstudy_cli mine <apache|gnome|mysql|dump-file>\n"
      "  faultstudy_cli simulate <fault-id> <mechanism>\n"
      "  faultstudy_cli matrix\n"
      "  faultstudy_cli oracle                         (detector vs labels)\n"
      "  faultstudy_cli diff <baseline> <candidate>    (compare snapshots)\n"
      "  faultstudy_cli report <out.md>                (full study report)\n"
      "options (every PATH flag but --baseline may repeat):\n"
      "  --threads N        execution lanes for matrix/mine/oracle and "
      "the simulate sweep (default: FAULTSTUDY_THREADS, else hardware; "
      "results identical for any N)\n"
      "  --seed N           base trial seed for simulate/matrix\n"
      "  --repeats R        simulate: add a stability sweep of R seeded "
      "trials\n"
      "  --telemetry=PATH   matrix/simulate: write a metrics snapshot "
      "(.json = JSON, else Prometheus text)\n"
      "  --trace=PATH       matrix/simulate: write a Chrome trace_event "
      "timeline\n"
      "  --coverage=PATH    matrix/simulate: write the coverage atlas "
      "(.json = JSON, .html = heatmap, else text)\n"
      "  --forensics=PATH   matrix: write the post-mortems (.json = dump, "
      ".html = explorer, else triage text)\n"
      "  --snapshot=PATH    matrix: write the study snapshot\n"
      "  --baseline=PATH    matrix: diff against a study snapshot, exit 4 "
      "on fatal drift; simulate: print what it recorded for the fault\n"
      "exit codes: 0 ok, 1 io, 2 usage, 3 snapshot parse error, 4 drift "
      "or oracle check failed, 5 simulated trial not survived\n",
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

/// Reads the --baseline snapshot, if one was given, before any trial runs,
/// so a bad path fails early. Returns 0 or load_snapshot's exit code.
int load_baseline(std::optional<obs::StudySnapshot>& out) {
  if (g_baseline_paths.empty()) return 0;
  return load_snapshot(g_baseline_paths.front(), out.emplace());
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

/// Writes the --forensics outputs; false on an I/O error.
bool export_forensics(const report::StudyExports& exports) {
  for (const auto& path : g_forensics_paths) {
    const std::string payload =
        path.ends_with(".json")
            ? forensics::to_json(exports.forensics, exports.triage)
        : path.ends_with(".html") ? exports.explorer()
                                  : exports.triage_text();
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
  const auto& reports = results.exports.matrix.reports;
  std::printf("\nheadline: generic recovery survived %zu/%zu faults; "
              "app-specific %zu/%zu\n",
              reports.front().survived_all(), reports.front().total_all(),
              reports.back().survived_all(), reports.back().total_all());
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
  mining::PipelineOptions options;
  options.threads = g_threads;
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

/// The trial's correctness audit: every racy access pair the
/// happens-before detector finds in the synchronization trace, with both
/// threads' event stacks, then the transcript's invariant violations.
void print_audit(const harness::TrialObservation& observation) {
  const std::span<const env::TraceEvent> trace(observation.trace);
  const auto& races = observation.races;
  if (races.empty()) {
    std::printf("happens-before detector: no races\n");
  } else {
    std::printf("happens-before detector: %zu racy access pair(s)\n\n",
                races.size());
    for (const auto& race : races) {
      std::printf("%s\n", analysis::to_string(race, trace).c_str());
    }
  }
  const auto& violations = observation.violations;
  if (violations.empty()) {
    std::printf("invariant checker: transcript clean\n");
  } else {
    std::printf("invariant checker: %zu violation(s)\n%s", violations.size(),
                analysis::to_string(violations).c_str());
  }
}

/// What a study snapshot recorded for one specimen.
void print_baseline(const obs::StudySnapshot& baseline,
                    const std::string& fault_id) {
  for (const auto& row : baseline.specimens) {
    if (row.fault_id != fault_id) continue;
    std::printf("baseline  : study recorded %llu probes hit over %llu "
                "trials for this specimen\n",
                static_cast<unsigned long long>(row.probes_hit),
                static_cast<unsigned long long>(row.trials));
    return;
  }
  std::printf("baseline  : %s has no record of %s\n",
              g_baseline_paths.front().c_str(), fault_id.c_str());
}

/// The stability sweep: races and timing phases are probabilistic, so one
/// trial can mislead. Re-runs the cell over `repeats` differently seeded
/// trials on the --threads lanes and reports how many of those that
/// observed the fault survived it.
void print_stability(const corpus::SeedFault& seed,
                     const harness::MechanismFactory& factory,
                     std::size_t repeats) {
  const auto outcomes = util::parallel_map<harness::TrialOutcome>(
      repeats, g_threads, [&](std::size_t r) {
        harness::TrialConfig config;
        config.seed = 1000 + static_cast<std::uint64_t>(r) * 131 +
                      util::fnv1a(seed.fault_id);
        auto mechanism = factory();
        return harness::run_trial(inject::plan_for(seed, config.seed),
                                  *mechanism, config);
      });
  std::size_t observed = 0, survived = 0;
  for (const auto& o : outcomes) {
    if (!o.failure_observed) continue;
    ++observed;
    if (o.survived) ++survived;
  }
  std::printf("stability: survived %zu/%zu fault-observing trials "
              "(%zu of %zu repeats, %zu lanes)\n",
              survived, observed, observed, repeats,
              util::resolve_threads(g_threads));
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
  std::optional<obs::StudySnapshot> baseline;
  if (const int rc = load_baseline(baseline); rc != 0) return rc;
  // Defaults match the pre-flag behavior exactly: plan seed 42, trial
  // config seed 99; --seed N sets both.
  harness::TrialConfig config;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  // Traced, with every view attached: a failed trial's post-mortem carries
  // the race-detector and invariant-checker verdicts in its detection stage.
  harness::TrialObservation observation;
  forensics::FlightRecorder ring;
  telemetry::TrialTelemetry telem;
  obs::CoverageMap cover;
  const obs::TrialSinks sinks{
      .telemetry = &telem, .flight = &ring, .coverage = &cover};
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
  std::printf("mechanism : %s\n\n", mechanism.c_str());
  std::fputs(observation.transcript.to_string().c_str(), stdout);
  std::printf("\nobserved  : %zu failures, %zu recoveries, %zu trace events\n",
              outcome.failures, outcome.recoveries, observation.trace.size());
  std::printf("verdict   : %s\n",
              outcome.survived ? "SURVIVED" : "NOT SURVIVED");
  if (!outcome.first_failure.empty()) {
    std::printf("first failure: %s\n", outcome.first_failure.c_str());
  }
  std::printf("\n");
  print_audit(observation);
  telemetry::MetricsRegistry registry;
  telemetry::fold_into(telem, mechanism, registry);
  if (!export_telemetry(registry.snapshot(),
                        {{fault_id + "/" + mechanism, &telem.spans}})) {
    return 1;
  }
  if (!g_coverage_paths.empty() || baseline.has_value()) {
    obs::CoverageAtlas atlas;
    atlas.begin_study({*seed}, {mechanism});
    atlas.fold_trial(*seed, cover);
    std::printf("coverage  : %zu/%zu probes hit in this trial\n",
                atlas.probes_hit(), obs::CoverageAtlas::probe_universe());
    if (!export_coverage(atlas)) return 1;
  }
  if (baseline.has_value()) print_baseline(*baseline, fault_id);
  if (outcome.postmortem.has_value()) print_postmortem(*outcome.postmortem);
  if (g_repeats > 0) print_stability(*seed, factory, g_repeats);
  return outcome.survived ? 0 : 5;
}

/// The detector-vs-taxonomy cross-check: one traced trial per specimen,
/// the confusion table and every disagreement. Exits 4 when agreement is
/// below 90% or the detector fires on an environment-independent fault.
int cmd_oracle() {
  const auto seeds = corpus::all_seeds();
  std::printf("running traced trials for %zu specimens...\n\n", seeds.size());
  const auto report =
      harness::run_oracle_crosscheck(seeds, {.threads = g_threads});
  std::fputs(report::render_oracle_confusion(report).c_str(), stdout);
  std::printf("\nagreement: %.1f%% over %zu specimens\n",
              report.agreement() * 100.0, report.total());
  bool disagreed = false;
  for (const auto& row : report.rows) {
    if (row.race_labeled == row.detector_fired) continue;
    disagreed = true;
    std::printf("  DISAGREE %s (%s): %s\n", row.fault_id.c_str(),
                std::string(core::to_string(row.trigger)).c_str(),
                row.detector_fired ? "fired on a non-race label"
                                   : "race label but detector silent");
  }
  if (!disagreed) std::printf("no disagreements.\n");
  return report.agreement() >= 0.9 && report.ei_fired == 0 ? 0 : 4;
}

int cmd_matrix() {
  constexpr int kRepeats = 3;
  std::optional<obs::StudySnapshot> baseline;
  if (const int rc = load_baseline(baseline); rc != 0) return rc;
  harness::TrialConfig config;
  config.threads = g_threads;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  std::printf("matrix: seed=%llu threads=%zu\n",
              static_cast<unsigned long long>(config.seed),
              util::resolve_threads(g_threads));
  // Any output attaches every view; with none the matrix runs bare.
  std::optional<report::StudyExports> exports;
  harness::MatrixResult bare;
  if (std::ranges::any_of(kOutputFlags,
                          [](const auto& f) { return !f.paths->empty(); })) {
    exports.emplace(config, kRepeats);
  } else {
    bare = harness::run_matrix(corpus::all_seeds(),
                               harness::standard_mechanisms(), config,
                               kRepeats);
  }
  const auto& matrix = exports.has_value() ? exports->matrix : bare;
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
  if (!exports.has_value()) return 0;
  if (!export_coverage(exports->coverage) || !export_forensics(*exports) ||
      !export_telemetry(exports->metrics, exports->trace_threads())) {
    return 1;
  }
  const auto snapshot = exports->snapshot();
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
/// characters (`4abc`) or a value past the range of long long make it
/// invalid.
std::optional<long long> parse_count(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || n < 0) {
    return std::nullopt;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull the global flags out, keep the rest positional.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--seed" || arg == "--repeats") {
      const auto n = i + 1 < argc ? parse_count(argv[++i]) : std::nullopt;
      if (!n.has_value()) return usage();
      if (arg == "--seed") {
        g_seed = *n;
      } else if (arg == "--repeats") {
        g_repeats = static_cast<std::size_t>(*n);
      } else if (*n < 1) {
        return usage();
      } else {
        g_threads = static_cast<std::size_t>(*n);
      }
      continue;
    }
    bool output = false;
    for (const auto& flag : kOutputFlags) {
      if (!arg.starts_with(flag.prefix)) continue;
      if (arg.size() == flag.prefix.size()) return usage();
      flag.paths->push_back(arg.substr(flag.prefix.size()));
      output = true;
    }
    if (output) continue;
    if (arg.starts_with("--")) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
    args.push_back(arg);
  }
  if (g_baseline_paths.size() > 1) {
    std::fputs("--baseline=PATH may be given only once\n", stderr);
    return usage();
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  for (const auto& flag : kOutputFlags) {
    if (!flag.paths->empty() && std::ranges::count(flag.readers, cmd) == 0) {
      std::fprintf(stderr, "%s does not read %sPATH\n", cmd.c_str(),
                   flag.prefix.data());
      return usage();
    }
  }
  if (cmd == "classify") return cmd_classify();
  if (cmd == "taxonomy") return cmd_taxonomy();
  if (cmd == "corpus" && args.size() == 3) return cmd_corpus(args[1], args[2]);
  if (cmd == "mine" && args.size() == 2) return cmd_mine(args[1]);
  if (cmd == "simulate" && args.size() == 3)
    return cmd_simulate(args[1], args[2]);
  if (cmd == "matrix") return cmd_matrix();
  if (cmd == "oracle") return cmd_oracle();
  if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
  if (cmd == "report" && args.size() == 2) return cmd_report(args[1]);
  return usage();
}
