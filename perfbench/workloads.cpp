#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "corpus/seeds.hpp"
#include "corpus/synth.hpp"
#include "forensics/export.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "inject/specimen.hpp"
#include "ledger.hpp"
#include "mining/pipeline.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"
#include "timed_roster.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::bench {

void Samples::add(std::string_view name, double value) {
  samples_[std::string(name)].push_back(value);
}

double Samples::median(std::string_view name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : bench::median(it->second);
}

std::vector<std::string> Samples::names() const {
  std::vector<std::string> out;
  for (const auto& entry : samples_) out.push_back(entry.first);
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

constexpr int kRepeats = 3;
/// Trial seed the committed baseline was recorded at.
constexpr std::uint64_t kBaselineSeed = 99;
/// SynthConfig's default seed; the paper's Tables 1-3 hold exactly there.
constexpr std::uint64_t kPaperSynthSeed = 20000625;
/// Metric-name spelling of the apps, in core::AppId order.
constexpr std::array<std::string_view, 3> kAppNames = {"apache", "gnome",
                                                       "mysql"};

template <typename Fn>
std::int64_t time_ns(Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  return now_ns() - start;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The self-test's fault subset: the first seed of every (app, class).
std::vector<corpus::SeedFault> smoke_seeds() {
  std::vector<corpus::SeedFault> out;
  std::array<std::array<bool, 3>, 3> seen{};
  for (corpus::SeedFault& seed : corpus::all_seeds()) {
    bool& s = seen[static_cast<std::size_t>(seed.app)]
                  [static_cast<std::size_t>(corpus::seed_class(seed))];
    if (!s) out.push_back(std::move(seed));
    s = true;
  }
  return out;
}

// --- matrix and matrix-observed ---------------------------------------------

/// What matrix-observed does with a result after the sweep, stage by stage.
struct ObservedStages {
  std::int64_t atlas_ns = 0;
  std::int64_t telemetry_ns = 0;
  std::size_t telemetry_bytes = 0;
  std::int64_t triage_ns = 0;
  std::int64_t forensics_export_ns = 0;
  std::size_t forensics_bytes = 0;
  std::size_t postmortems = 0;
  std::int64_t snapshot_ns = 0;
  obs::StudySnapshot candidate;
  std::int64_t diff_ns = 0;
  obs::DriftReport drift;
  std::int64_t oracle_ns = 0;
  std::size_t oracle_rows = 0;
  double oracle_agreement = 0.0;
};

class MatrixWorkload final : public Workload {
 public:
  MatrixWorkload(const WorkloadOptions& options, bool observed)
      : options_(options), observed_(observed) {}

  void prepare(std::uint64_t seed) override {
    seeds_ = options_.smoke ? smoke_seeds() : corpus::all_seeds();
    roster_ = harness::standard_mechanisms();
    auto parsed = obs::parse_snapshot(read_file(options_.baseline_path));
    if (!parsed.ok()) {
      throw std::runtime_error(options_.baseline_path + ": " + parsed.error());
    }
    baseline_ = std::move(parsed).value();
    config_ = harness::TrialConfig{};
    config_.seed = seed;
    config_.threads = kLanes;
  }

  Pass run() override {
    Pass pass;
    last_ = sweep(roster_, pass);
    return pass;
  }

  std::uint64_t reference_seed() const noexcept override {
    return kBaselineSeed;
  }

  Pass run_traced(Samples& layers) override {
    TimedRoster timed(roster_);
    Pass pass;
    const harness::MatrixResult traced = sweep(timed.roster(), pass);
    if (pass.failure.empty() && rows_of(traced) != rows_of(last_)) {
      pass.failure = "traced MatrixResult differs from the untraced one";
    }
    const RosterTally tally = timed.take();
    if (tally.app_ns() != tally.mech_child_ns[kAttach] +
                              tally.mech_child_ns[kCheckpoint] +
                              tally.mech_child_ns[kRecover]) {
      pass.failure = "an app call escaped every mechanism hook";
    }
    record(tally, pass.core_s, layers);
    if (observed_) record(stages_, layers);
    if (pass.failure.empty() && options_.smoke) {
      pass.failure = check_proxy_verdicts();
    }
    return pass;
  }

 private:
  /// One pass: the sweep (timed as the core call) and, for
  /// matrix-observed, every export and check CI runs on its result.
  harness::MatrixResult sweep(const std::vector<harness::NamedMechanism>& roster,
                              Pass& pass) {
    telemetry::StudyTelemetry study;
    forensics::StudyForensics forensics;
    obs::CoverageAtlas atlas;
    harness::MatrixResult result;
    const std::int64_t ns = time_ns([&] {
      result = observed_
                   ? harness::run_matrix(seeds_, roster, config_, kRepeats,
                                         &study, &forensics, &atlas)
                   : harness::run_matrix(seeds_, roster, config_, kRepeats);
    });
    pass.core_s = seconds(ns);
    pass.items = seeds_.size() * roster.size() * kRepeats;
    pass.failure = check_rows(result);
    if (observed_) {
      stages_ = observe(result, study, forensics, atlas);
      if (pass.failure.empty()) pass.failure = check_observed(stages_);
    }
    return result;
  }

  /// Runs every seed under every mechanism twice, on the real mechanism and
  /// through the timed wrapper: the proxy's mirroring of running() and
  /// fault() must leave each trial's outcome unchanged (rejuvenation and
  /// app-specific recovery read running() to report success).
  std::string check_proxy_verdicts() const {
    TimedRoster timed(roster_);
    for (std::size_t m = 0; m < roster_.size(); ++m) {
      for (const corpus::SeedFault& seed : seeds_) {
        harness::TrialConfig tc = config_;
        tc.seed = config_.seed + util::fnv1a(seed.fault_id);
        const inject::InjectionPlan plan = inject::plan_for(seed, tc.seed);
        const auto plain = roster_[m].make();
        const auto wrapped = timed.roster()[m].make();
        const harness::TrialOutcome a = harness::run_trial(plan, *plain, tc);
        const harness::TrialOutcome b =
            harness::run_trial(plan, *wrapped, tc);
        if (a.survived != b.survived ||
            a.failure_observed != b.failure_observed ||
            a.failures != b.failures || a.recoveries != b.recoveries ||
            a.items_reexecuted != b.items_reexecuted ||
            a.state_preserved != b.state_preserved ||
            a.first_failure != b.first_failure) {
          return "timed " + roster_[m].name + " changed the outcome of " +
                 seed.fault_id;
        }
      }
    }
    return {};
  }

  /// The result's survival rows, as the study snapshot records them.
  std::vector<obs::StudySnapshot::MatrixRow> rows_of(
      const harness::MatrixResult& result) const {
    return obs::build_snapshot(seeds_, result, obs::CoverageAtlas{}, {},
                               config_.seed, kRepeats)
        .matrix;
  }

  /// Survival rows against the baseline's: identical at the baseline's own
  /// seed. Elsewhere the environment-independent and non-transient classes
  /// must still match it exactly (their verdicts do not depend on the
  /// interleaving), while the race-driven EDT class only has to keep a
  /// majority of survivors: on 240 trial seeds a generic mechanism lost up
  /// to 2 of its 12 EDT faults, or saw one never trigger.
  std::string check_rows(const harness::MatrixResult& result) const {
    if (options_.smoke) return {};
    const auto rows = rows_of(result);
    if (config_.seed == kBaselineSeed) {
      return rows == baseline_.matrix
                 ? std::string()
                 : "matrix rows differ from the baseline at its own seed";
    }
    if (rows.size() != baseline_.matrix.size()) return "mechanism roster changed";
    constexpr auto kEdt =
        static_cast<std::size_t>(core::FaultClass::kEnvDependentTransient);
    for (std::size_t m = 0; m < rows.size(); ++m) {
      const auto& got = rows[m];
      const auto& want = baseline_.matrix[m];
      for (std::size_t c = 0; c < 3; ++c) {
        const bool ok =
            c == kEdt ? got.total[c] <= want.total[c] &&
                            got.survived[c] * 2 > got.total[c]
                      : got.total[c] == want.total[c] &&
                            got.survived[c] == want.survived[c];
        if (!ok) {
          return got.mechanism + " class " + std::to_string(c) + " survived " +
                 std::to_string(got.survived[c]) + "/" +
                 std::to_string(got.total[c]) + ", baseline " +
                 std::to_string(want.survived[c]) + "/" +
                 std::to_string(want.total[c]);
        }
      }
    }
    return {};
  }

  /// Everything but the survival rows (checked by check_rows) must show no
  /// fatal drift; at the baseline's own seed, no drift at all. The oracle
  /// must agree with the taxonomy on every specimen.
  std::string check_observed(const ObservedStages& stages) const {
    if (stages.oracle_agreement != 1.0) return "oracle agreement below 1.0";
    if (options_.smoke) return {};
    if (config_.seed == kBaselineSeed) {
      return stages.drift.empty()
                 ? std::string()
                 : "drift against the baseline at its own seed:\n" +
                       obs::render_text(stages.drift);
    }
    obs::StudySnapshot rest = stages.candidate;
    rest.matrix = baseline_.matrix;
    const obs::DriftReport drift = obs::diff(baseline_, rest);
    return drift.regressed()
               ? "fatal drift against the baseline:\n" + obs::render_text(drift)
               : std::string();
  }

  ObservedStages observe(const harness::MatrixResult& result,
                         telemetry::StudyTelemetry& study,
                         const forensics::StudyForensics& forensics,
                         const obs::CoverageAtlas& atlas) const {
    ObservedStages s;
    // Atlas gauges go into the registry first, as the CLIs do, so the
    // metrics export and the snapshot both see coverage.
    s.atlas_ns = time_ns([&] {
      obs::export_gauges(atlas, study.metrics);
      (void)obs::to_json(atlas);
      (void)obs::render_heatmap_html(atlas);
    });
    telemetry::MetricsSnapshot metrics;
    s.telemetry_ns = time_ns([&] {
      metrics = study.metrics.snapshot();
      std::vector<telemetry::TraceThread> threads;
      threads.reserve(study.traces.size());
      for (const auto& [label, tracer] : study.traces) {
        threads.push_back({label, &tracer});
      }
      s.telemetry_bytes = telemetry::to_chrome_trace(threads).size() +
                          telemetry::to_json(metrics).size();
    });
    std::vector<forensics::TriageCluster> clusters;
    s.triage_ns =
        time_ns([&] { clusters = forensics::triage(forensics.postmortems); });
    s.postmortems = forensics.failures();
    s.forensics_export_ns = time_ns([&] {
      std::vector<forensics::MechanismSuccessRow> rows;
      for (const harness::MechanismReport& r : result.reports) {
        rows.push_back({r.mechanism, r.generic, r.survived_all(),
                        r.total_all(), r.state_losses});
      }
      s.forensics_bytes =
          forensics::to_json(forensics, clusters).size() +
          forensics::render_explorer_html(forensics, clusters, rows,
                                          "Fault-forensics study explorer")
              .size();
    });
    s.snapshot_ns = time_ns([&] {
      s.candidate = obs::build_snapshot(seeds_, result, atlas, metrics,
                                        config_.seed, kRepeats);
    });
    s.diff_ns = time_ns([&] { s.drift = obs::diff(baseline_, s.candidate); });
    harness::OracleReport oracle;
    s.oracle_ns = time_ns(
        [&] { oracle = harness::run_oracle_crosscheck(seeds_, config_); });
    s.oracle_rows = oracle.total();
    s.oracle_agreement = oracle.agreement();
    return s;
  }

  void record(const RosterTally& t, double sweep_s, Samples& layers) const {
    static constexpr std::array<std::string_view, kAppOps> kOpNames = {
        "start", "stop", "snapshot", "restore", "rejuvenate"};
    for (std::size_t op = 0; op < kAppOps; ++op) {
      const std::string prefix = "apps." + std::string(kOpNames[op]);
      layers.add(prefix + ".calls", static_cast<double>(t.app[op].calls));
      layers.add(prefix + ".busy_s", seconds(t.app[op].ns));
      layers.add(prefix + ".allocs", static_cast<double>(t.app[op].allocs));
    }
    static constexpr std::array<std::string_view, kMechOps> kMechNames = {
        "attach", "checkpoint", "recover"};
    for (std::size_t op = 0; op < kMechOps; ++op) {
      const std::string prefix = "recovery." + std::string(kMechNames[op]);
      layers.add(prefix + ".calls", static_cast<double>(t.mech[op].calls));
      layers.add(prefix + ".busy_s", seconds(t.mech[op].ns));
    }
    layers.add("recovery.recover.self_s",
               seconds(t.mech[kRecover].ns - t.mech_child_ns[kRecover]));
    layers.add("recovery.self_s", seconds(t.mech_self_ns()));
    if (t.mech[kRecover].calls > 0) {
      layers.add("recovery.recovered_ratio",
                 static_cast<double>(t.recovered) /
                     static_cast<double>(t.mech[kRecover].calls));
    }
    const double trials = static_cast<double>(t.trials.calls);
    layers.add("harness.trials", trials);
    layers.add("harness.trial_busy_s", seconds(t.trials.ns));
    layers.add("harness.trial_self_s", seconds(t.trial_self_ns()));
    if (trials > 0) {
      layers.add("harness.allocs_per_trial",
                 static_cast<double>(t.trials.allocs) / trials);
    }
    for (std::size_t app = 0; app < kAppNames.size(); ++app) {
      layers.add("harness.trial_busy_s." + std::string(kAppNames[app]),
                 seconds(t.trial_ns_by_app[app]));
    }
    for (std::size_t m = 0; m < roster_.size(); ++m) {
      layers.add("harness.trial_busy_s." + roster_[m].name,
                 seconds(t.trial_ns_by_mechanism[m]));
    }
    layers.add("util.lane_busy_ratio",
               seconds(t.trials.ns) /
                   (sweep_s * static_cast<double>(kLanes)));
  }

  static void record(const ObservedStages& s, Samples& layers) {
    layers.add("obs.atlas.busy_s", seconds(s.atlas_ns));
    layers.add("telemetry.export.busy_s", seconds(s.telemetry_ns));
    layers.add("telemetry.export.bytes", static_cast<double>(s.telemetry_bytes));
    layers.add("forensics.postmortems", static_cast<double>(s.postmortems));
    layers.add("forensics.triage.busy_s", seconds(s.triage_ns));
    layers.add("forensics.export.busy_s", seconds(s.forensics_export_ns));
    layers.add("forensics.export.bytes", static_cast<double>(s.forensics_bytes));
    layers.add("obs.snapshot.busy_s", seconds(s.snapshot_ns));
    layers.add("obs.diff.busy_s", seconds(s.diff_ns));
    layers.add("obs.diff.fatal", static_cast<double>(s.drift.fatal_count()));
    layers.add("analysis.oracle.busy_s", seconds(s.oracle_ns));
    layers.add("analysis.oracle.rows", static_cast<double>(s.oracle_rows));
    layers.add("analysis.oracle.agreement", s.oracle_agreement);
  }

  WorkloadOptions options_;
  bool observed_;
  std::vector<corpus::SeedFault> seeds_;
  std::vector<harness::NamedMechanism> roster_;
  obs::StudySnapshot baseline_;
  harness::TrialConfig config_;
  harness::MatrixResult last_;
  ObservedStages stages_;
};

// --- mine -------------------------------------------------------------------

// The replay below calls the pipeline's stages one by one, in pipeline
// order, so each gets its own span. The glue between stages (document
// assembly, cluster merge) mirrors mining/pipeline.cpp; the replay must
// reproduce the pipeline's funnels, clusters and classifications exactly,
// which proves the mirror is faithful.

void append_field(std::string& into, const std::string& piece) {
  if (piece.empty()) return;
  if (!into.empty()) into += '\n';
  into += piece;
}

std::string extract_how_to_repeat(const std::string& body) {
  static constexpr std::string_view kTag = "How-To-Repeat:";
  const auto pos = body.find(kTag);
  if (pos == std::string::npos) return {};
  const auto start = pos + kTag.size();
  auto end = body.find("\nVersion:", start);
  if (end == std::string::npos) end = body.size();
  return std::string(
      util::trim(std::string_view(body).substr(start, end - start)));
}

bool names_known_release(const std::string& body) {
  static constexpr std::string_view kTag = "Version:";
  const auto pos = body.find(kTag);
  if (pos == std::string::npos) return false;
  auto line_end = body.find('\n', pos);
  if (line_end == std::string::npos) line_end = body.size();
  const auto version = util::trim(std::string_view(body).substr(
      pos + kTag.size(), line_end - pos - kTag.size()));
  const auto& releases = corpus::mysql_releases();
  return std::find(releases.begin(), releases.end(), version) !=
         releases.end();
}

/// Stage spans and counts of one replayed pass, summed over the sources.
struct MineStages {
  std::int64_t filter_ns = 0;
  std::size_t kept = 0;
  std::int64_t keyword_ns = 0;
  std::size_t messages = 0;
  std::size_t hits = 0;
  std::int64_t dedup_ns = 0;
  std::size_t docs = 0;
  std::size_t clusters = 0;
  std::int64_t classify_ns = 0;       ///< stage wall span
  std::int64_t classify_busy_ns = 0;  ///< summed per-call spans
  std::size_t classify_calls = 0;
};

class MineWorkload final : public Workload {
 public:
  explicit MineWorkload(const WorkloadOptions& options) : options_(options) {
    pipeline_.threads = kLanes;
  }

  void prepare(std::uint64_t seed) override {
    corpus::SynthConfig config;
    config.seed = seed;
    synth_seed_ = seed;
    generate_ns_ = time_ns([&] {
      apache_ = corpus::make_apache_tracker(config);
      gnome_ = corpus::make_gnome_tracker(config);
      mysql_ = corpus::make_mysql_list(config);
    });
  }

  Pass run() override {
    Pass pass;
    const std::uint64_t allocs = process_allocs();
    const std::int64_t ns = time_ns([&] {
      results_[0] = mining::run_tracker_pipeline(apache_, pipeline_);
      results_[1] = mining::run_tracker_pipeline(gnome_, pipeline_);
      results_[2] = mining::run_mailinglist_pipeline(mysql_, pipeline_);
    });
    allocs_ = process_allocs() - allocs;
    pipeline_ns_ = ns;
    pass.core_s = seconds(ns);
    pass.items = apache_.size() + gnome_.size() + mysql_.size();
    pass.failure = check();
    return pass;
  }

  std::uint64_t reference_seed() const noexcept override {
    return kPaperSynthSeed;
  }

  Pass run_traced(Samples& layers) override {
    Pass pass;
    MineStages st;
    std::string failure;
    const std::int64_t ns = time_ns([&] {
      failure = replay_tracker(apache_, results_[0], st);
      if (failure.empty()) failure = replay_tracker(gnome_, results_[1], st);
      if (failure.empty()) failure = replay_list(mysql_, results_[2], st);
    });
    pass.core_s = seconds(ns);
    pass.items = apache_.size() + gnome_.size() + mysql_.size();
    pass.failure = failure;

    layers.add("corpus.generate_s", seconds(generate_ns_));
    layers.add("mining.filter.busy_s", seconds(st.filter_ns));
    layers.add("mining.filter.kept", static_cast<double>(st.kept));
    layers.add("mining.keyword.busy_s", seconds(st.keyword_ns));
    layers.add("mining.keyword.messages", static_cast<double>(st.messages));
    layers.add("mining.keyword.hits", static_cast<double>(st.hits));
    layers.add("mining.dedup.busy_s", seconds(st.dedup_ns));
    layers.add("mining.dedup.docs", static_cast<double>(st.docs));
    layers.add("mining.dedup.clusters", static_cast<double>(st.clusters));
    layers.add("core.classify.calls", static_cast<double>(st.classify_calls));
    layers.add("core.classify.busy_s", seconds(st.classify_busy_ns));
    if (st.classify_calls > 0) {
      layers.add("core.classify.us_per_call",
                 static_cast<double>(st.classify_busy_ns) * 1e-3 /
                     static_cast<double>(st.classify_calls));
    }
    layers.add("mining.allocs_per_pass", static_cast<double>(allocs_));
    layers.add("mining.stage_coverage",
               seconds(st.filter_ns + st.keyword_ns + st.dedup_ns +
                       st.classify_ns) /
                   seconds(pipeline_ns_));
    return pass;
  }

 private:
  /// The paper's 50/45/44 unique bugs and Tables 1-3 at the paper's synth
  /// seed. Elsewhere each count may be off by one: on 2 of ~1,000 other
  /// seeds checked, deduplication merged two Apache faults into one.
  std::string check() const {
    static constexpr std::array<std::size_t, 3> kBugs = {50, 45, 44};
    // Tables 1-3 of the paper: EI/EDN/EDT per app.
    static constexpr std::array<std::array<std::size_t, 3>, 3> kTables = {
        {{36, 7, 7}, {39, 3, 3}, {38, 4, 2}}};
    const bool reference = synth_seed_ == kPaperSynthSeed;
    for (std::size_t a = 0; a < 3; ++a) {
      const mining::PipelineResult& r = results_[a];
      const std::size_t off = r.bugs.size() > kBugs[a]
                                  ? r.bugs.size() - kBugs[a]
                                  : kBugs[a] - r.bugs.size();
      if (off > (reference ? 0 : 1)) {
        return std::string(kAppNames[a]) + ": " + std::to_string(r.bugs.size()) +
               " unique bugs, expected " + std::to_string(kBugs[a]);
      }
      if (!reference) continue;
      std::array<std::size_t, 3> tally{};
      for (const mining::UniqueBug& bug : r.bugs) {
        ++tally[static_cast<std::size_t>(bug.classification.fault_class)];
      }
      if (tally != kTables[a]) {
        return std::string(kAppNames[a]) + ": class tallies differ from the paper";
      }
    }
    return {};
  }

  /// Classifies clusters on the workload's lanes, one span per call.
  /// `text(ci)` returns the cluster's merged report, or nullopt for a
  /// cluster the pipeline drops.
  template <typename TextFn>
  std::vector<std::optional<core::Classification>> classify(
      std::size_t clusters, TextFn&& text, MineStages& st) const {
    const core::RuleClassifier classifier(pipeline_.policy);
    std::vector<std::int64_t> busy(clusters, 0);
    std::vector<std::optional<core::Classification>> out;
    st.classify_ns += time_ns([&] {
      out = util::parallel_map<std::optional<core::Classification>>(
          clusters, kLanes, [&](std::size_t ci) {
            std::optional<core::ReportText> report = text(ci);
            std::optional<core::Classification> c;
            if (report.has_value()) {
              busy[ci] = time_ns([&] { c = classifier.classify(*report); });
            }
            return c;
          });
    });
    for (std::size_t ci = 0; ci < clusters; ++ci) {
      if (!out[ci].has_value()) continue;
      ++st.classify_calls;
      st.classify_busy_ns += busy[ci];
    }
    return out;
  }

  mining::DedupParams dedup_params() const {
    mining::DedupParams params = pipeline_.dedup;
    if (params.threads == 0) params.threads = pipeline_.threads;
    return params;
  }

  std::vector<std::vector<std::size_t>> dedup(
      const std::vector<mining::DedupDoc>& docs, MineStages& st) const {
    std::vector<std::vector<std::size_t>> clusters;
    st.dedup_ns += time_ns(
        [&] { clusters = mining::cluster_documents(docs, dedup_params()); });
    st.docs += docs.size();
    st.clusters += clusters.size();
    return clusters;
  }

  static std::string compare(
      const mining::PipelineResult& expected, std::size_t clusters,
      const std::vector<std::optional<core::Classification>>& classes) {
    if (clusters != expected.clusters) return "replayed cluster count differs";
    std::size_t bug = 0;
    for (const auto& c : classes) {
      if (!c.has_value()) continue;
      if (bug >= expected.bugs.size()) return "replay found extra bugs";
      const core::Classification& want = expected.bugs[bug++].classification;
      if (c->fault_class != want.fault_class || c->trigger != want.trigger) {
        return "replayed classification differs";
      }
    }
    return bug == expected.bugs.size() ? std::string()
                                       : "replay found fewer bugs";
  }

  std::string replay_tracker(const corpus::BugTracker& tracker,
                             const mining::PipelineResult& expected,
                             MineStages& st) const {
    mining::FilterFunnel funnel;
    std::vector<corpus::BugReport> candidates;
    st.filter_ns += time_ns(
        [&] { candidates = mining::study_candidates(tracker, &funnel); });
    st.kept += candidates.size();
    const mining::FilterFunnel& want = expected.filter_funnel;
    if (funnel.total != want.total || funnel.runtime != want.runtime ||
        funnel.production != want.production || funnel.severe != want.severe) {
      return "replayed filter funnel differs";
    }

    std::vector<mining::DedupDoc> docs;
    docs.reserve(candidates.size());
    for (const corpus::BugReport& r : candidates) {
      docs.push_back({r.id, r.text.title + ' ' + r.text.how_to_repeat + ' ' +
                                r.text.body});
    }
    const auto clusters = dedup(docs, st);
    const auto classes = classify(
        clusters.size(),
        [&](std::size_t ci) -> std::optional<core::ReportText> {
          const auto& cluster = clusters[ci];
          std::size_t primary = cluster.front();
          for (std::size_t idx : cluster) {
            if (candidates[idx].date < candidates[primary].date ||
                (candidates[idx].date == candidates[primary].date &&
                 candidates[idx].id < candidates[primary].id)) {
              primary = idx;
            }
          }
          core::ReportText combined;
          combined.title = candidates[primary].text.title;
          for (std::size_t idx : cluster) {
            append_field(combined.body, candidates[idx].text.body);
            append_field(combined.developer_comments,
                         candidates[idx].text.developer_comments);
          }
          combined.how_to_repeat = candidates[primary].text.how_to_repeat;
          return combined;
        },
        st);
    return compare(expected, clusters.size(), classes);
  }

  std::string replay_list(const corpus::MailingList& list,
                          const mining::PipelineResult& expected,
                          MineStages& st) const {
    mining::KeywordFunnel funnel;
    std::vector<mining::MinedThread> threads;
    st.keyword_ns += time_ns([&] {
      threads = mining::mine_threads(list, mining::study_keywords(), &funnel);
    });
    st.messages += funnel.total_messages;
    st.hits += funnel.keyword_hits;
    const mining::KeywordFunnel& want = expected.keyword_funnel;
    if (funnel.total_messages != want.total_messages ||
        funnel.keyword_hits != want.keyword_hits ||
        funnel.report_shaped != want.report_shaped ||
        funnel.threads != want.threads) {
      return "replayed keyword funnel differs";
    }

    std::vector<mining::DedupDoc> docs;
    docs.reserve(threads.size());
    for (const mining::MinedThread& t : threads) {
      docs.push_back({t.root.id, t.root.subject + ' ' + t.root.body});
    }
    const auto clusters = dedup(docs, st);
    const auto classes = classify(
        clusters.size(),
        [&](std::size_t ci) -> std::optional<core::ReportText> {
          const auto& cluster = clusters[ci];
          std::size_t primary = cluster.front();
          for (std::size_t idx : cluster) {
            if (threads[idx].root.date < threads[primary].root.date) {
              primary = idx;
            }
          }
          const corpus::MailMessage& root = threads[primary].root;
          if (!names_known_release(root.body)) return std::nullopt;
          core::ReportText combined;
          combined.title = root.subject;
          combined.how_to_repeat = extract_how_to_repeat(root.body);
          for (std::size_t idx : cluster) {
            append_field(combined.body, threads[idx].root.body);
            for (const corpus::MailMessage& reply : threads[idx].replies) {
              append_field(combined.developer_comments, reply.body);
            }
          }
          return combined;
        },
        st);
    return compare(expected, clusters.size(), classes);
  }

  WorkloadOptions options_;
  mining::PipelineOptions pipeline_;
  std::uint64_t synth_seed_ = kPaperSynthSeed;
  std::int64_t generate_ns_ = 0;
  corpus::BugTracker apache_{core::AppId::kApache};
  corpus::BugTracker gnome_{core::AppId::kGnome};
  corpus::MailingList mysql_;
  std::array<mining::PipelineResult, 3> results_;
  std::uint64_t allocs_ = 0;       ///< process-wide, last untraced pass
  std::int64_t pipeline_ns_ = 0;  ///< pipeline calls, last untraced pass
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const WorkloadOptions& options) {
  if (name == "matrix") return std::make_unique<MatrixWorkload>(options, false);
  if (name == "matrix-observed") {
    return std::make_unique<MatrixWorkload>(options, true);
  }
  if (name == "mine") return std::make_unique<MineWorkload>(options);
  return nullptr;
}

}  // namespace faultstudy::bench
