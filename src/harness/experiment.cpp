#include "harness/experiment.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "core/rules.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "recovery/app_specific.hpp"
#include "recovery/process_pairs.hpp"
#include "recovery/progressive.hpp"
#include "recovery/rejuvenation.hpp"
#include "recovery/restart.hpp"
#include "recovery/rollback.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::harness {

namespace {

/// Watches the environment's resource tables between harness actions and
/// records the deltas as transcript events; the invariant checker consumes
/// exactly this stream.
class ResourceRecorder {
 public:
  ResourceRecorder(Transcript& transcript, env::Environment& environment,
                   std::string owner)
      : transcript_(transcript), environment_(environment),
        owner_(std::move(owner)) {
    fds_ = environment_.fds().held_by(owner_);
    environment_.processes().owned_by(owner_, pids_);
    disk_used_ = environment_.disk().used();
  }

  /// Diffs the tables against the last call and appends fd-open/fd-close,
  /// proc-spawn/proc-kill, and disk-write events for whatever changed.
  void observe(std::size_t item) {
    const std::size_t fds = environment_.fds().held_by(owner_);
    if (fds > fds_) {
      transcript_.record(EventKind::kFdOpen, environment_.now(), fds - fds_,
                         owner_);
    } else if (fds < fds_) {
      transcript_.record(EventKind::kFdClose, environment_.now(), fds_ - fds,
                         owner_);
    }
    fds_ = fds;

    // scratch_ is a member so the per-observation snapshot reuses one
    // allocation for the whole trial. owned_by lists pids ascending, as
    // the binary searches below need.
    environment_.processes().owned_by(owner_, scratch_);
    for (const env::Pid pid : scratch_) {
      if (!std::binary_search(pids_.begin(), pids_.end(), pid)) {
        transcript_.record(EventKind::kProcSpawn, environment_.now(), pid,
                           owner_);
      }
    }
    for (const env::Pid pid : pids_) {
      if (!std::binary_search(scratch_.begin(), scratch_.end(), pid)) {
        transcript_.record(EventKind::kProcKill, environment_.now(), pid,
                           owner_);
      }
    }
    std::swap(pids_, scratch_);

    const std::uint64_t used = environment_.disk().used();
    if (used > disk_used_) {
      transcript_.record(EventKind::kDiskWrite, environment_.now(),
                         static_cast<std::size_t>(used - disk_used_),
                         "item " + std::to_string(item));
    }
    disk_used_ = used;
  }

 private:
  Transcript& transcript_;
  env::Environment& environment_;
  std::string owner_;
  std::size_t fds_ = 0;
  std::vector<env::Pid> pids_;
  std::vector<env::Pid> scratch_;
  std::uint64_t disk_used_ = 0;
};

/// Transcript verdict labels predate the TrialVerdict enum; keep the exact
/// strings so existing transcript consumers see no change.
std::string_view verdict_label(forensics::TrialVerdict verdict) noexcept {
  switch (verdict) {
    case forensics::TrialVerdict::kSurvived: return "survived";
    case forensics::TrialVerdict::kStartFailure: return "failed to start";
    case forensics::TrialVerdict::kRetryCapExceeded:
      return "item failed past the retry cap";
    case forensics::TrialVerdict::kBudgetExhausted:
      return "recovery budget exhausted";
    case forensics::TrialVerdict::kRecoveryFailed: return "recovery failed";
    case forensics::TrialVerdict::kCount: break;
  }
  return "?";
}

/// "recovery/<mechanism>", built once per distinct mechanism name and kept
/// for the life of the process, because span names need static storage
/// (telemetry/span.hpp). It cannot be a view into the mechanism: several
/// mechanisms return member strings from name(). A repeat lookup takes one
/// lock and allocates nothing.
std::string_view recovery_span_name(std::string_view mechanism) {
  static std::mutex mutex;
  static std::unordered_map<std::string, std::string, util::StringHash,
                            std::equal_to<>>
      names;
  const std::lock_guard lock(mutex);
  auto it = names.find(mechanism);
  if (it == names.end()) {
    std::string name = "recovery/";
    name += mechanism;
    it = names.emplace(std::string(mechanism), std::move(name)).first;
  }
  return it->second;
}

/// The views a matrix lane's trials write into. A lane runs one trial at a
/// time and resets these before each, so after its first trial a lane
/// records without allocating (the span buffer and the ring keep their
/// capacity). One per thread, hence one per lane of any pool.
struct LaneViews {
  telemetry::TrialTelemetry telemetry;
  forensics::FlightRecorder ring;
};

LaneViews& lane_views() {
  thread_local LaneViews views;
  return views;
}

}  // namespace

TrialOutcome run_trial(const inject::InjectionPlan& plan,
                       recovery::Mechanism& mechanism,
                       const TrialConfig& config,
                       TrialObservation* observation,
                       const obs::TrialSinks& sinks) {
  TrialOutcome outcome;

  // Patch the trial seed into cheap copies of the two config structs rather
  // than copying the whole plan (seed strings, arming closure and all).
  env::EnvironmentConfig env_config = plan.env_config;
  env_config.seed = config.seed;
  apps::WorkloadSpec workload_spec = plan.workload;
  workload_spec.seed = config.seed ^ 0xA0;

  env::Environment environment(env_config);
  if (observation != nullptr) environment.trace().enable();

  // Bind the bus before anything else happens so every view sees the whole
  // trial: arming, resource transitions, recoveries, verdict. A bus with no
  // view attached stays unbound, leaving one null check per hook site.
  if (sinks.any()) environment.bind_sinks(&sinks);
  if (sinks.flight != nullptr) sinks.flight->bind_clock(&environment.clock());
  telemetry::SpanTracer* tracer = nullptr;
  std::string_view recovery_span;
  if (sinks.telemetry != nullptr) {
    tracer = &sinks.telemetry->spans;
    tracer->bind_sim(&environment.clock());
    recovery_span = recovery_span_name(mechanism.name());
  }

  const apps::Workload workload =
      apps::make_workload(plan.seed.app, workload_spec);
  environment.emit(obs::Event::kTrialStart, workload.size(), config.cycles);
  TELEM_SPAN(tracer, "trial");

  auto app = inject::make_app(plan.seed.app);
  app->arm_fault(plan.fault);
  environment.emit(obs::Event::kFaultArmed,
                   static_cast<std::uint64_t>(plan.seed.trigger),
                   static_cast<std::uint64_t>(plan.seed.symptom));

  const auto finish = [&](forensics::TrialVerdict verdict) {
    environment.emit(obs::Event::kVerdict, static_cast<std::uint64_t>(verdict));
    if (observation != nullptr) {
      observation->transcript.record(EventKind::kVerdict, environment.now(), 0,
                                     std::string(verdict_label(verdict)));
      observation->trace = environment.trace().events();
      observation->races = analysis::RaceDetector().analyze(
          std::span<const env::TraceEvent>(observation->trace));
      observation->violations =
          analysis::check_transcript(observation->transcript);
    }
    if (sinks.flight != nullptr &&
        verdict != forensics::TrialVerdict::kSurvived) {
      forensics::PostMortemInputs inputs;
      inputs.fault_id = plan.seed.fault_id;
      inputs.app = plan.seed.app;
      inputs.fault_class = corpus::seed_class(plan.seed);
      inputs.trigger = plan.seed.trigger;
      inputs.mechanism = mechanism.name();
      inputs.verdict = verdict;
      inputs.failures = outcome.failures;
      inputs.recoveries = outcome.recoveries;
      inputs.first_failure = outcome.first_failure;
      if (observation != nullptr) {
        inputs.analyzed = true;
        inputs.race_reports = observation->races.size();
        inputs.invariant_violations = observation->violations.size();
      }
      outcome.postmortem =
          forensics::build_postmortem(*sinks.flight, environment, inputs);
    }
  };

  if (!app->start(environment)) {
    outcome.first_failure = "application failed to start";
    finish(forensics::TrialVerdict::kStartFailure);
    return outcome;
  }
  plan.arm_environment(environment, *app);
  environment.emit(obs::Event::kEnvArmed);
  mechanism.attach(*app, environment);
  environment.emit(obs::Event::kAttached);

  // The resource baseline is taken after start + arming: the recorder sees
  // only what the workload and the mechanism do from here on.
  std::optional<ResourceRecorder> recorder;
  if (observation != nullptr) {
    recorder.emplace(observation->transcript, environment,
                     std::string(app->name()));
    observation->transcript.record(EventKind::kStart, environment.now(), 0,
                                   std::string(app->name()));
  }

  const std::size_t total_items = workload.size() * config.cycles;

  std::size_t i = 0;
  std::size_t consecutive = 0;  // consecutive failures of the current item
  apps::WorkItem retry_item;    // scratch for mechanism-adjusted retries
  while (i < total_items) {
    // The common path hands the workload's own item to the app; only a
    // retry that a mechanism may rewrite pays for a copy.
    const apps::WorkItem* item = &workload.items[i % workload.size()];
    if (consecutive > 0) {
      retry_item = *item;
      mechanism.prepare_retry(retry_item);
      item = &retry_item;
    }

    const env::Tick item_start = environment.now();
    const apps::StepResult result = app->handle(*item, environment);
    environment.emit(obs::Event::kItemDone, environment.now() - item_start);
    if (recorder.has_value()) {
      recorder->observe(i);
      observation->transcript.record(
          apps::is_failure(result) ? EventKind::kFailure : EventKind::kItemOk,
          environment.now(), i, std::string(result.detail));
    }
    if (!apps::is_failure(result)) {
      mechanism.on_item_success(*app, environment);
      consecutive = 0;
      ++i;
      continue;
    }

    ++outcome.failures;
    outcome.failure_observed = true;
    if (outcome.first_failure.empty()) outcome.first_failure = result.detail;
    environment.emit(obs::Event::kItemFailed, i,
                     static_cast<std::uint64_t>(result.status));

    if (++consecutive > config.per_item_retries) {
      finish(forensics::TrialVerdict::kRetryCapExceeded);
      return outcome;
    }
    if (outcome.recoveries >= config.recovery_budget) {
      finish(forensics::TrialVerdict::kBudgetExhausted);
      return outcome;
    }

    if (recorder.has_value()) {
      observation->transcript.record(EventKind::kRecoveryBegin,
                                     environment.now(), i);
    }
    environment.emit(obs::Event::kRecoveryBegin, i);
    const env::Tick recovery_start = environment.now();
    recovery::RecoveryAction action;
    {
      TELEM_SPAN(tracer, recovery_span);
      action = mechanism.recover(*app, environment);
    }
    environment.emit(obs::Event::kRecoveryDone,
                     environment.now() - recovery_start);
    ++outcome.recoveries;
    if (!mechanism.preserves_state()) outcome.state_preserved = false;
    // Roll the cursor back to the restored checkpoint; those items are
    // re-executed against the rolled-back state.
    const std::size_t rewind =
        action.recovered ? std::min(action.rewind_items, i) : 0;
    if (recorder.has_value()) {
      recorder->observe(i);
      if (rewind > 0) {
        observation->transcript.record(EventKind::kRollback, environment.now(),
                                       rewind);
      }
      observation->transcript.record(action.recovered
                                         ? EventKind::kRecoveryOk
                                         : EventKind::kRecoveryFailed,
                                     environment.now(), i);
    }
    if (rewind > 0) environment.emit(obs::Event::kRollback, rewind);
    if (!action.recovered) {
      environment.emit(obs::Event::kRecoveryFailed, i);
      outcome.first_failure += " (recovery failed)";
      finish(forensics::TrialVerdict::kRecoveryFailed);
      return outcome;
    }
    environment.emit(obs::Event::kRecoveryOk, i, rewind);
    outcome.items_reexecuted += rewind;
    i -= rewind;
  }

  // Judge the resource balance before orderly shutdown: stop() releasing
  // everything would mask descriptors the workload leaked.
  if (recorder.has_value()) recorder->observe(i);
  app->stop(environment);
  outcome.survived = true;
  finish(forensics::TrialVerdict::kSurvived);
  return outcome;
}

std::vector<NamedMechanism> standard_mechanisms() {
  return {
      {"process-pairs",
       [] { return std::make_unique<recovery::ProcessPairs>(); }},
      {"rollback-retry",
       [] { return std::make_unique<recovery::RollbackRetry>(); }},
      {"progressive-retry",
       [] { return std::make_unique<recovery::ProgressiveRetry>(); }},
      {"cold-restart",
       [] { return std::make_unique<recovery::ColdRestart>(); }},
      {"rejuvenation",
       [] { return std::make_unique<recovery::Rejuvenation>(); }},
      {"app-specific",
       [] { return std::make_unique<recovery::AppSpecific>(); }},
  };
}

MatrixResult run_matrix(const std::vector<corpus::SeedFault>& seeds,
                        const std::vector<NamedMechanism>& mechanisms,
                        const TrialConfig& config, int repeats,
                        telemetry::StudyTelemetry* telemetry,
                        forensics::StudyForensics* forensics,
                        obs::CoverageAtlas* coverage) {
  MatrixResult result;
  result.fault_count = seeds.size();
  if (repeats < 1) repeats = 1;
  // The atlas registers its axes up front (serial), so even seeds whose
  // cells never run — or an empty sweep — leave a well-formed atlas.
  if (coverage != nullptr) {
    std::vector<std::string> names;
    names.reserve(mechanisms.size());
    for (const auto& nm : mechanisms) names.push_back(nm.name);
    coverage->begin_study(seeds, names);
  }
  // Majority vote over the repeats of one (mechanism, seed) cell. Every
  // trial seed is derived from the fault id, so cells are independent and
  // farm out to the pool; the reduction below runs on this thread in index
  // order, making the MatrixResult identical for every thread count.
  struct CellVotes {
    int survived = 0;
    int observed = 0;
    bool lost_state = false;
    /// Per-repeat forensic fold data, in repeat order: whether the trial
    /// survived and (iff it did not) its post-mortem.
    struct TrialFate {
      bool survived = false;
      std::optional<forensics::PostMortemRecord> postmortem;
    };
    std::vector<TrialFate> fates;
  };
  const std::size_t cell_count = mechanisms.size() * seeds.size();
  // The attached views' per-cell results live in one slot per cell, sized
  // only for the views attached: telemetry summed over the cell's repeats
  // (the spans kept are the first repeat's), and coverage, which every
  // repeat hits in place.
  std::vector<telemetry::TrialTelemetry> cell_telemetry(
      telemetry != nullptr ? cell_count : 0);
  std::vector<obs::CoverageMap> cell_probes(coverage != nullptr ? cell_count
                                                                : 0);
  auto cells = util::parallel_map<CellVotes>(
      cell_count, config.threads, [&](std::size_t cell) {
        const NamedMechanism& nm = mechanisms[cell / seeds.size()];
        const corpus::SeedFault& seed = seeds[cell % seeds.size()];
        // Only the views the caller attached are bound; a bare matrix runs
        // every trial with the bus unbound.
        CellVotes votes;
        LaneViews* lane =
            telemetry != nullptr || forensics != nullptr ? &lane_views()
                                                         : nullptr;
        for (int r = 0; r < repeats; ++r) {
          TrialConfig tc = config;
          tc.seed = config.seed + static_cast<std::uint64_t>(r) * 7919 +
                    util::fnv1a(seed.fault_id);
          const auto plan = inject::plan_for(seed, tc.seed);
          auto mechanism = nm.make();
          obs::TrialSinks sinks;
          if (telemetry != nullptr) {
            lane->telemetry.reset();
            sinks.telemetry = &lane->telemetry;
          }
          if (forensics != nullptr) {
            lane->ring.clear();
            sinks.flight = &lane->ring;
          }
          if (coverage != nullptr) sinks.coverage = &cell_probes[cell];
          TrialOutcome outcome =
              run_trial(plan, *mechanism, tc, nullptr, sinks);
          if (forensics != nullptr) {
            if (outcome.postmortem.has_value()) outcome.postmortem->repeat = r;
            votes.fates.push_back(
                {outcome.survived, std::move(outcome.postmortem)});
          }
          if (telemetry != nullptr) {
            if (r == 0) {
              cell_telemetry[cell] = lane->telemetry;
            } else {
              cell_telemetry[cell].merge(lane->telemetry);
            }
          }
          if (outcome.failure_observed) {
            ++votes.observed;
            if (outcome.survived) ++votes.survived;
            if (!outcome.state_preserved) votes.lost_state = true;
          }
        }
        return votes;
      });

  // Serial reduction in (mechanism, seed) index order: the survival table
  // and every attached study view — post-mortems in (mechanism, seed,
  // repeat) order, the atlas, the metrics and kept traces — come out
  // identical for every thread count.
  for (std::size_t m = 0; m < mechanisms.size(); ++m) {
    MechanismReport report;
    report.mechanism = mechanisms[m].name;
    report.generic = mechanisms[m].make()->is_generic();
    // The mechanism's cells sum into one TrialTelemetry, folded once: the
    // registry's sums, peaks and histogram merges do not depend on order.
    telemetry::TrialTelemetry mechanism_sum;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const std::size_t cell = m * seeds.size() + s;
      CellVotes& votes = cells[cell];
      for (auto& fate : votes.fates) {
        forensics->fold_trial(fate.survived, std::move(fate.postmortem));
      }
      if (coverage != nullptr) {
        coverage->fold_cell(m, s, cell_probes[cell],
                            static_cast<std::uint64_t>(repeats),
                            static_cast<std::uint64_t>(votes.observed),
                            static_cast<std::uint64_t>(votes.survived));
      }
      if (telemetry != nullptr) {
        telemetry::TrialTelemetry& cell_sum = cell_telemetry[cell];
        mechanism_sum.merge(cell_sum);
        if (!cell_sum.spans.empty()) {
          std::string label = mechanisms[m].name;
          label += '/';
          label += seeds[s].fault_id;
          telemetry->traces.emplace_back(std::move(label),
                                         std::move(cell_sum.spans));
        }
      }
      if (votes.observed == 0) {
        ++report.vacuous;
        continue;
      }
      const auto cls = static_cast<std::size_t>(corpus::seed_class(seeds[s]));
      ++report.total[cls];
      if (votes.survived * 2 > votes.observed) {
        ++report.survived[cls];
        if (votes.lost_state) ++report.state_losses;
      }
    }
    if (telemetry != nullptr) {
      telemetry::fold_into(mechanism_sum, mechanisms[m].name,
                           telemetry->metrics);
    }
    result.reports.push_back(std::move(report));
  }
  return result;
}

OracleReport run_oracle_crosscheck(const std::vector<corpus::SeedFault>& seeds,
                                   const TrialConfig& base) {
  OracleReport report;
  // One traced trial per seed, which run_trial analyzes with a detector of
  // its own, so the lanes share nothing. Rows land in their seed's slot, so
  // the report order never depends on timing.
  report.rows = util::parallel_map<OracleRow>(
      seeds.size(), base.threads, [&](std::size_t idx) {
        const corpus::SeedFault& seed = seeds[idx];
        TrialConfig tc = base;
        tc.seed = base.seed + util::fnv1a(seed.fault_id);

        const auto plan = inject::plan_for(seed, tc.seed);
        // Rollback-retry preserves state and keeps retrying, so the traced
        // trial keeps executing racy items instead of dying on first
        // failure.
        recovery::RollbackRetry mechanism;
        TrialObservation observation;
        (void)run_trial(plan, mechanism, tc, &observation);

        OracleRow row;
        row.fault_id = seed.fault_id;
        row.app = seed.app;
        row.label = corpus::seed_class(seed);
        row.trigger = seed.trigger;
        row.race_labeled = seed.trigger == core::Trigger::kRaceCondition;
        row.race_reports = observation.races.size();
        row.detector_fired = !observation.races.empty();
        row.invariant_violations = observation.violations.size();
        return row;
      });

  for (const OracleRow& row : report.rows) {
    if (row.race_labeled) {
      ++(row.detector_fired ? report.race_fired : report.race_silent);
    } else {
      switch (row.label) {
        case core::FaultClass::kEnvironmentIndependent:
          ++(row.detector_fired ? report.ei_fired : report.ei_silent);
          break;
        case core::FaultClass::kEnvDependentNonTransient:
          ++(row.detector_fired ? report.edn_fired : report.edn_silent);
          break;
        case core::FaultClass::kEnvDependentTransient:
          ++(row.detector_fired ? report.other_edt_fired
                                : report.other_edt_silent);
          break;
      }
    }
  }
  return report;
}

}  // namespace faultstudy::harness
