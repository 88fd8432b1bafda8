#include "forensics/postmortem.hpp"

#include <algorithm>

#include "apps/app.hpp"

namespace faultstudy::forensics {

std::string_view to_string(FlightCode code) noexcept {
  switch (code) {
    case FlightCode::kTrialStart: return "trial-start";
    case FlightCode::kFaultArmed: return "fault-armed";
    case FlightCode::kEnvArmed: return "env-armed";
    case FlightCode::kItemFailed: return "item-failed";
    case FlightCode::kRecoveryBegin: return "recovery-begin";
    case FlightCode::kRecoveryOk: return "recovery-ok";
    case FlightCode::kRecoveryFailed: return "recovery-failed";
    case FlightCode::kRollback: return "rollback";
    case FlightCode::kVerdict: return "verdict";
    case FlightCode::kFdExhausted: return "fd-exhausted";
    case FlightCode::kProcTableFull: return "proc-table-full";
    case FlightCode::kProcHung: return "proc-hung";
    case FlightCode::kDiskFull: return "disk-full";
    case FlightCode::kFileSizeLimit: return "file-size-limit";
    case FlightCode::kDnsBroken: return "dns-broken";
    case FlightCode::kLinkDegraded: return "link-degraded";
    case FlightCode::kCardRemoved: return "card-removed";
    case FlightCode::kPortDenied: return "port-denied";
    case FlightCode::kKernelResourceDenied: return "kernel-resource-denied";
    case FlightCode::kEntropyBlocked: return "entropy-blocked";
    case FlightCode::kSignalRaised: return "signal-raised";
    case FlightCode::kAppStarted: return "app-started";
    case FlightCode::kAppStopped: return "app-stopped";
    case FlightCode::kAppChildSpawned: return "app-child-spawned";
    case FlightCode::kCheckpoint: return "checkpoint";
    case FlightCode::kFailover: return "failover";
    case FlightCode::kColdRestart: return "cold-restart";
    case FlightCode::kRejuvenation: return "rejuvenation";
    case FlightCode::kRetrySanitized: return "retry-sanitized";
    case FlightCode::kCount: break;
  }
  return "none";
}

std::string_view to_string(TrialVerdict verdict) noexcept {
  switch (verdict) {
    case TrialVerdict::kSurvived: return "survived";
    case TrialVerdict::kStartFailure: return "start-failure";
    case TrialVerdict::kRetryCapExceeded: return "retry-cap-exceeded";
    case TrialVerdict::kBudgetExhausted: return "recovery-budget-exhausted";
    case TrialVerdict::kRecoveryFailed: return "recovery-failed";
    case TrialVerdict::kCount: break;
  }
  return "?";
}

std::string_view to_string(ChainStage stage) noexcept {
  switch (stage) {
    case ChainStage::kInjection: return "injection";
    case ChainStage::kPropagation: return "propagation";
    case ChainStage::kFirstError: return "first-error";
    case ChainStage::kDetection: return "detection";
    case ChainStage::kRecovery: return "recovery";
    case ChainStage::kOutcome: return "outcome";
    case ChainStage::kCount: break;
  }
  return "?";
}

EnvResourceState capture_env_state(env::Environment& environment) {
  EnvResourceState s;
  const env::Tick now = environment.now();
  s.procs_used = environment.processes().used();
  s.procs_capacity = environment.processes().capacity();
  s.fds_used = environment.fds().used();
  s.fds_capacity = environment.fds().capacity();
  s.disk_used = environment.disk().used();
  s.disk_capacity = environment.disk().capacity();
  s.entropy_bits = environment.entropy().bits(now);
  s.kernel_resource = environment.network().kernel_resource_available();
  s.dns_health = static_cast<std::uint8_t>(environment.dns().health(now));
  s.link_state = static_cast<std::uint8_t>(environment.network().link(now));
  s.network_card_present = environment.network().card_present();
  return s;
}

namespace {

// The environment-resource section of FlightCode is contiguous.
bool is_resource_transition(FlightCode code) noexcept {
  return code >= FlightCode::kFdExhausted && code <= FlightCode::kSignalRaised;
}

std::string_view step_status_name(std::uint64_t status) noexcept {
  switch (static_cast<apps::StepStatus>(status)) {
    case apps::StepStatus::kOk: return "ok";
    case apps::StepStatus::kCrash: return "crash";
    case apps::StepStatus::kError: return "error";
    case apps::StepStatus::kHang: return "hang";
  }
  return "?";
}

}  // namespace

PostMortemRecord build_postmortem(const FlightRecorder& ring,
                                  env::Environment& environment,
                                  const PostMortemInputs& inputs) {
  PostMortemRecord pm;
  pm.fault_id = std::string(inputs.fault_id);
  pm.app = inputs.app;
  pm.fault_class = inputs.fault_class;
  pm.trigger = inputs.trigger;
  pm.mechanism = std::string(inputs.mechanism);
  pm.verdict = inputs.verdict;
  pm.ended_at = environment.now();
  pm.failures = inputs.failures;
  pm.recoveries = inputs.recoveries;
  pm.first_failure = std::string(inputs.first_failure);
  pm.env_state = capture_env_state(environment);
  pm.events = ring.chronological();
  pm.events_dropped = ring.dropped();

  // -- injection --------------------------------------------------------
  env::Tick armed_at = 0;
  for (const FlightEvent& e : pm.events) {
    if (e.code == FlightCode::kFaultArmed || e.code == FlightCode::kEnvArmed) {
      armed_at = e.at;
    }
  }
  pm.chain.push_back(
      {ChainStage::kInjection, armed_at,
       "fault " + pm.fault_id + " (" +
           std::string(core::to_string(pm.trigger)) + ", " +
           std::string(core::to_string(pm.fault_class)) + ") armed into " +
           std::string(core::to_string(pm.app))});

  // -- propagation: resource transitions before the first item failure --
  const FlightEvent* first_error = nullptr;
  for (const FlightEvent& e : pm.events) {
    if (e.code == FlightCode::kItemFailed) {
      first_error = &e;
      break;
    }
  }
  std::size_t transitions = 0;
  for (const FlightEvent& e : pm.events) {
    if (first_error != nullptr && &e >= first_error) break;
    if (!is_resource_transition(e.code)) continue;
    ++transitions;
    if (pm.propagation == FlightCode::kCount) pm.propagation = e.code;
    // One link per *distinct* code keeps chains readable when a transition
    // repeats (e.g. a descriptor pool denying every item of a cycle).
    bool seen = false;
    for (const CausalLink& link : pm.chain) {
      if (link.stage == ChainStage::kPropagation &&
          link.description.starts_with(std::string(to_string(e.code)))) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    pm.chain.push_back({ChainStage::kPropagation, e.at,
                        std::string(to_string(e.code)) + " (a=" +
                            std::to_string(e.a) + ", b=" +
                            std::to_string(e.b) + ")"});
  }
  if (transitions == 0) {
    pm.chain.push_back({ChainStage::kPropagation,
                        first_error != nullptr ? first_error->at : armed_at,
                        "no environment prelude: the failure propagated "
                        "directly from the workload input"});
  }

  // -- first observable error -------------------------------------------
  if (first_error != nullptr) {
    std::string desc = "item " + std::to_string(first_error->a) + " failed (" +
                       std::string(step_status_name(first_error->b)) + ")";
    if (!pm.first_failure.empty()) desc += ": " + pm.first_failure;
    pm.chain.push_back({ChainStage::kFirstError, first_error->at,
                        std::move(desc)});
  } else if (!pm.first_failure.empty()) {
    // The ring may have lost the first failure to overwriting (or the app
    // never started); the harness-preserved detail still anchors the stage.
    pm.chain.push_back({ChainStage::kFirstError, armed_at, pm.first_failure});
  }

  // -- detection ---------------------------------------------------------
  pm.chain.push_back({ChainStage::kDetection,
                      first_error != nullptr ? first_error->at : pm.ended_at,
                      "harness observed " + std::to_string(pm.failures) +
                          " failure(s) over the trial"});
  pm.analyzed = inputs.analyzed;
  pm.race_reports = inputs.race_reports;
  pm.invariant_violations = inputs.invariant_violations;
  if (pm.analyzed) {
    pm.chain.push_back(
        {ChainStage::kDetection, pm.ended_at,
         "detectors: " + std::to_string(pm.race_reports) +
             " happens-before race report(s), " +
             std::to_string(pm.invariant_violations) +
             " transcript invariant violation(s)"});
  }

  // -- recovery ----------------------------------------------------------
  std::size_t recoveries_ok = 0;
  std::uint64_t items_rewound = 0;
  env::Tick last_recovery_at = pm.ended_at;
  for (const FlightEvent& e : pm.events) {
    if (e.code == FlightCode::kRecoveryOk) {
      ++recoveries_ok;
      items_rewound += e.b;
      last_recovery_at = e.at;
    } else if (e.code == FlightCode::kRecoveryFailed) {
      last_recovery_at = e.at;
    }
  }
  pm.chain.push_back(
      {ChainStage::kRecovery, last_recovery_at,
       pm.mechanism + " recovered " + std::to_string(recoveries_ok) + "/" +
           std::to_string(pm.recoveries) + " time(s), rewinding " +
           std::to_string(items_rewound) + " item(s)"});

  // -- outcome -----------------------------------------------------------
  pm.chain.push_back({ChainStage::kOutcome, pm.ended_at,
                      "trial ended: " + std::string(to_string(pm.verdict))});

  // Stages were appended in causal order already; a stable sort by stage
  // keeps ties (multiple propagation/detection links) in recording order.
  std::stable_sort(pm.chain.begin(), pm.chain.end(),
                   [](const CausalLink& x, const CausalLink& y) {
                     return static_cast<int>(x.stage) <
                            static_cast<int>(y.stage);
                   });
  return pm;
}

void StudyForensics::fold_trial(bool trial_survived,
                                std::optional<PostMortemRecord>&& postmortem) {
  ++trials;
  if (trial_survived) ++survived;
  if (postmortem.has_value()) postmortems.push_back(*std::move(postmortem));
}

}  // namespace faultstudy::forensics
