// Post-mortem records: what the trial runner snapshots when a trial fails.
//
// A post-mortem binds the flight-recorder ring, the environment's resource
// state at the moment of failure, and a reconstructed *causal chain* —
// injected fault → first observable error → propagation through environment
// resources → detection → recovery outcome. The chain is rebuilt by walking
// the ring (plus, when the trial ran traced, the verdicts of the detectors
// in src/analysis/), so every failed matrix cell carries its own audit
// trail without a debugger re-run.
//
// Everything here is deterministic in the trial seed: records are built from
// simulation state only, fold per-index like telemetry, and serialize
// byte-identically for every `--threads` value (forensics/export.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/taxonomy.hpp"
#include "env/environment.hpp"
#include "forensics/recorder.hpp"

namespace faultstudy::forensics {

/// Stages of the reconstructed fault-propagation chain, in causal order.
enum class ChainStage : std::uint8_t {
  kInjection = 0,  ///< the fault and its environmental precondition armed
  kPropagation,    ///< environment resource transitions feeding the failure
  kFirstError,     ///< first observable failure of a workload item
  kDetection,      ///< how the failure was noticed (harness / detectors)
  kRecovery,       ///< what the mechanism did about it
  kOutcome,        ///< how the trial ended
  kCount,
};

std::string_view to_string(ChainStage stage) noexcept;

/// One link of the causal chain: a stage, when it happened in simulated
/// time, and a human-readable reconstruction of what happened.
struct CausalLink {
  ChainStage stage = ChainStage::kInjection;
  env::Tick at = 0;
  std::string description;

  bool operator==(const CausalLink&) const = default;
};

/// Environment resource occupancy at the moment the trial died.
struct EnvResourceState {
  std::size_t procs_used = 0;
  std::size_t procs_capacity = 0;
  std::size_t fds_used = 0;
  std::size_t fds_capacity = 0;
  std::uint64_t disk_used = 0;
  std::uint64_t disk_capacity = 0;
  std::uint64_t entropy_bits = 0;
  std::size_t kernel_resource = 0;
  std::uint8_t dns_health = 0;  ///< env::DnsHealth at failure time
  std::uint8_t link_state = 0;  ///< env::LinkState at failure time
  bool network_card_present = true;

  bool operator==(const EnvResourceState&) const = default;
};

/// Reads the resource tables of a live environment (non-const because the
/// subsystem accessors are, not because anything is mutated).
EnvResourceState capture_env_state(env::Environment& environment);

/// Everything the study keeps about one failed trial.
struct PostMortemRecord {
  std::string fault_id;
  core::AppId app = core::AppId::kApache;
  core::FaultClass fault_class = core::FaultClass::kEnvironmentIndependent;
  core::Trigger trigger = core::Trigger::kBoundaryInput;
  std::string mechanism;
  TrialVerdict verdict = TrialVerdict::kSurvived;
  /// Matrix repeat ordinal (0 for standalone trials).
  int repeat = 0;

  env::Tick ended_at = 0;
  std::size_t failures = 0;
  std::size_t recoveries = 0;
  std::string first_failure;

  /// First environment-resource transition observed before the first error
  /// (FlightCode::kCount when the failure had no resource prelude — the
  /// propagation was direct from input to code path).
  FlightCode propagation = FlightCode::kCount;

  std::vector<CausalLink> chain;
  EnvResourceState env_state;
  /// Ring snapshot, oldest first, plus how many events overwrote out.
  std::vector<FlightEvent> events;
  std::uint64_t events_dropped = 0;

  /// Detector verdicts; only populated when the trial ran traced.
  std::size_t race_reports = 0;
  std::size_t invariant_violations = 0;
  bool analyzed = false;  ///< true when transcript/trace analysis ran
};

/// Inputs for reconstruction that the trial runner owns. Matrix trials run
/// untraced (the ring alone feeds the chain); a traced trial sets
/// `analyzed` and passes its detector verdicts, which fold into the
/// detection stage.
struct PostMortemInputs {
  std::string_view fault_id;
  core::AppId app = core::AppId::kApache;
  core::FaultClass fault_class = core::FaultClass::kEnvironmentIndependent;
  core::Trigger trigger = core::Trigger::kBoundaryInput;
  std::string_view mechanism;
  TrialVerdict verdict = TrialVerdict::kSurvived;
  std::size_t failures = 0;
  std::size_t recoveries = 0;
  std::string_view first_failure;
  bool analyzed = false;
  std::size_t race_reports = 0;
  std::size_t invariant_violations = 0;
};

/// Snapshots the ring and the environment and reconstructs the causal
/// chain. The chain is never empty: it always links the injected fault id
/// (kInjection) to the recovery outcome (kOutcome).
PostMortemRecord build_postmortem(const FlightRecorder& ring,
                                  env::Environment& environment,
                                  const PostMortemInputs& inputs);

/// Study-wide forensic aggregate: post-mortems from every failed trial,
/// folded serially in matrix index order so the collection (and everything
/// exported from it) is identical for every thread count.
struct StudyForensics {
  std::vector<PostMortemRecord> postmortems;
  std::size_t trials = 0;    ///< trials run under the forensic sink
  std::size_t survived = 0;  ///< trials that completed their workload

  std::size_t failures() const noexcept { return postmortems.size(); }

  void fold_trial(bool trial_survived,
                  std::optional<PostMortemRecord>&& postmortem);
};

}  // namespace faultstudy::forensics
