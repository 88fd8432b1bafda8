// The end-to-end recovery experiment (Section 8's proposed future work):
// run every study fault against every recovery mechanism and measure
// whether the application survives.
//
// Trial protocol. The application runs `cycles` passes of its fixed
// workload. Items must be executed in order; when one fails, the mechanism
// recovers the application and the item is re-executed ("we do not assume a
// user will generously avoid the fault trigger"). A fault survives when the
// full workload completes within the retry/recovery budgets; it defeats the
// mechanism when one item keeps failing past the per-item cap, recovery
// itself fails, or the budget is exhausted.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "core/aggregate.hpp"
#include "env/trace.hpp"
#include "forensics/postmortem.hpp"
#include "harness/transcript.hpp"
#include "inject/specimen.hpp"
#include "obs/atlas.hpp"
#include "obs/bus.hpp"
#include "recovery/mechanism.hpp"
#include "telemetry/trial.hpp"

namespace faultstudy::harness {

struct TrialConfig {
  std::size_t cycles = 3;            ///< workload passes per trial
  std::size_t per_item_retries = 8;  ///< consecutive failures of one item
  std::size_t recovery_budget = 40;  ///< total recoveries per trial
  std::uint64_t seed = 99;
  /// Execution lanes for run_matrix / run_oracle_crosscheck sweeps.
  /// 0 = auto (FAULTSTUDY_THREADS env var, else hardware_concurrency);
  /// 1 = the exact serial code path. Any value produces bit-identical
  /// results — trials derive their RNG streams from fault ids, results
  /// land in per-index slots, and reduction is serial in index order.
  std::size_t threads = 0;
};

struct TrialOutcome {
  bool survived = false;
  bool failure_observed = false;
  std::size_t failures = 0;
  std::size_t recoveries = 0;
  /// Work re-executed because recoveries rolled back past completed items
  /// (the time-redundancy cost of coarse checkpoint intervals).
  std::size_t items_reexecuted = 0;
  /// True when application state survived every recovery the trial used
  /// (always true for state-preserving mechanisms; false once a lossy
  /// restart actually ran).
  bool state_preserved = true;
  std::string first_failure;
  /// The reconstructed post-mortem; set iff the trial ran with a flight
  /// recorder attached and did not survive.
  std::optional<forensics::PostMortemRecord> postmortem;
};

/// What a traced trial leaves behind: the resource transcript, the
/// synchronization-event trace, and the analysis layer's verdicts on them,
/// computed once when the trial ends — the happens-before detector's racy
/// pairs (indices into `trace`) and the transcript's invariant violations.
struct TrialObservation {
  Transcript transcript;
  std::vector<env::TraceEvent> trace;
  std::vector<analysis::RaceReport> races;
  std::vector<analysis::InvariantViolation> violations;
};

/// Runs one fault under one mechanism. With `observation` set, the trial
/// runs traced: the environment's synchronization log is enabled and the
/// harness records the resource-level transcript (descriptor and
/// process-table deltas, disk writes, recovery windows) alongside the
/// protocol events; when the trial ends both detectors run over them.
///
/// With any view of `sinks` attached, the trial binds the bus into the
/// environment before anything happens, so every hook site — harness
/// protocol, environment resource transitions, application state changes,
/// recovery actions, the armed trigger and the verdict — lands in the
/// attached views (obs/bus.hpp). Every view is simulation state and
/// identical for every thread count. Per view:
///   * telemetry: counters and tick histograms, plus sim-domain spans (a
///     "trial" root and one "recovery/<mechanism>" span per recovery);
///   * flight: the ring is stamped with the trial's clock; when the trial
///     does NOT survive, the runner snapshots the ring plus the
///     environment's resource state into `TrialOutcome::postmortem` and
///     reconstructs the causal chain (forensics/postmortem.hpp). Traced
///     trials also get the detector verdict counts folded into the
///     detection stage;
///   * coverage: one probe count per crossed probe.
TrialOutcome run_trial(const inject::InjectionPlan& plan,
                       recovery::Mechanism& mechanism,
                       const TrialConfig& config = {},
                       TrialObservation* observation = nullptr,
                       const obs::TrialSinks& sinks = {});

/// Mechanism factory, so the matrix can instantiate a fresh mechanism per
/// trial (mechanisms hold per-trial checkpoints).
using MechanismFactory = std::function<std::unique_ptr<recovery::Mechanism>()>;

struct NamedMechanism {
  std::string name;
  MechanismFactory make;
};

/// The study's mechanism roster: process pairs, rollback-retry, progressive
/// retry, cold restart, rejuvenation, app-specific.
std::vector<NamedMechanism> standard_mechanisms();

/// Survival results for one mechanism over a fault set.
struct MechanismReport {
  std::string mechanism;
  bool generic = true;
  /// Per fault class: [survived, total] over faults whose trial observed a
  /// failure.
  std::array<std::size_t, 3> survived{};
  std::array<std::size_t, 3> total{};
  std::size_t vacuous = 0;  ///< trials where the fault never triggered
  std::size_t state_losses = 0;

  double survival_rate(core::FaultClass c) const noexcept {
    const auto i = static_cast<std::size_t>(c);
    return total[i] == 0 ? 0.0
                         : static_cast<double>(survived[i]) /
                               static_cast<double>(total[i]);
  }
  std::size_t survived_all() const noexcept {
    return survived[0] + survived[1] + survived[2];
  }
  std::size_t total_all() const noexcept {
    return total[0] + total[1] + total[2];
  }

  bool operator==(const MechanismReport&) const = default;
};

struct MatrixResult {
  std::vector<MechanismReport> reports;
  std::size_t fault_count = 0;

  bool operator==(const MatrixResult&) const = default;
};

/// Runs the full fault x mechanism matrix over the given seeds. `repeats`
/// runs each (fault, mechanism) cell several times with different seeds and
/// counts the cell as survived when a majority of repeats survive (races
/// are probabilistic). Cells run on `config.threads` lanes; the result is
/// identical for every thread count. Mechanism factories must be safe to
/// invoke concurrently (the standard roster's stateless lambdas are).
/// Each study sink attaches the matching view of every trial's bus; a
/// bare matrix binds no sink at all. Per-cell aggregates live in the
/// cell's index slot and the serial reduction folds them in (mechanism,
/// seed) index order, so every study view is bit-identical for every
/// thread count:
///   * `telemetry`: counters and tick histograms summed over a cell's
///     repeats; the kept trace is the first repeat's, labeled
///     "mechanism/fault-id";
///   * `forensics`: every failed trial's post-mortem, stamped with its
///     repeat ordinal, in (mechanism, seed, repeat) order;
///   * `coverage`: one probe map per cell, folded into the atlas.
MatrixResult run_matrix(const std::vector<corpus::SeedFault>& seeds,
                        const std::vector<NamedMechanism>& mechanisms,
                        const TrialConfig& config = {}, int repeats = 3,
                        telemetry::StudyTelemetry* telemetry = nullptr,
                        forensics::StudyForensics* forensics = nullptr,
                        obs::CoverageAtlas* coverage = nullptr);

// --- detector-vs-taxonomy oracle cross-check ------------------------------
//
// The race detector is an *independent oracle* for the taxonomy's
// environment-dependent-transient race class: a specimen whose armed fault
// is labeled kRaceCondition must light the detector up (the racy
// synchronization structure exists in every traced execution, whether or
// not this interleaving triggered the failure), and a specimen whose fault
// is environment-independent must never do so. Disagreement in either
// direction means the classifier's label and the simulator's mechanics have
// drifted apart.

/// One specimen's verdicts.
struct OracleRow {
  std::string fault_id;
  core::AppId app = core::AppId::kApache;
  core::FaultClass label = core::FaultClass::kEnvironmentIndependent;
  core::Trigger trigger = core::Trigger::kBoundaryInput;
  bool race_labeled = false;   ///< trigger == kRaceCondition
  bool detector_fired = false; ///< happens-before detector found >=1 race
  std::size_t race_reports = 0;
  std::size_t invariant_violations = 0;
};

struct OracleReport {
  std::vector<OracleRow> rows;

  // Confusion counts: race-labeled vs detector verdict, and the same for
  // everything else broken out by fault class.
  std::size_t race_fired = 0;
  std::size_t race_silent = 0;
  std::size_t ei_fired = 0;
  std::size_t ei_silent = 0;
  std::size_t edn_fired = 0;
  std::size_t edn_silent = 0;
  std::size_t other_edt_fired = 0;  ///< EDT but not race-labeled
  std::size_t other_edt_silent = 0;

  std::size_t total() const noexcept { return rows.size(); }
  /// Fraction of specimens where the detector verdict matches the label
  /// (race-labeled -> fired, everything else -> silent).
  double agreement() const noexcept {
    const std::size_t agree =
        race_fired + ei_silent + edn_silent + other_edt_silent;
    return rows.empty()
               ? 1.0
               : static_cast<double>(agree) / static_cast<double>(rows.size());
  }
};

/// Runs one traced trial per seed (rollback-retry keeps the trial alive
/// through transient failures) and compares the detector verdict against
/// the taxonomy label. Deterministic in `base.seed`; trials run on
/// `base.threads` lanes, each with its own detector, and rows come out in
/// seed order for every thread count.
OracleReport run_oracle_crosscheck(const std::vector<corpus::SeedFault>& seeds,
                                   const TrialConfig& base = {});

}  // namespace faultstudy::harness
