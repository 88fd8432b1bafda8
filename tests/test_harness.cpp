// End-to-end recovery-experiment tests: for every (fault, mechanism) pair
// the trial outcome must match the semantics the paper's taxonomy predicts.
// Parameterized over the mechanism roster; each instance sweeps all 139
// study faults.
#include <gtest/gtest.h>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "harness/transcript.hpp"
#include "recovery/app_specific.hpp"
#include "util/rng.hpp"

namespace faultstudy::harness {
namespace {

using core::FaultClass;
using core::Trigger;

/// Ground-truth survival prediction per (mechanism, seed), derived from the
/// taxonomy semantics (documented in DESIGN.md and recovery/*.hpp):
///   * generic state-preserving mechanisms survive exactly the EDT class;
///   * a lossy cold restart additionally sheds application-held leaks and
///     re-reads cached environment facts;
///   * rejuvenation additionally reclaims the app's own disk artifacts;
///   * app-specific recovery survives everything except conditions outside
///     the application's reach.
bool expected_survival(const std::string& mechanism,
                       const corpus::SeedFault& seed) {
  const FaultClass cls = corpus::seed_class(seed);
  if (cls == FaultClass::kEnvDependentTransient) return true;

  const Trigger t = seed.trigger;
  if (mechanism == "process-pairs" || mechanism == "rollback-retry" ||
      mechanism == "progressive-retry") {
    return false;  // EI and EDN both defeat truly generic recovery
  }
  if (mechanism == "cold-restart") {
    return t == Trigger::kDeterministicLeak ||
           t == Trigger::kResourceLeakUnderLoad ||
           t == Trigger::kFdExhaustion || t == Trigger::kHostnameChanged;
  }
  if (mechanism == "rejuvenation") {
    return t == Trigger::kDeterministicLeak ||
           t == Trigger::kResourceLeakUnderLoad ||
           t == Trigger::kFdExhaustion || t == Trigger::kHostnameChanged ||
           t == Trigger::kDiskCacheFull || t == Trigger::kFileSizeLimit;
  }
  if (mechanism == "app-specific") {
    return recovery::app_recoverable(t);
  }
  ADD_FAILURE() << "unknown mechanism " << mechanism;
  return false;
}

class MechanismSweep : public ::testing::TestWithParam<std::string> {
 protected:
  MechanismFactory factory() const {
    for (const auto& nm : standard_mechanisms()) {
      if (nm.name == GetParam()) return nm.make;
    }
    return nullptr;
  }
};

TEST_P(MechanismSweep, SurvivalMatchesTaxonomyPrediction) {
  const auto make = factory();
  ASSERT_TRUE(make != nullptr);

  for (const auto& seed : corpus::all_seeds()) {
    // Majority over three differently-seeded trials (race triggers are
    // probabilistic).
    int survived = 0, observed = 0;
    for (int r = 0; r < 3; ++r) {
      TrialConfig config;
      config.seed = 1000 + static_cast<std::uint64_t>(r) * 131 +
                    util::fnv1a(seed.fault_id);
      const auto plan = inject::plan_for(seed, config.seed);
      auto mechanism = make();
      const auto outcome = run_trial(plan, *mechanism, config);
      if (outcome.failure_observed) {
        ++observed;
        if (outcome.survived) ++survived;
      }
    }
    ASSERT_GT(observed, 0) << seed.fault_id << ": fault never triggered";
    EXPECT_EQ(survived * 2 > observed, expected_survival(GetParam(), seed))
        << GetParam() << " on " << seed.fault_id << " ("
        << core::to_string(seed.trigger) << "): survived " << survived
        << "/" << observed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, MechanismSweep,
    ::testing::Values("process-pairs", "rollback-retry", "progressive-retry",
                      "cold-restart", "rejuvenation", "app-specific"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------------------- trial mechanics

TEST(Trial, EiFaultDefeatsProcessPairsQuickly) {
  const auto seeds = corpus::apache_seeds();
  const corpus::SeedFault* ei = nullptr;
  for (const auto& s : seeds) {
    if (s.fault_id == "apache-ei-01") ei = &s;
  }
  ASSERT_NE(ei, nullptr);

  const auto plan = inject::plan_for(*ei, 3);
  auto mechanism = standard_mechanisms()[0].make();
  const auto outcome = run_trial(plan, *mechanism);
  EXPECT_TRUE(outcome.failure_observed);
  EXPECT_FALSE(outcome.survived);
  // The poison item fails per-item-retries+1 times, then the trial stops.
  EXPECT_EQ(outcome.failures, TrialConfig{}.per_item_retries + 1);
  EXPECT_FALSE(outcome.first_failure.empty());
}

TEST(Trial, TransientFaultSurvivesWithFewRecoveries) {
  const auto seeds = corpus::apache_seeds();
  const corpus::SeedFault* edt = nullptr;
  for (const auto& s : seeds) {
    if (s.trigger == Trigger::kUnknownTransient) edt = &s;
  }
  if (edt == nullptr) {
    for (const auto& s : corpus::gnome_seeds()) {
      if (s.trigger == Trigger::kUnknownTransient) {
        static corpus::SeedFault copy;
        copy = s;
        edt = &copy;
      }
    }
  }
  ASSERT_NE(edt, nullptr);
  const auto plan = inject::plan_for(*edt, 3);
  auto mechanism = standard_mechanisms()[0].make();
  const auto outcome = run_trial(plan, *mechanism);
  EXPECT_TRUE(outcome.failure_observed);
  EXPECT_TRUE(outcome.survived);
  EXPECT_EQ(outcome.recoveries, 1u);
}

TEST(Trial, StatePreservedFlagTracksMechanism) {
  const auto seed = corpus::apache_seeds().front();  // an EDN leak fault
  const auto plan = inject::plan_for(seed, 5);

  auto pairs = standard_mechanisms()[0].make();
  const auto with_pairs = run_trial(plan, *pairs);
  EXPECT_TRUE(with_pairs.state_preserved);

  auto restart = standard_mechanisms()[3].make();
  ASSERT_EQ(standard_mechanisms()[3].name, "cold-restart");
  const auto with_restart = run_trial(plan, *restart);
  EXPECT_TRUE(with_restart.failure_observed);
  EXPECT_FALSE(with_restart.state_preserved);
}

TEST(Trial, DeterministicInSeed) {
  const auto seed = corpus::mysql_seeds().front();
  const auto plan = inject::plan_for(seed, 9);
  TrialConfig config;
  config.seed = 1234;
  auto m1 = standard_mechanisms()[1].make();
  auto m2 = standard_mechanisms()[1].make();
  const auto a = run_trial(plan, *m1, config);
  const auto b = run_trial(plan, *m2, config);
  EXPECT_EQ(a.survived, b.survived);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.first_failure, b.first_failure);
}

// ---------------------------------------------------------------- matrix

TEST(Matrix, HeadlineShapeHolds) {
  const auto matrix =
      run_matrix(corpus::all_seeds(), standard_mechanisms());
  ASSERT_EQ(matrix.reports.size(), 6u);
  EXPECT_EQ(matrix.fault_count, 139u);

  const auto& pairs = matrix.reports[0];
  EXPECT_EQ(pairs.mechanism, "process-pairs");
  EXPECT_TRUE(pairs.generic);
  // Generic state-preserving recovery survives exactly the EDT class.
  EXPECT_EQ(pairs.survived[0], 0u);
  EXPECT_EQ(pairs.survived[1], 0u);
  EXPECT_EQ(pairs.survived[2], 12u);
  EXPECT_EQ(pairs.total[2], 12u);
  EXPECT_EQ(pairs.vacuous, 0u);

  // 12/139 = 8.6%, inside the paper's 5-14% band.
  const double rate = static_cast<double>(pairs.survived_all()) /
                      static_cast<double>(pairs.total_all());
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.14);

  const auto& specific = matrix.reports[5];
  EXPECT_EQ(specific.mechanism, "app-specific");
  EXPECT_EQ(specific.survived[0], 113u);  // all EI survived
  EXPECT_EQ(specific.survived[1], 8u);    // all app-reachable EDN
}

TEST(Matrix, PerAppProcessPairRatesMatchPaperBand) {
  const auto mechanisms = standard_mechanisms();
  const std::vector<std::pair<core::AppId, double>> expected = {
      {core::AppId::kApache, 7.0 / 50},
      {core::AppId::kGnome, 3.0 / 45},
      {core::AppId::kMysql, 2.0 / 44},
  };
  for (const auto& [app, rate] : expected) {
    std::vector<corpus::SeedFault> subset;
    for (const auto& s : corpus::all_seeds()) {
      if (s.app == app) subset.push_back(s);
    }
    const auto matrix =
        run_matrix(subset, {{"process-pairs", mechanisms[0].make}});
    const auto& r = matrix.reports.front();
    EXPECT_DOUBLE_EQ(static_cast<double>(r.survived_all()) /
                         static_cast<double>(r.total_all()),
                     rate)
        << core::to_string(app);
  }
}

TEST(Matrix, SurvivalRateAccessor) {
  MechanismReport r;
  r.survived = {1, 0, 3};
  r.total = {2, 0, 4};
  EXPECT_DOUBLE_EQ(r.survival_rate(FaultClass::kEnvironmentIndependent), 0.5);
  EXPECT_DOUBLE_EQ(r.survival_rate(FaultClass::kEnvDependentNonTransient),
                   0.0);
  EXPECT_EQ(r.survived_all(), 4u);
  EXPECT_EQ(r.total_all(), 6u);
}

TEST(Matrix, VacuousTrialsCountedSeparately) {
  // A fault whose trigger never fires (poison removed from the workload)
  // must land in `vacuous`, not in the survival denominators.
  corpus::SeedFault seed;
  seed.fault_id = "never-fires";
  seed.app = core::AppId::kApache;
  seed.trigger = core::Trigger::kBoundaryInput;
  seed.symptom = core::Symptom::kCrash;

  auto plan_seed = seed;
  const auto mechanisms = standard_mechanisms();
  // Run through run_matrix with a plan whose workload carries no poison:
  // plan_for keeps poison for EI triggers, so instead drive run_trial
  // directly with a modified plan and check the outcome feeding the matrix.
  auto plan = inject::plan_for(plan_seed, 1);
  plan.workload.poison_at = -1;
  auto mechanism = mechanisms[0].make();
  const auto outcome = run_trial(plan, *mechanism);
  EXPECT_FALSE(outcome.failure_observed);
  EXPECT_TRUE(outcome.survived);  // nothing went wrong
  EXPECT_EQ(outcome.recoveries, 0u);
}

TEST(Trial, RecoveryBudgetEnforced) {
  // An EDN fault under a mechanism that keeps "recovering" into the same
  // condition must stop at the budget, not loop forever.
  const corpus::SeedFault* seed = nullptr;
  const auto seeds = corpus::all_seeds();
  for (const auto& s : seeds) {
    if (s.fault_id == "apache-edn-02") seed = &s;  // fd exhaustion
  }
  ASSERT_NE(seed, nullptr);
  TrialConfig config;
  config.per_item_retries = 1000;  // disable the per-item cap
  config.recovery_budget = 5;
  const auto plan = inject::plan_for(*seed, 3);
  auto mechanism = standard_mechanisms()[0].make();
  const auto outcome = run_trial(plan, *mechanism, config);
  EXPECT_FALSE(outcome.survived);
  EXPECT_LE(outcome.recoveries, 5u);
}

TEST(Trial, StartFailureCarriesVerdictAndProbe) {
  // With no descriptor slots the application cannot come up, so the trial
  // ends at its first step: the one path to the start-failure verdict.
  const corpus::SeedFault* seed = nullptr;
  const auto seeds = corpus::all_seeds();
  for (const auto& s : seeds) {
    if (s.fault_id == "apache-edn-01") seed = &s;
  }
  ASSERT_NE(seed, nullptr);
  auto plan = inject::plan_for(*seed, 42);
  plan.env_config.fd_slots = 0;
  recovery::AppSpecific mechanism;
  forensics::FlightRecorder ring;
  obs::CoverageMap cover;
  const auto outcome = run_trial(plan, mechanism, {}, nullptr,
                                 {.flight = &ring, .coverage = &cover});
  EXPECT_FALSE(outcome.survived);
  EXPECT_EQ(outcome.first_failure, "application failed to start");
  ASSERT_TRUE(outcome.postmortem.has_value());
  EXPECT_EQ(outcome.postmortem->verdict,
            forensics::TrialVerdict::kStartFailure);
  EXPECT_EQ(cover.count(obs::Site::kTrialStartFailure), 1u);
}

// ------------------------------------------------------------ transcript

TEST(TranscriptLog, RecordsAndRenders) {
  Transcript t;
  t.record(EventKind::kStart, 0, 0, "begin");
  t.record(EventKind::kFailure, 5, 2, "crash");
  t.record(EventKind::kRecoveryOk, 10, 2);
  EXPECT_EQ(t.count(EventKind::kFailure), 1u);
  EXPECT_EQ(t.events().size(), 3u);
  const auto s = t.to_string();
  EXPECT_NE(s.find("FAILURE"), std::string::npos);
  EXPECT_NE(s.find("crash"), std::string::npos);
  EXPECT_NE(s.find("t=10"), std::string::npos);
}

}  // namespace
}  // namespace faultstudy::harness
