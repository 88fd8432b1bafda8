// Tests for the structural interleaving model and the realized races.
#include <gtest/gtest.h>

#include "apps/database.hpp"
#include "apps/desktop.hpp"
#include "corpus/seeds.hpp"
#include "env/interleave.hpp"
#include "harness/experiment.hpp"
#include "recovery/process_pairs.hpp"
#include "recovery/progressive.hpp"
#include "util/rng.hpp"

namespace faultstudy::env {
namespace {

TEST(Interleave, PositionsInRange) {
  Scheduler s(1);
  for (int i = 0; i < 1000; ++i) {
    const int p = interleave_position(s, 10);
    EXPECT_GE(p, 0);
    EXPECT_LE(p, 10);
  }
}

TEST(Interleave, PositionsRoughlyUniform) {
  Scheduler s(2);
  constexpr int kSteps = 4;  // 5 positions
  int counts[kSteps + 1] = {};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[interleave_position(s, kSteps)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / (kSteps + 1), kDraws / (kSteps + 1) * 0.1);
  }
}

TEST(Interleave, ZeroStepsAlwaysPositionZero) {
  Scheduler s(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(interleave_position(s, 0), 0);
  }
}

TEST(Interleave, SignalMaskRaceProbabilityIsStructural) {
  // The race fires iff B lands in one specific gap of a_steps+1 positions:
  // expected probability 1/(a_steps+1).
  Scheduler s(4);
  TraceLog log;  // disabled: the draw alone decides
  constexpr int kSteps = 12;
  constexpr int kTrials = 60000;
  int fires = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (signal_mask_race(s, log, 0, kSteps, 5)) ++fires;
  }
  EXPECT_NEAR(static_cast<double>(fires) / kTrials, 1.0 / (kSteps + 1), 0.01);
}

TEST(Interleave, ReplayBiasReproducesTheRace) {
  // With full replay bias, once the race fires it keeps firing — the
  // rollback-replay pathology progressive retry exists to break.
  Scheduler s(5);
  TraceLog log;
  bool fired = false;
  for (int i = 0; i < 2000 && !fired; ++i) {
    fired = signal_mask_race(s, log, 0, 12, 5);
  }
  ASSERT_TRUE(fired);
  s.set_replay_bias(1.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(signal_mask_race(s, log, 0, 12, 5));
  }
}

TEST(RealizedRace, DatabaseSignalMaskRaceFiresEventually) {
  env::Environment e;
  apps::Database db;
  apps::ActiveFault fault;
  fault.trigger = core::Trigger::kRaceCondition;
  fault.symptom = core::Symptom::kCrash;
  fault.fault_id = "mysql-edt-01";
  db.arm_fault(fault);
  ASSERT_TRUE(db.start(e));

  apps::WorkItem racy;
  racy.op = "SELECT COUNT(*) FROM customers";
  racy.racy = true;
  bool crashed = false;
  for (int i = 0; i < 500 && !crashed; ++i) {
    const auto r = db.handle(racy, e);
    if (r.status == apps::StepStatus::kCrash) {
      crashed = true;
      EXPECT_NE(r.detail.find("mask"), std::string::npos);
    }
  }
  EXPECT_TRUE(crashed);
}

TEST(RealizedRace, NonRacyItemsNeverHitIt) {
  env::Environment e;
  apps::Database db;
  apps::ActiveFault fault;
  fault.trigger = core::Trigger::kRaceCondition;
  fault.fault_id = "mysql-edt-01";
  db.arm_fault(fault);
  ASSERT_TRUE(db.start(e));
  apps::WorkItem calm;
  calm.op = "SELECT COUNT(*) FROM customers";
  for (int i = 0; i < 300; ++i) {
    EXPECT_FALSE(apps::is_failure(db.handle(calm, e)));
  }
}

TEST(RealizedRace, SurvivesGenericRecovery) {
  // The realized races are EDT: process pairs must survive them, and
  // progressive retry must need no more recoveries than rollback would.
  const auto seeds = corpus::all_seeds();
  for (const char* id : {"mysql-edt-01", "gnome-edt-03"}) {
    const corpus::SeedFault* seed = nullptr;
    for (const auto& s : seeds) {
      if (s.fault_id == id) seed = &s;
    }
    ASSERT_NE(seed, nullptr) << id;
    harness::TrialConfig tc;
    tc.seed = 23 + util::fnv1a(id);
    const auto plan = inject::plan_for(*seed, tc.seed);
    recovery::ProcessPairs pp;
    const auto outcome = harness::run_trial(plan, pp, tc);
    EXPECT_TRUE(outcome.failure_observed) << id;
    EXPECT_TRUE(outcome.survived) << id;
  }
}

}  // namespace
}  // namespace faultstudy::env
