// Tests for the fault-forensics layer: flight-recorder ring semantics,
// causal-chain reconstruction on known specimens, triage clustering, and
// the determinism contract — a forensic run over the full specimen corpus
// must serialize byte-identically for threads=1 and threads=4.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "corpus/seeds.hpp"
#include "forensics/export.hpp"
#include "forensics/postmortem.hpp"
#include "forensics/recorder.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "obs/bus.hpp"
#include "util/json.hpp"

namespace faultstudy {
namespace {

using forensics::ChainStage;
using forensics::FlightCode;
using forensics::FlightRecorder;
using forensics::TrialVerdict;

const corpus::SeedFault& seed_by_id(const std::string& fault_id) {
  static const auto seeds = corpus::all_seeds();
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) return s;
  }
  ADD_FAILURE() << "unknown fault id " << fault_id;
  return seeds.front();
}

harness::MechanismFactory mechanism_by_name(const std::string& name) {
  for (const auto& nm : harness::standard_mechanisms()) {
    if (nm.name == name) return nm.make;
  }
  ADD_FAILURE() << "unknown mechanism " << name;
  return {};
}

// --- ring buffer ----------------------------------------------------------

TEST(FlightRecorder, OverwritesOldestWhenFull) {
  FlightRecorder ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.record(FlightCode::kCheckpoint, i);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);

  const auto events = ring.chronological();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Events 0 and 1 were overwritten; 2..5 survive, oldest first.
    EXPECT_EQ(events[i].a, i + 2);
  }
}

TEST(FlightRecorder, StampsSimClockWhenBound) {
  env::VirtualClock clock;
  FlightRecorder ring;
  ring.record(FlightCode::kTrialStart);  // unbound: stamps tick 0
  ring.bind_clock(&clock);
  clock.advance(42);
  ring.record(FlightCode::kVerdict);
  const auto events = ring.chronological();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 0u);
  EXPECT_EQ(events[1].at, 42u);
}

TEST(FlightRecorder, ClearResetsWithoutReallocating) {
  FlightRecorder ring(8);
  for (int i = 0; i < 20; ++i) ring.record(FlightCode::kCheckpoint);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(ForensicMacro, NullSinkIsANoOp) {
  // The flight view through the bus: an unbound bus records nothing, a
  // bound one records the row's flight code.
  FlightRecorder ring;
  const obs::TrialSinks* sinks = nullptr;
  obs::emit(sinks, obs::Event::kCheckpoint);
  EXPECT_TRUE(ring.empty());
  const obs::TrialSinks bound{.flight = &ring};
  sinks = &bound;
  obs::emit(sinks, obs::Event::kCheckpoint);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.chronological()[0].code, FlightCode::kCheckpoint);
}

// --- causal-chain reconstruction ------------------------------------------

TEST(PostMortem, SyntheticRingYieldsPropagationLink) {
  env::Environment environment;
  FlightRecorder ring;
  ring.bind_clock(&environment.clock());
  ring.record(FlightCode::kFaultArmed,
              static_cast<std::uint64_t>(core::Trigger::kDiskCacheFull));
  ring.record(FlightCode::kDiskFull, 4096, 1024);
  ring.record(FlightCode::kItemFailed, 7, 3);
  ring.record(FlightCode::kVerdict,
              static_cast<std::uint64_t>(TrialVerdict::kRecoveryFailed));

  forensics::PostMortemInputs inputs;
  inputs.fault_id = "synthetic-edn-01";
  inputs.mechanism = "cold-restart";
  inputs.verdict = TrialVerdict::kRecoveryFailed;
  inputs.failures = 1;
  const auto pm = forensics::build_postmortem(ring, environment, inputs);

  EXPECT_EQ(pm.propagation, FlightCode::kDiskFull);
  ASSERT_FALSE(pm.chain.empty());
  EXPECT_EQ(pm.chain.front().stage, ChainStage::kInjection);
  EXPECT_EQ(pm.chain.back().stage, ChainStage::kOutcome);
  bool saw_propagation = false;
  for (const auto& link : pm.chain) {
    if (link.stage == ChainStage::kPropagation) saw_propagation = true;
  }
  EXPECT_TRUE(saw_propagation);
}

TEST(PostMortem, DirectFailureHasNoResourcePrelude) {
  env::Environment environment;
  FlightRecorder ring;
  ring.record(FlightCode::kFaultArmed);
  ring.record(FlightCode::kItemFailed, 0, 2);
  forensics::PostMortemInputs inputs;
  inputs.fault_id = "synthetic-ei-01";
  inputs.mechanism = "rollback-retry";
  inputs.verdict = TrialVerdict::kRetryCapExceeded;
  const auto pm = forensics::build_postmortem(ring, environment, inputs);
  EXPECT_EQ(pm.propagation, FlightCode::kCount);
}

TEST(PostMortem, KnownSpecimenReconstructsFullChain) {
  // apache-ei-01 is environment-independent: cold-restart retries the same
  // poisoned input until the per-item cap, deterministically failing.
  const auto& seed = seed_by_id("apache-ei-01");
  const auto plan = inject::plan_for(seed, 42);
  auto mechanism = mechanism_by_name("cold-restart")();
  FlightRecorder ring;
  const auto outcome =
      harness::run_trial(plan, *mechanism, {}, nullptr, {.flight = &ring});

  ASSERT_FALSE(outcome.survived);
  ASSERT_TRUE(outcome.postmortem.has_value());
  const auto& pm = *outcome.postmortem;
  EXPECT_EQ(pm.fault_id, "apache-ei-01");
  EXPECT_EQ(pm.mechanism, "cold-restart");
  EXPECT_EQ(pm.verdict, TrialVerdict::kRetryCapExceeded);

  // The chain links the injected fault id to the recovery outcome, with
  // stages in causal order.
  ASSERT_GE(pm.chain.size(), 2u);
  EXPECT_EQ(pm.chain.front().stage, ChainStage::kInjection);
  EXPECT_NE(pm.chain.front().description.find("apache-ei-01"),
            std::string::npos);
  EXPECT_EQ(pm.chain.back().stage, ChainStage::kOutcome);
  for (std::size_t i = 1; i < pm.chain.size(); ++i) {
    EXPECT_LE(pm.chain[i - 1].stage, pm.chain[i].stage);
  }
  EXPECT_FALSE(pm.events.empty());
  EXPECT_FALSE(pm.first_failure.empty());
}

TEST(PostMortem, TracedSpecimenCarriesDetectorVerdicts) {
  const auto& seed = seed_by_id("apache-ei-01");
  const auto plan = inject::plan_for(seed, 42);
  auto mechanism = mechanism_by_name("cold-restart")();
  harness::TrialObservation observation;
  FlightRecorder ring;
  const auto outcome = harness::run_trial(plan, *mechanism, {}, &observation,
                                          {.flight = &ring});
  ASSERT_FALSE(outcome.survived);
  ASSERT_TRUE(outcome.postmortem.has_value());
  EXPECT_TRUE(outcome.postmortem->analyzed);
}

TEST(PostMortem, SurvivorProducesNoPostMortem) {
  // apache-edn-02's precondition is repaired by cold restart, so the trial
  // survives — the ring still recorded, but no post-mortem is built.
  const auto& seed = seed_by_id("apache-edn-02");
  const auto plan = inject::plan_for(seed, 42);
  auto mechanism = mechanism_by_name("cold-restart")();
  FlightRecorder ring;
  const auto outcome =
      harness::run_trial(plan, *mechanism, {}, nullptr, {.flight = &ring});
  EXPECT_TRUE(outcome.survived);
  EXPECT_FALSE(outcome.postmortem.has_value());
  EXPECT_FALSE(ring.empty());
}

TEST(StudyForensics, FoldCountsSurvivorsWithoutRecords) {
  forensics::StudyForensics study;
  study.fold_trial(true, std::nullopt);
  study.fold_trial(true, std::nullopt);
  EXPECT_EQ(study.trials, 2u);
  EXPECT_EQ(study.survived, 2u);
  EXPECT_EQ(study.failures(), 0u);

  forensics::PostMortemRecord pm;
  pm.fault_id = "x";
  study.fold_trial(false, std::move(pm));
  EXPECT_EQ(study.trials, 3u);
  EXPECT_EQ(study.failures(), 1u);
}

// --- full-corpus determinism ----------------------------------------------

struct MatrixRun {
  harness::MatrixResult matrix;
  forensics::StudyForensics study;
};

MatrixRun run_forensic_matrix(std::size_t threads) {
  harness::TrialConfig config;
  config.threads = threads;
  MatrixRun run;
  run.matrix =
      harness::run_matrix(corpus::all_seeds(), harness::standard_mechanisms(),
                          config, 3, nullptr, &run.study);
  return run;
}

TEST(StudyForensics, FullCorpusPostMortemsAreLaneIdentical) {
  const auto serial = run_forensic_matrix(1);
  const auto wide = run_forensic_matrix(4);

  // Every failed trial yields a post-mortem; every post-mortem's chain
  // links injection to outcome.
  EXPECT_EQ(serial.study.trials,
            serial.study.survived + serial.study.failures());
  EXPECT_GT(serial.study.failures(), 0u);
  for (const auto& pm : serial.study.postmortems) {
    ASSERT_FALSE(pm.chain.empty());
    EXPECT_EQ(pm.chain.front().stage, ChainStage::kInjection);
    EXPECT_EQ(pm.chain.back().stage, ChainStage::kOutcome);
    EXPECT_NE(pm.verdict, TrialVerdict::kSurvived);
  }

  // Serialized artifacts are byte-identical across lane counts.
  const auto clusters_serial = forensics::triage(serial.study.postmortems);
  const auto clusters_wide = forensics::triage(wide.study.postmortems);
  const std::string json = forensics::to_json(serial.study, clusters_serial);
  EXPECT_EQ(json, forensics::to_json(wide.study, clusters_wide));

  // The writer reserves once from its size bound: the bound must cover the
  // output, and stay close to it (ring events are counted exactly).
  const std::size_t bound =
      forensics::json_size_bound(serial.study, clusters_serial);
  EXPECT_GE(bound, json.size());
  EXPECT_LT(bound, json.size() * 5 / 4);

  std::vector<forensics::MechanismSuccessRow> rows;
  for (const auto& report : serial.matrix.reports) {
    rows.push_back({report.mechanism, report.generic, report.survived_all(),
                    report.total_all(), report.state_losses});
  }
  EXPECT_EQ(forensics::render_explorer_html(serial.study, clusters_serial,
                                            rows, "t"),
            forensics::render_explorer_html(wide.study, clusters_wide, rows,
                                            "t"));
}

// --- triage ---------------------------------------------------------------

TEST(Triage, ClustersBySignatureDeterministically) {
  forensics::PostMortemRecord a;
  a.fault_id = "apache-x-01";
  a.mechanism = "cold-restart";
  a.verdict = TrialVerdict::kRetryCapExceeded;
  a.failures = 3;
  a.recoveries = 2;
  forensics::PostMortemRecord b = a;
  b.fault_id = "apache-x-02";
  forensics::PostMortemRecord c = a;
  c.mechanism = "process-pairs";

  const auto clusters = forensics::triage({a, b, c});
  ASSERT_EQ(clusters.size(), 2u);
  // Bigger cluster first; ties broken by signature.
  EXPECT_EQ(clusters[0].count, 2u);
  EXPECT_EQ(clusters[0].mechanism, "cold-restart");
  EXPECT_EQ(clusters[0].total_failures, 6u);
  ASSERT_EQ(clusters[0].fault_ids.size(), 2u);
  EXPECT_EQ(clusters[0].fault_ids[0], "apache-x-01");
  EXPECT_EQ(clusters[1].count, 1u);

  const auto sig = forensics::failure_signature(a);
  EXPECT_NE(sig.find("cold-restart"), std::string::npos);
  EXPECT_NE(sig.find("retry-cap-exceeded"), std::string::npos);
}

TEST(Export, JsonCarriesSchemaAndOmitsLanes) {
  forensics::StudyForensics study;
  forensics::PostMortemRecord pm;
  pm.fault_id = "apache-x-01";
  pm.mechanism = "cold-restart";
  pm.verdict = TrialVerdict::kRecoveryFailed;
  forensics::FlightEvent ev;
  ev.code = FlightCode::kItemFailed;
  pm.events.push_back(ev);
  study.fold_trial(false, std::move(pm));
  const auto json = forensics::to_json(study, forensics::triage(study.postmortems));
  EXPECT_NE(json.find("faultstudy-forensics/1"), std::string::npos);
  EXPECT_EQ(json.find("lane"), std::string::npos);
}

TEST(ForensicsJson, EscapedStringsRoundTripThroughParse) {
  // The matrix's own strings are plain ASCII, so this is the test that
  // reaches the writer's escape path: every JSON-special character, the
  // control-character edges, and multi-byte UTF-8 passed through verbatim.
  const std::string nasty = "q\" b\\ n\n t\t \x01 \x1f caf\xc3\xa9";
  forensics::StudyForensics study;
  forensics::PostMortemRecord pm;
  pm.fault_id = "id " + nasty;
  pm.mechanism = "mech " + nasty;
  pm.first_failure = "first " + nasty;
  pm.verdict = TrialVerdict::kRecoveryFailed;
  pm.chain.push_back({ChainStage::kInjection, 7, "link " + nasty});
  study.fold_trial(false, std::move(pm));
  const auto clusters = forensics::triage(study.postmortems);
  ASSERT_EQ(clusters.size(), 1u);

  const auto parsed =
      util::json::parse(forensics::to_json(study, clusters));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const util::json::Value* pms = parsed.value().find("postmortems");
  ASSERT_TRUE(pms != nullptr && pms->array.size() == 1u);
  const util::json::Value& record = pms->array[0];
  EXPECT_EQ(record.string_or("fault_id", ""), "id " + nasty);
  EXPECT_EQ(record.string_or("mechanism", ""), "mech " + nasty);
  EXPECT_EQ(record.string_or("first_failure", ""), "first " + nasty);
  const util::json::Value* chain = record.find("chain");
  ASSERT_TRUE(chain != nullptr && chain->array.size() == 1u);
  EXPECT_EQ(chain->array[0].string_or("description", ""), "link " + nasty);
  EXPECT_EQ(chain->array[0].int_or("at", -1), 7);

  const util::json::Value* triage = parsed.value().find("triage");
  ASSERT_TRUE(triage != nullptr && triage->array.size() == 1u);
  const util::json::Value& cluster = triage->array[0];
  EXPECT_EQ(cluster.string_or("signature", ""), clusters[0].signature);
  EXPECT_EQ(cluster.string_or("mechanism", ""), "mech " + nasty);
  const util::json::Value* ids = cluster.find("fault_ids");
  ASSERT_TRUE(ids != nullptr && ids->array.size() == 1u);
  EXPECT_EQ(ids->array[0].str, "id " + nasty);
}

TEST(ForensicsJson, SizeBoundCoversWidestRecords) {
  // Records at the bound's worst case: every number at its widest, every
  // enum value (so every name length), strings made of characters that
  // escape to six bytes, and every flight code in the ring.
  const std::string escapes(7, '\x01');
  forensics::StudyForensics study;
  study.trials = SIZE_MAX;
  study.survived = SIZE_MAX;
  for (std::size_t i = 0; i < 40; ++i) {
    forensics::PostMortemRecord pm;
    pm.fault_id = escapes;
    pm.app = static_cast<core::AppId>(i % 3);
    pm.fault_class = static_cast<core::FaultClass>(i % 3);
    pm.trigger = static_cast<core::Trigger>(i % core::kNumTriggers);
    pm.mechanism = escapes;
    pm.verdict = static_cast<TrialVerdict>(
        i % static_cast<std::size_t>(TrialVerdict::kCount));
    pm.repeat = i % 2 == 0 ? INT_MIN : INT_MAX;
    pm.ended_at = INT64_MAX;
    pm.failures = pm.recoveries = SIZE_MAX;
    pm.first_failure = escapes;
    pm.propagation = static_cast<FlightCode>(
        i % (static_cast<std::size_t>(FlightCode::kCount) + 1));
    for (std::size_t c = 0; c < static_cast<std::size_t>(ChainStage::kCount);
         ++c) {
      pm.chain.push_back({static_cast<ChainStage>(c), INT64_MAX, escapes});
    }
    pm.env_state = {SIZE_MAX,   SIZE_MAX,   SIZE_MAX, SIZE_MAX,
                    UINT64_MAX, UINT64_MAX, UINT64_MAX, SIZE_MAX,
                    UINT8_MAX,  UINT8_MAX,  false};
    for (std::size_t c = 0; c < static_cast<std::size_t>(FlightCode::kCount);
         ++c) {
      pm.events.push_back(
          {static_cast<FlightCode>(c), INT64_MAX, UINT64_MAX, UINT64_MAX});
      pm.events.push_back({static_cast<FlightCode>(c), 0, 0, 0});
    }
    pm.events_dropped = UINT64_MAX;
    pm.race_reports = pm.invariant_violations = SIZE_MAX;
    pm.analyzed = true;
    study.postmortems.push_back(std::move(pm));
  }
  auto clusters = forensics::triage(study.postmortems);
  for (auto& c : clusters) {
    c.count = c.total_failures = c.total_recoveries = SIZE_MAX;
  }
  EXPECT_GE(forensics::json_size_bound(study, clusters),
            forensics::to_json(study, clusters).size());

  // An empty study is covered too.
  const forensics::StudyForensics empty;
  EXPECT_GE(forensics::json_size_bound(empty, {}),
            forensics::to_json(empty, {}).size());
}

}  // namespace
}  // namespace faultstudy
