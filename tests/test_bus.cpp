// Tests for the observation bus: every event row moves exactly the views it
// names, the hook sites the study matrix never reaches still emit, and
// attaching every view changes nothing about the study's results.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "corpus/seeds.hpp"
#include "env/environment.hpp"
#include "forensics/postmortem.hpp"
#include "harness/experiment.hpp"
#include "obs/atlas.hpp"
#include "obs/bus.hpp"
#include "telemetry/trial.hpp"

namespace faultstudy {
namespace {

using forensics::FlightCode;
using obs::Event;
using obs::Site;
using telemetry::counter_index;

/// All three views of one trial, bound into one bus.
struct Views {
  telemetry::TrialTelemetry telemetry;
  forensics::FlightRecorder ring;
  obs::CoverageMap coverage;
  obs::TrialSinks sinks{&telemetry, &ring, &coverage};
};

TEST(ObservationBus, EveryEventMovesExactlyItsRow) {
  // Operands valid for every indexed probe: a names a TrialVerdict and a
  // trigger, b is a non-zero peak.
  constexpr std::uint64_t kA = 2;
  constexpr std::uint64_t kB = 5;
  telemetry::TrialCounters named{};  // every counter some row moves, set to 1
  for (std::size_t i = 0; i < obs::kNumEvents; ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const auto event = static_cast<Event>(i);
    const obs::EventRow& row = obs::kEventTable[i];
    Views v;
    v.sinks.emit(event, kA, kB);

    telemetry::TrialCounters counters{};
    if (row.inc != obs::kNoCounter) counters[row.inc] = 1;
    if (row.add_a != obs::kNoCounter) counters[row.add_a] = kA;
    if (row.add_b != obs::kNoCounter) counters[row.add_b] = kB;
    if (row.peak_b != obs::kNoCounter) counters[row.peak_b] = kB;
    EXPECT_EQ(v.telemetry.counters, counters);
    for (const std::size_t slot : {row.inc, row.add_a, row.add_b, row.peak_b}) {
      if (slot != obs::kNoCounter) named[slot] = 1;
    }

    using T = telemetry::TrialTelemetry;
    for (const auto h :
         {&T::item_latency_ticks, &T::recovery_latency_ticks}) {
      EXPECT_EQ((v.telemetry.*h).count(), row.observe_a == h ? 1u : 0u);
    }
    EXPECT_TRUE(v.telemetry.spans.empty());

    if (row.flight == FlightCode::kCount) {
      EXPECT_TRUE(v.ring.empty());
    } else {
      const auto events = v.ring.chronological();
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].code, row.flight);
      EXPECT_EQ(events[0].a, kA);
      EXPECT_EQ(events[0].b, kB);
    }

    obs::CoverageMap probes;
    switch (row.probe) {
      case obs::ProbeKind::kSite:
        if (row.site != Site::kCount) probes.hit(row.site);
        break;
      case obs::ProbeKind::kSiteAtA:
        probes.hit(static_cast<Site>(static_cast<std::size_t>(row.site) + kA));
        break;
      case obs::ProbeKind::kInjectAtA:
        probes.hit_inject(static_cast<core::Trigger>(kA));
        break;
    }
    EXPECT_TRUE(v.coverage == probes);

    // A row that moves nothing would be a dead hook site.
    EXPECT_TRUE(counters != telemetry::TrialCounters{} ||
                row.observe_a != nullptr || !v.ring.empty() ||
                !probes.empty());
  }

  // ...and a counter no row moves would be a dead table row.
  for (std::size_t i = 0; i < telemetry::kNumCounters; ++i) {
    EXPECT_EQ(named[i], 1u) << telemetry::kCounters[i].name;
  }
}

TEST(ObservationBus, RowsDeriveTheLayersTheyReplace) {
  // Spot checks written out by hand rather than read from the table.
  Views v;
  v.sinks.emit(Event::kDiskWrite, 4096, 8192);
  v.sinks.emit(Event::kDiskWrite, 1024, 6000);
  const telemetry::TrialCounters& c = v.telemetry.counters;
  EXPECT_EQ(c[counter_index("env/disk/writes")], 2u);
  EXPECT_EQ(c[counter_index("env/disk/bytes_written")], 5120u);
  EXPECT_EQ(c[counter_index("env/disk/peak_used")], 8192u);

  v.sinks.emit(Event::kRecoveryOk, 7, 3);
  EXPECT_EQ(c[counter_index("recovery/successes")], 1u);
  EXPECT_EQ(c[counter_index("recovery/items_rewound")], 3u);
  EXPECT_EQ(v.coverage.count(Site::kRecRecoveryOk), 1u);

  // The verdict probe mirrors forensics::TrialVerdict one-to-one.
  const Site verdict_sites[] = {
      Site::kTrialSurvived, Site::kTrialStartFailure,
      Site::kTrialRetryCapExceeded, Site::kTrialBudgetExhausted,
      Site::kTrialRecoveryFailed};
  for (std::size_t verdict = 0; verdict < std::size(verdict_sites);
       ++verdict) {
    v.sinks.emit(Event::kVerdict, verdict);
    EXPECT_EQ(v.coverage.count(verdict_sites[verdict]), 1u);
  }

  v.sinks.emit(Event::kFaultArmed,
               static_cast<std::uint64_t>(core::Trigger::kRaceCondition), 1);
  EXPECT_EQ(v.coverage.count_inject(core::Trigger::kRaceCondition), 1u);
  EXPECT_EQ(v.ring.chronological().back().code, FlightCode::kFaultArmed);
}

TEST(ObservationBus, UnreachedEnvironmentSitesStillEmit) {
  // Neither branch is crossed by the study matrix (both are atlas blind
  // spots); drive them through the real resources.
  Views v;
  env::Environment environment;
  environment.bind_sinks(&v.sinks);
  ASSERT_TRUE(environment.network().bind_port(80, "apache"));
  EXPECT_FALSE(environment.network().bind_port(80, "intruder"));
  environment.signals().raise(env::Signal::kHup, 12);

  const telemetry::TrialCounters& c = v.telemetry.counters;
  EXPECT_EQ(c[counter_index("env/net/port_binds")], 1u);
  EXPECT_EQ(c[counter_index("env/net/port_bind_failures")], 1u);
  EXPECT_EQ(v.coverage.count(Site::kEnvPortDenied), 1u);
  EXPECT_EQ(v.coverage.count(Site::kEnvSignalRaised), 1u);
  const auto events = v.ring.chronological();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].code, FlightCode::kPortDenied);
  EXPECT_EQ(events[0].a, 80u);
  EXPECT_EQ(events[1].code, FlightCode::kSignalRaised);
  EXPECT_EQ(events[1].b, 12u);
}

TEST(ObservationBus, NullSinkIsANoOp) {
  obs::emit(nullptr, Event::kDiskNoSpace, 1, 2);

  // A partially attached bus touches only what is attached.
  forensics::FlightRecorder ring;
  const obs::TrialSinks flight_only{.flight = &ring};
  EXPECT_TRUE(flight_only.any());
  obs::emit(&flight_only, Event::kDiskNoSpace, 1, 2);
  obs::emit(&flight_only, Event::kDiskWrite, 1, 2);  // no flight code
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_FALSE(obs::TrialSinks{}.any());
  EXPECT_EQ(env::Environment{}.sinks(), nullptr);
}

TEST(ObservationBus, AttachedSinksDoNotChangeMatrix) {
  // The views observe; they must never steer. The full matrix with every
  // study sink attached reports exactly the bare matrix's result, at one
  // lane and at four.
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  harness::MatrixResult reference;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    harness::TrialConfig config;
    config.threads = threads;
    const auto bare = harness::run_matrix(seeds, mechanisms, config);
    telemetry::StudyTelemetry telemetry;
    forensics::StudyForensics forensics;
    obs::CoverageAtlas atlas;
    const auto observed = harness::run_matrix(
        seeds, mechanisms, config, 3, &telemetry, &forensics, &atlas);
    EXPECT_TRUE(bare == observed);
    if (threads == 1) reference = bare;
    EXPECT_TRUE(bare == reference);
    EXPECT_FALSE(telemetry.metrics.snapshot().empty());
    EXPECT_GT(forensics.failures(), 0u);
    EXPECT_GT(atlas.probes_hit(), 0u);
  }
}

}  // namespace
}  // namespace faultstudy
