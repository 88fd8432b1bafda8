// Tests for the observability layer: coverage probes, the study atlas,
// baseline snapshots, and the drift differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "obs/atlas.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "obs/probes.hpp"
#include "telemetry/metrics.hpp"
#include "util/json.hpp"

namespace faultstudy {
namespace {

std::vector<corpus::SeedFault> small_corpus(std::size_t n) {
  auto seeds = corpus::all_seeds();
  if (seeds.size() > n) seeds.resize(n);
  return seeds;
}

std::vector<harness::NamedMechanism> small_roster(std::size_t n) {
  auto mechanisms = harness::standard_mechanisms();
  if (mechanisms.size() > n) mechanisms.resize(n);
  return mechanisms;
}

// --- CoverageMap primitives ------------------------------------------------

TEST(CoverageMap, HitAndMergeAccumulate) {
  obs::CoverageMap a;
  EXPECT_TRUE(a.empty());
  a.hit(obs::Site::kEnvFdDenied);
  a.hit(obs::Site::kEnvFdDenied);
  a.hit_inject(core::Trigger::kRaceCondition);
  EXPECT_EQ(a.count(obs::Site::kEnvFdDenied), 2u);
  EXPECT_EQ(a.count_inject(core::Trigger::kRaceCondition), 1u);
  EXPECT_EQ(a.probes_hit(), 2u);

  obs::CoverageMap b;
  b.hit(obs::Site::kEnvFdDenied);
  b.hit(obs::Site::kAppStarted);
  a.merge(b);
  EXPECT_EQ(a.count(obs::Site::kEnvFdDenied), 3u);
  EXPECT_EQ(a.count(obs::Site::kAppStarted), 1u);
  EXPECT_EQ(a.probes_hit(), 3u);
}

TEST(CoverageMap, SiteNamesAreStableAndSectioned) {
  EXPECT_EQ(obs::site_name(obs::Site::kEnvFdDenied), "env/fd_denied");
  EXPECT_EQ(obs::site_section(obs::Site::kEnvFdDenied), "env");
  EXPECT_EQ(obs::site_section(obs::Site::kAppStarted), "app");
  EXPECT_EQ(obs::site_section(obs::Site::kRecCheckpoint), "recovery");
  EXPECT_EQ(obs::site_section(obs::Site::kTrialSurvived), "trial");
  // Every site must have a unique, non-empty export name.
  std::vector<std::string> names;
  for (std::size_t i = 0; i < obs::kNumSites; ++i) {
    names.emplace_back(obs::site_name(static_cast<obs::Site>(i)));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// --- probe wiring through run_trial ---------------------------------------

TEST(CoverageProbes, TrialRecordsProbesWhenCompiledIn) {
  const auto seeds = small_corpus(1);
  const auto plan = inject::plan_for(seeds[0], 42);
  auto mechanism = harness::standard_mechanisms()[0].make();
  obs::CoverageMap map;
  (void)harness::run_trial(plan, *mechanism, {}, nullptr, {.coverage = &map});
  // The trial must at least arm its trigger, start the app, attach the
  // mechanism, and reach a verdict.
  EXPECT_GT(map.count_inject(seeds[0].trigger), 0u);
  EXPECT_GT(map.count(obs::Site::kAppStarted), 0u);
  EXPECT_GT(map.count(obs::Site::kRecAttach), 0u);
}

// --- atlas fold determinism ------------------------------------------------

TEST(CoverageAtlas, FoldIsIdenticalForOneAndFourLanes) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  const auto run = [&](std::size_t threads, obs::CoverageAtlas& atlas) {
    harness::TrialConfig config;
    config.threads = threads;
    return harness::run_matrix(seeds, mechanisms, config, 3, nullptr, nullptr,
                               &atlas);
  };
  obs::CoverageAtlas serial, wide;
  const auto serial_matrix = run(1, serial);
  const auto wide_matrix = run(4, wide);
  EXPECT_TRUE(serial == wide);
  EXPECT_EQ(obs::to_json(serial), obs::to_json(wide));
  EXPECT_EQ(obs::render_heatmap_html(serial), obs::render_heatmap_html(wide));
  const auto serial_snap =
      obs::build_snapshot(seeds, serial_matrix, serial, {}, 99, 3);
  const auto wide_snap =
      obs::build_snapshot(seeds, wide_matrix, wide, {}, 99, 3);
  EXPECT_EQ(obs::to_json(serial_snap), obs::to_json(wide_snap));
}

TEST(CoverageAtlas, FoldCellFillsSpecimensAndGrids) {
  const auto seeds = small_corpus(2);
  obs::CoverageAtlas atlas;
  atlas.begin_study(seeds, {"mech-a", "mech-b"});
  ASSERT_EQ(atlas.specimens().size(), 2u);
  ASSERT_EQ(atlas.grids().size(), 2u);

  obs::CoverageMap cell;
  cell.hit(obs::Site::kAppStarted);
  cell.hit_inject(seeds[1].trigger);
  atlas.fold_cell(1, 1, cell, /*trials=*/3, /*observed=*/3, /*survived=*/2);

  EXPECT_EQ(atlas.trials(), 3u);
  EXPECT_EQ(atlas.totals().count(obs::Site::kAppStarted), 1u);
  EXPECT_EQ(atlas.specimens()[1].trials, 3u);
  EXPECT_EQ(atlas.specimens()[1].probes.count(obs::Site::kAppStarted), 1u);
  EXPECT_EQ(atlas.specimens()[0].trials, 0u);
  const auto trigger = static_cast<std::size_t>(seeds[1].trigger);
  EXPECT_EQ(atlas.grids()[1].observed[trigger], 3u);
  EXPECT_EQ(atlas.grids()[1].survived[trigger], 2u);
  EXPECT_EQ(atlas.grids()[0].observed[trigger], 0u);
}

// --- blind spots -----------------------------------------------------------

TEST(CoverageAtlas, BlindSpotsListsEveryUnhitProbe) {
  obs::CoverageAtlas atlas;
  atlas.begin_study({}, {});
  // A synthetic registry where exactly one structural site and one trigger
  // were ever exercised.
  obs::CoverageMap map;
  map.hit(obs::Site::kEnvFdDenied);
  map.hit_inject(core::Trigger::kRaceCondition);
  atlas.fold_cell(0, 0, map, 1, 1, 1);

  const auto blind = atlas.blind_spots();
  EXPECT_EQ(blind.size(), obs::CoverageAtlas::probe_universe() - 2);
  EXPECT_EQ(std::find(blind.begin(), blind.end(), "env/fd_denied"),
            blind.end());
  EXPECT_NE(std::find(blind.begin(), blind.end(), "env/proc_hung"),
            blind.end());
  // The deliberately unreachable site stays on the list until someone hits
  // it.
  const std::string race = obs::inject_site_name(core::Trigger::kRaceCondition);
  EXPECT_EQ(std::find(blind.begin(), blind.end(), race), blind.end());
}

TEST(CoverageAtlas, FullMatrixLeavesNoStructuralEnvBlindSpotsUnexpected) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  obs::CoverageAtlas atlas;
  harness::TrialConfig config;
  config.threads = 0;
  (void)harness::run_matrix(seeds, mechanisms, config, 3, nullptr, nullptr,
                            &atlas);
  // Every trigger recipe in the corpus must arm at least once: the inject
  // plane covers every taxonomy cell the corpus names.
  const std::size_t inject_hits = atlas.cells_covered();
  std::vector<bool> named(core::kNumTriggers, false);
  std::size_t distinct = 0;
  for (const auto& seed : seeds) {
    const auto t = static_cast<std::size_t>(seed.trigger);
    if (!named[t]) {
      named[t] = true;
      ++distinct;
    }
  }
  EXPECT_EQ(inject_hits, distinct);
  // Core protocol probes can never be blind after a full matrix.
  EXPECT_GT(atlas.totals().count(obs::Site::kAppStarted), 0u);
  EXPECT_GT(atlas.totals().count(obs::Site::kRecAttach), 0u);
  EXPECT_GT(atlas.totals().count(obs::Site::kTrialSurvived), 0u);
}

// --- baseline round-trip and drift ----------------------------------------

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seeds_ = small_corpus(12);
    mechanisms_ = small_roster(2);
    harness::TrialConfig config;
    config.threads = 1;
    matrix_ = harness::run_matrix(seeds_, mechanisms_, config, 2, nullptr,
                                  nullptr, &atlas_);
    telemetry::MetricsRegistry registry;
    registry.add(registry.counter("study/example"), 7);
    snapshot_ = obs::build_snapshot(seeds_, matrix_, atlas_,
                                    registry.snapshot(), 99, 2);
  }

  std::vector<corpus::SeedFault> seeds_;
  std::vector<harness::NamedMechanism> mechanisms_;
  harness::MatrixResult matrix_;
  obs::CoverageAtlas atlas_;
  obs::StudySnapshot snapshot_;
};

TEST_F(BaselineTest, RoundTripIsLossless) {
  const std::string text = obs::to_json(snapshot_);
  const auto parsed = obs::parse_snapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value() == snapshot_);
  // Canonical writer: serializing the parse reproduces the bytes.
  EXPECT_EQ(obs::to_json(parsed.value()), text);
  const auto drift = obs::diff(snapshot_, parsed.value());
  EXPECT_TRUE(drift.empty()) << obs::render_text(drift);
}

TEST_F(BaselineTest, ParseRejectsGarbageAndWrongSchema) {
  EXPECT_FALSE(obs::parse_snapshot("not json").ok());
  EXPECT_FALSE(obs::parse_snapshot("{}").ok());
  EXPECT_FALSE(
      obs::parse_snapshot("{\"schema\": \"something-else/9\"}").ok());
}

TEST_F(BaselineTest, LostCoverageIsFatalDrift) {
  obs::StudySnapshot perturbed = snapshot_;
  const auto hit = std::find_if(
      perturbed.probes.begin(), perturbed.probes.end(),
      [](const auto& probe) { return probe.hits > 0; });
  ASSERT_NE(hit, perturbed.probes.end());
  hit->hits = 0;
  // Candidate lost coverage the baseline had -> fatal.
  const auto drift = obs::diff(snapshot_, perturbed);
  EXPECT_TRUE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, NewCoverageIsANoteNotARegression) {
  obs::StudySnapshot improved = snapshot_;
  bool raised = false;
  for (auto& probe : improved.probes) {
    if (probe.hits == 0) {
      probe.hits = 5;
      raised = true;
      break;
    }
  }
  ASSERT_TRUE(raised);
  const auto drift = obs::diff(snapshot_, improved);
  EXPECT_FALSE(drift.empty());
  EXPECT_FALSE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, SurvivalRateShiftBeyondToleranceIsFatal) {
  obs::StudySnapshot perturbed = snapshot_;
  ASSERT_FALSE(perturbed.matrix.empty());
  // Flip one mechanism's EI survival hard enough to clear any band.
  auto& row = perturbed.matrix[0];
  row.total[0] = 10;
  row.survived[0] = 0;
  auto& base_row = snapshot_.matrix[0];
  base_row.total[0] = 10;
  base_row.survived[0] = 10;
  const auto drift = obs::diff(snapshot_, perturbed);
  EXPECT_TRUE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, CounterDeltaIsANote) {
  obs::StudySnapshot perturbed = snapshot_;
  ASSERT_FALSE(perturbed.counters.empty());
  perturbed.counters[0].value += 1;
  const auto drift = obs::diff(snapshot_, perturbed);
  EXPECT_FALSE(drift.empty());
  EXPECT_FALSE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, RenderTextPutsFatalFirst) {
  obs::DriftReport report;
  report.findings.push_back({false, "minor thing"});
  report.findings.push_back({true, "major thing"});
  const std::string text = obs::render_text(report);
  const auto fatal_at = text.find("major thing");
  const auto note_at = text.find("minor thing");
  ASSERT_NE(fatal_at, std::string::npos);
  ASSERT_NE(note_at, std::string::npos);
  EXPECT_LT(fatal_at, note_at);
}

// --- exports ---------------------------------------------------------------

TEST_F(BaselineTest, AtlasJsonAndHeatmapAreWellFormed) {
  const std::string json_text = obs::to_json(atlas_);
  const auto parsed = util::json::parse(json_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().string_or("schema", ""), "faultstudy-atlas/1");

  const std::string html = obs::render_heatmap_html(atlas_);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find(mechanisms_[0].name), std::string::npos);
  // Self-contained: no external asset references.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST_F(BaselineTest, GaugesExportThroughTelemetryRegistry) {
  telemetry::MetricsRegistry registry;
  obs::export_gauges(atlas_, registry);
  const auto snap = registry.snapshot();
  bool found_probes = false, found_universe = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "coverage/probes_hit") {
      found_probes = true;
      EXPECT_EQ(static_cast<std::size_t>(g.value), atlas_.probes_hit());
    }
    if (g.name == "coverage/probe_universe") {
      found_universe = true;
      EXPECT_EQ(static_cast<std::size_t>(g.value),
                obs::CoverageAtlas::probe_universe());
    }
  }
  EXPECT_TRUE(found_probes);
  EXPECT_TRUE(found_universe);
}

// --- the JSON reader the baseline layer depends on -------------------------

TEST(UtilJson, ParsesNestedDocuments) {
  const auto parsed = util::json::parse(
      "{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\n\\\"y\\\"\"}, "
      "\"t\": true, \"n\": null}");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const auto& doc = parsed.value();
  const auto* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_TRUE(a->array[0].is_integer);
  EXPECT_EQ(a->array[0].integer, 1);
  EXPECT_FALSE(a->array[1].is_integer);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].integer, -3);
  const auto* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_or("c", ""), "x\n\"y\"");
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("n")->kind, util::json::Value::Kind::kNull);
}

TEST(UtilJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(util::json::parse("").ok());
  EXPECT_FALSE(util::json::parse("{").ok());
  EXPECT_FALSE(util::json::parse("{\"a\": }").ok());
  EXPECT_FALSE(util::json::parse("[1, 2,]").ok());
  EXPECT_FALSE(util::json::parse("{} trailing").ok());
  EXPECT_FALSE(util::json::parse("\"unterminated").ok());
}

TEST(UtilJson, EscapeRoundTripsThroughParse) {
  const std::string raw = "line\nbreak \"quoted\" back\\slash\ttab";
  const std::string doc = "{\"s\": \"" + util::json::escape(raw) + "\"}";
  const auto parsed = util::json::parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().string_or("s", ""), raw);
}

TEST(Json, AppendQuotedMatchesEscape) {
  // Clean text takes the bulk-append path; anything from the first special
  // character on takes the escape table, wherever that character sits.
  for (const std::string_view text :
       {"", "plain", "\"lead", "trail\\", "mid\nline", "tab\there",
        "cr\r", "\x01 and \x1f", "caf\xc3\xa9", "caf\xc3\xa9 \"q\""}) {
    std::string out = "[";
    util::json::append_quoted(out, text);
    EXPECT_EQ(out, "[\"" + util::json::escape(text) + "\"") << text;
  }
  std::string out;
  util::json::append_quoted(out, "a\"b\\c\n\x01\x1f\xc3\xa9");
  EXPECT_EQ(out, R"("a\"b\\c\n\u0001\u001f)" "\xc3\xa9\"");
}

TEST(Json, QuotedSizeMatchesAppendQuoted) {
  for (const std::string_view text :
       {"", "plain", "\"lead", "trail\\", "mid\nline", "tab\there",
        "cr\r", "\x01 and \x1f", "caf\xc3\xa9", "a\"b\\c\n\x01\x1f\xc3\xa9"}) {
    std::string out;
    util::json::append_quoted(out, text);
    EXPECT_EQ(util::json::quoted_size(text), out.size()) << text;
  }
}

TEST(Json, AppendUintMatchesToString) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{9},
                                std::uint64_t{10}, std::uint64_t{65536},
                                kMax}) {
    std::string out = "x";
    util::json::append_uint(out, v);
    std::string want = "x";
    want += std::to_string(v);
    EXPECT_EQ(out, want);
  }
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t v : {kMin, std::int64_t{-10}, std::int64_t{-1},
                               std::int64_t{0}, std::int64_t{9}, kMaxInt}) {
    std::string out = "x";
    util::json::append_int(out, v);
    std::string want = "x";
    want += std::to_string(v);
    EXPECT_EQ(out, want);
  }
}

}  // namespace
}  // namespace faultstudy
