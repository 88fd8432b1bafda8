// Exact per-trial gate: every (mechanism, fault) trial of the matrix at
// trial seed 99 (repeat 0 of each cell, the seed run_matrix derives) must
// reproduce the committed outcome and counter line byte for byte. The
// survival table and the baseline's tolerance bands cannot see a trial that
// fails one item more, re-executes one item less or runs one query fewer;
// this file can.
//
// On a mismatch the test writes the lines it produced to
// <build>/tests/TrialGolden.actual.txt and fails. A deliberate model change
// is re-blessed by copying that file over tests/golden/
// trial_outcomes_seed99.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "telemetry/trial.hpp"
#include "util/rng.hpp"

namespace faultstudy::harness {
namespace {

constexpr std::uint64_t kTrialSeed = 99;

// The counters print in kCounters order, grouped by metric-name prefix.
// Adding a counter extends every golden line, so the golden file must be
// re-blessed along with the new table row.
constexpr std::pair<std::string_view, std::string_view> kCounterGroups[] = {
    {"env/", " res="}, {"recovery/", " rec="}, {"app/", " app="}};

constexpr bool every_counter_grouped() {
  for (const telemetry::CounterDef& def : telemetry::kCounters) {
    const auto in_group = [&](const auto& group) {
      return def.name.starts_with(group.first);
    };
    if (std::ranges::none_of(kCounterGroups, in_group)) return false;
  }
  return true;
}
static_assert(every_counter_grouped(),
              "a counter outside env/, recovery/ and app/ would not print");

void put_counters(std::ostream& out, const telemetry::TrialCounters& c) {
  for (const auto& [prefix, label] : kCounterGroups) {
    out << label;
    std::string_view sep;
    for (std::size_t i = 0; i < telemetry::kNumCounters; ++i) {
      if (!telemetry::kCounters[i].name.starts_with(prefix)) continue;
      out << sep << c[i];
      sep = ",";
    }
  }
}

/// One trial as one line: the cell, every TrialOutcome field, the trial's
/// counter view. The free-text first failure goes last.
std::string trial_line(const NamedMechanism& nm,
                       const corpus::SeedFault& seed) {
  TrialConfig config;
  config.seed = kTrialSeed + util::fnv1a(seed.fault_id);
  const auto plan = inject::plan_for(seed, config.seed);
  auto mechanism = nm.make();
  telemetry::TrialTelemetry telemetry;
  obs::TrialSinks sinks;
  sinks.telemetry = &telemetry;
  const TrialOutcome o = run_trial(plan, *mechanism, config, nullptr, sinks);

  std::ostringstream out;
  out << nm.name << ' ' << seed.fault_id << " survived=" << o.survived
      << " observed=" << o.failure_observed << " failures=" << o.failures
      << " recoveries=" << o.recoveries
      << " reexecuted=" << o.items_reexecuted
      << " state_preserved=" << o.state_preserved
      << " postmortem=" << o.postmortem.has_value();
  put_counters(out, telemetry.counters);
  out << " first_failure=\"" << o.first_failure << '"';
  return out.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(TrialGolden, OutcomesMatchParentCommit) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = standard_mechanisms();
  const auto actual = parallel_map<std::string>(
      mechanisms.size() * seeds.size(), /*threads=*/0, [&](std::size_t i) {
        return trial_line(mechanisms[i / seeds.size()],
                          seeds[i % seeds.size()]);
      });
  ASSERT_EQ(actual.size(), 834u);

  const std::string golden_path =
      std::string(FAULTSTUDY_GOLDEN_DIR) + "/trial_outcomes_seed99.txt";
  const auto golden = read_lines(golden_path);
  if (golden == actual) return;

  const std::string actual_path =
      std::string(FAULTSTUDY_TEST_BINARY_DIR) + "/TrialGolden.actual.txt";
  std::ofstream out(actual_path);
  out << "# mechanism fault_id outcome fields;"
         " res=env/ rec=recovery/ app=app/ counters (kCounters order);"
         " first_failure last\n";
  for (const auto& line : actual) out << line << '\n';

  std::size_t first = 0;
  while (first < golden.size() && first < actual.size() &&
         golden[first] == actual[first]) {
    ++first;
  }
  ADD_FAILURE() << "trial outcomes differ from " << golden_path << " ("
                << golden.size() << " golden lines, " << actual.size()
                << " actual); first difference at trial " << first + 1
                << "\n  golden: "
                << (first < golden.size() ? golden[first] : "<none>")
                << "\n  actual: "
                << (first < actual.size() ? actual[first] : "<none>")
                << "\nActual lines written to " << actual_path
                << "; copy it over the golden file to re-bless.";
}

}  // namespace
}  // namespace faultstudy::harness
