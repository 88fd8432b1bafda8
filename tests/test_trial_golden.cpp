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

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "telemetry/trial.hpp"
#include "util/rng.hpp"

namespace faultstudy::harness {
namespace {

// Adding a counter field must extend the golden lines below.
constexpr std::size_t kWord = sizeof(std::uint64_t);
static_assert(sizeof(telemetry::ResourceCounters) == 27 * kWord);
static_assert(sizeof(telemetry::RecoveryCounters) == 10 * kWord);
static_assert(sizeof(telemetry::AppCounters) == 5 * kWord);

constexpr std::uint64_t kTrialSeed = 99;

void put_counters(std::ostream& out, const telemetry::TrialCounters& c) {
  const auto& r = c.resources;
  out << " res=" << r.proc_spawns << ',' << r.proc_spawn_failures << ','
      << r.proc_kills << ',' << r.procs_marked_hung << ',' << r.peak_procs
      << ',' << r.fds_acquired << ',' << r.fd_acquire_failures << ','
      << r.fds_released << ',' << r.peak_fds << ',' << r.disk_writes << ','
      << r.disk_bytes_written << ',' << r.disk_write_failures << ','
      << r.disk_truncates << ',' << r.peak_disk_used << ',' << r.dns_lookups
      << ',' << r.dns_errors << ',' << r.dns_slow_replies << ','
      << r.dns_reverse_misses << ',' << r.port_binds << ','
      << r.port_bind_failures << ',' << r.ports_released << ','
      << r.kernel_resource_denied << ',' << r.sched_draws << ','
      << r.sched_replays << ',' << r.entropy_reads << ','
      << r.entropy_blocked << ',' << r.entropy_bits_taken;
  const auto& v = c.recovery;
  out << " rec=" << v.attempts << ',' << v.successes << ',' << v.failures
      << ',' << v.items_rewound << ',' << v.checkpoints << ',' << v.failovers
      << ',' << v.cold_restarts << ',' << v.rejuvenation_cycles << ','
      << v.proactive_rejuvenations << ',' << v.retries_sanitized;
  const auto& a = c.app;
  out << " app=" << a.requests_served << ',' << a.cache_fills << ','
      << a.cgi_children << ',' << a.queries_ok << ',' << a.ui_events;
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
         " res=ResourceCounters rec=RecoveryCounters app=AppCounters"
         " (declaration order); first_failure last\n";
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
