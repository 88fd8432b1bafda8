// postmortem — the fault-forensics study explorer.
//
//   postmortem_cli explore <out.html>        # self-contained HTML explorer
//   postmortem_cli json <out.json>           # machine-readable forensic dump
//   postmortem_cli triage                    # triage clusters on stdout
//   postmortem_cli specimen <fault> <mech>   # one deep-dive post-mortem
//
// explore/json/triage run the full fault x mechanism matrix with a flight
// recorder attached to every trial and collect a post-mortem from every
// failed one; specimen re-runs a single trial traced, so the causal chain
// also carries detector verdicts (race reports, invariant violations).
//
// Everything is deterministic: `--threads N` changes wall-clock time only,
// never a byte of the output artifacts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "forensics/export.hpp"
#include "forensics/postmortem.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "report/table.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

std::size_t g_threads = 0;
long long g_seed = -1;

int usage() {
  std::fputs(
      "usage:\n"
      "  postmortem_cli explore <out.html>   (HTML study explorer)\n"
      "  postmortem_cli json <out.json>      (forensic dump)\n"
      "  postmortem_cli triage               (failure clusters on stdout)\n"
      "  postmortem_cli specimen <fault-id> <mechanism>\n"
      "options:\n"
      "  --threads N          execution lanes for the matrix (output is\n"
      "                       byte-identical for every N)\n"
      "  --seed N             base trial seed (default 99)\n"
      "  --log-level=LEVEL    debug|info|warn|error|off\n",
      stderr);
  return 2;
}

bool write_file(const std::string& path, const std::string& payload) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << payload;
  return true;
}

struct MatrixForensics {
  harness::MatrixResult matrix;
  forensics::StudyForensics study;
  std::vector<forensics::TriageCluster> clusters;
};

MatrixForensics run_matrix_with_forensics() {
  harness::TrialConfig config;
  config.threads = g_threads;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  std::fprintf(stderr, "matrix: seed=%llu threads=%zu\n",
               static_cast<unsigned long long>(config.seed),
               util::resolve_threads(g_threads));
  MatrixForensics out;
  out.matrix =
      harness::run_matrix(corpus::all_seeds(), harness::standard_mechanisms(),
                          config, 3, nullptr, &out.study);
  out.clusters = forensics::triage(out.study.postmortems);
  return out;
}

std::vector<forensics::MechanismSuccessRow> success_rows(
    const harness::MatrixResult& matrix) {
  std::vector<forensics::MechanismSuccessRow> rows;
  rows.reserve(matrix.reports.size());
  for (const auto& report : matrix.reports) {
    rows.push_back({report.mechanism, report.generic, report.survived_all(),
                    report.total_all(), report.state_losses});
  }
  return rows;
}

int cmd_explore(const std::string& path) {
  const MatrixForensics mf = run_matrix_with_forensics();
  const std::string html = forensics::render_explorer_html(
      mf.study, mf.clusters, success_rows(mf.matrix),
      "Fault-forensics study explorer");
  if (!write_file(path, html)) return 1;
  std::printf("explorer : wrote %s (%zu bytes, %zu post-mortems, "
              "%zu clusters)\n",
              path.c_str(), html.size(), mf.study.failures(),
              mf.clusters.size());
  return 0;
}

int cmd_json(const std::string& path) {
  const MatrixForensics mf = run_matrix_with_forensics();
  const std::string json = forensics::to_json(mf.study, mf.clusters);
  if (!write_file(path, json)) return 1;
  std::printf("forensics: wrote %s (%zu bytes, %zu post-mortems)\n",
              path.c_str(), json.size(), mf.study.failures());
  return 0;
}

int cmd_triage() {
  const MatrixForensics mf = run_matrix_with_forensics();
  std::printf("%zu/%zu trials failed, %zu failure signatures\n\n",
              mf.study.failures(), mf.study.trials, mf.clusters.size());
  report::AsciiTable t({"signature", "count", "failures", "recoveries",
                        "specimens"});
  for (const auto& c : mf.clusters) {
    t.add_row({c.signature, std::to_string(c.count),
               std::to_string(c.total_failures),
               std::to_string(c.total_recoveries),
               std::to_string(c.fault_ids.size())});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}

int cmd_specimen(const std::string& fault_id, const std::string& mechanism) {
  const auto seeds = corpus::all_seeds();
  const corpus::SeedFault* seed = nullptr;
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) seed = &s;
  }
  if (seed == nullptr) {
    std::fprintf(stderr, "unknown fault id %s\n", fault_id.c_str());
    return 1;
  }
  harness::MechanismFactory factory;
  for (const auto& nm : harness::standard_mechanisms()) {
    if (nm.name == mechanism) factory = nm.make;
  }
  if (!factory) {
    std::fprintf(stderr, "unknown mechanism %s (try process-pairs, "
                         "rollback-retry, progressive-retry, cold-restart, "
                         "rejuvenation, app-specific)\n",
                 mechanism.c_str());
    return 1;
  }

  harness::TrialConfig config;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  const auto plan = inject::plan_for(
      *seed, g_seed >= 0 ? static_cast<std::uint64_t>(g_seed) : 42);
  auto mech = factory();
  // Traced deep-dive: the post-mortem's detection stage gets race-detector
  // and invariant-checker verdicts on top of the harness observations.
  harness::TrialObservation observation;
  forensics::FlightRecorder ring;
  const auto outcome =
      harness::run_trial(plan, *mech, config, &observation, {.flight = &ring});

  std::printf("specimen  : %s under %s (seed=%llu)\n", fault_id.c_str(),
              mechanism.c_str(),
              static_cast<unsigned long long>(config.seed));
  std::printf("verdict   : %s (%zu failures, %zu recoveries)\n",
              outcome.survived ? "SURVIVED" : "NOT SURVIVED",
              outcome.failures, outcome.recoveries);
  if (!outcome.postmortem.has_value()) {
    std::printf("no post-mortem: the trial survived (ring held %zu events)\n",
                ring.size());
    return 0;
  }
  const forensics::PostMortemRecord& pm = *outcome.postmortem;
  std::printf("signature : %s\n",
              forensics::failure_signature(pm).c_str());
  std::printf("\ncausal chain:\n");
  for (const auto& link : pm.chain) {
    std::printf("  [%-11s] t=%-8llu %s\n",
                std::string(to_string(link.stage)).c_str(),
                static_cast<unsigned long long>(link.at),
                link.description.c_str());
  }
  const auto& s = pm.env_state;
  std::printf("\nenv at failure: procs %zu/%zu, fds %zu/%zu, disk %llu/%llu "
              "bytes, entropy %llu bits\n",
              s.procs_used, s.procs_capacity, s.fds_used, s.fds_capacity,
              static_cast<unsigned long long>(s.disk_used),
              static_cast<unsigned long long>(s.disk_capacity),
              static_cast<unsigned long long>(s.entropy_bits));
  std::printf("flight ring: %zu events held, %llu overwritten\n",
              pm.events.size(),
              static_cast<unsigned long long>(pm.events_dropped));
  if (pm.analyzed) {
    std::printf("detectors : %zu race report(s), %zu invariant "
                "violation(s)\n",
                pm.race_reports, pm.invariant_violations);
  }
  return 3;  // mirrors faultstudy_cli simulate: non-survival exits 3
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) return usage();
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1) return usage();
      g_threads = static_cast<std::size_t>(n);
      continue;
    }
    if (arg == "--seed") {
      if (i + 1 >= argc) return usage();
      char* end = nullptr;
      const long long n = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 0) return usage();
      g_seed = n;
      continue;
    }
    if (arg.starts_with("--log-level=")) {
      const auto level =
          util::parse_log_level(arg.substr(std::strlen("--log-level=")));
      if (!level.has_value()) return usage();
      util::set_log_level(*level);
      continue;
    }
    args.push_back(arg);
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd == "explore" && args.size() == 2) return cmd_explore(args[1]);
  if (cmd == "json" && args.size() == 2) return cmd_json(args[1]);
  if (cmd == "triage" && args.size() == 1) return cmd_triage();
  if (cmd == "specimen" && args.size() == 3)
    return cmd_specimen(args[1], args[2]);
  return usage();
}
