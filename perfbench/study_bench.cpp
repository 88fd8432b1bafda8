// study_bench — the study benchmark's runner (perfbench/run.py builds and
// runs it; see perfbench/README.md).
//
//   study_bench --workload matrix|mine|matrix-observed --seed N
//               --seconds S --trace 0|1 --baseline PATH
//               [--smoke] [--commit ID] [--source DIGEST]
//
// Untraced (--trace 0) it runs passes for S seconds, pass k on seed N+k,
// and reports the end-to-end metrics as medians over passes, with times
// scaled to a reference host speed measured by calibration kernels run
// in a separate process after every pass (the measured medians go to
// stderr). Traced (--trace 1) it prepares seed N once and runs an untraced
// and a traced pass per round, in alternating order, checks that each
// traced pass reproduces the untraced result, and reports the per-layer
// metrics as medians over traced passes. With
// --smoke it runs one pass over a few seed faults. Every other run ends
// with one untimed pass at the workload's reference seed, checked exactly.
//
// Output: a `run-header {...}` line identifying the build and run, then as
// the last line one JSON object with exactly the keys correct, attempted,
// failed and metrics. A pass whose output check fails counts in `failed`.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ledger.hpp"
#include "workloads.hpp"

using namespace faultstudy::bench;

namespace {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics, measured untraced (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"pass_s", "s"}, {"items_per_s", "1/s"},
    {"cpu_s", "s"},          {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics, measured traced (BENCHMARK.json "per_layer"). A
/// layer the workload does not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"apps.start.calls", "count"},
    {"apps.start.busy_s", "s"},
    {"apps.start.allocs", "count"},
    {"apps.stop.calls", "count"},
    {"apps.stop.busy_s", "s"},
    {"apps.stop.allocs", "count"},
    {"apps.snapshot.calls", "count"},
    {"apps.snapshot.busy_s", "s"},
    {"apps.snapshot.allocs", "count"},
    {"apps.restore.calls", "count"},
    {"apps.restore.busy_s", "s"},
    {"apps.restore.allocs", "count"},
    {"apps.rejuvenate.calls", "count"},
    {"apps.rejuvenate.busy_s", "s"},
    {"apps.rejuvenate.allocs", "count"},
    {"recovery.attach.calls", "count"},
    {"recovery.attach.busy_s", "s"},
    {"recovery.checkpoint.calls", "count"},
    {"recovery.checkpoint.busy_s", "s"},
    {"recovery.recover.calls", "count"},
    {"recovery.recover.busy_s", "s"},
    {"recovery.recover.self_s", "s"},
    {"recovery.self_s", "s"},
    {"recovery.recovered_ratio", "ratio"},
    {"harness.trials", "count"},
    {"harness.trial_busy_s", "s"},
    {"harness.trial_self_s", "s"},
    {"harness.allocs_per_trial", "count"},
    {"harness.trial_busy_s.apache", "s"},
    {"harness.trial_busy_s.gnome", "s"},
    {"harness.trial_busy_s.mysql", "s"},
    {"harness.trial_busy_s.process-pairs", "s"},
    {"harness.trial_busy_s.rollback-retry", "s"},
    {"harness.trial_busy_s.progressive-retry", "s"},
    {"harness.trial_busy_s.cold-restart", "s"},
    {"harness.trial_busy_s.rejuvenation", "s"},
    {"harness.trial_busy_s.app-specific", "s"},
    {"util.lane_busy_ratio", "ratio"},
    {"corpus.generate_s", "s"},
    {"mining.filter.busy_s", "s"},
    {"mining.filter.kept", "count"},
    {"mining.keyword.busy_s", "s"},
    {"mining.keyword.messages", "count"},
    {"mining.keyword.hits", "count"},
    {"mining.dedup.busy_s", "s"},
    {"mining.dedup.docs", "count"},
    {"mining.dedup.clusters", "count"},
    {"core.classify.calls", "count"},
    {"core.classify.busy_s", "s"},
    {"core.classify.us_per_call", "us"},
    {"mining.allocs_per_pass", "count"},
    {"mining.stage_coverage", "ratio"},
    {"telemetry.export.busy_s", "s"},
    {"telemetry.export.bytes", "bytes"},
    {"forensics.postmortems", "count"},
    {"forensics.triage.busy_s", "s"},
    {"forensics.export.busy_s", "s"},
    {"forensics.export.bytes", "bytes"},
    {"obs.atlas.busy_s", "s"},
    {"obs.snapshot.busy_s", "s"},
    {"obs.diff.busy_s", "s"},
    {"obs.diff.fatal", "count"},
    {"analysis.oracle.busy_s", "s"},
    {"analysis.oracle.rows", "count"},
    {"analysis.oracle.agreement", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.calibration_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string baseline;
  bool smoke = false;
  std::string commit = "unknown";
  std::string source = "unknown";
};

int usage(const char* why) {
  std::fprintf(stderr,
               "study_bench: %s\n"
               "usage: study_bench --workload matrix|mine|matrix-observed "
               "--seed N --seconds S --trace 0|1 --baseline PATH\n"
               "                   [--smoke] [--commit ID] "
               "[--source DIGEST]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const std::string_view s(text);
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

/// Parses argv into `args`; returns an error message or nullptr.
const char* parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return "missing value after a flag";
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) return "--seed needs an integer";
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600) {
        return "--seconds needs an integer in [1, 3600]";
      }
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return "--trace needs 0 or 1";
      args.trace = static_cast<int>(n);
    } else if (flag == "--baseline") {
      args.baseline = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source") {
      args.source = value;
    } else {
      return "unknown flag";
    }
  }
  if (args.workload.empty()) return "--workload is required";
  if (args.seconds <= 0.0) return "--seconds is required";
  if (args.trace < 0) return "--trace is required";
  if (args.baseline.empty()) return "--baseline is required";
  return nullptr;
}

/// JSON string literal for the header's free-text fields.
std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + '"';
}

/// Shortest round-trip decimal form: every digit as measured.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void print_header(const Args& args) {
  std::printf(
      "run-header {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %s, \"lanes\": %zu, \"nproc\": %u, "
      "\"build_type\": %s, \"compiler\": %s, "
      "\"FAULTSTUDY_TELEMETRY\": %s, \"FAULTSTUDY_FORENSICS\": %s, "
      "\"FAULTSTUDY_COVERAGE\": %s, \"git_commit\": %s, "
      "\"source_sha256\": %s}\n",
      quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
      args.trace, args.smoke ? "true" : "false", kLanes,
      std::thread::hardware_concurrency(), quoted(FS_BENCH_BUILD_TYPE).c_str(),
      quoted(kCompiler).c_str(),
      quoted(FS_BENCH_TELEMETRY).c_str(), quoted(FS_BENCH_FORENSICS).c_str(),
      quoted(FS_BENCH_COVERAGE).c_str(), quoted(args.commit).c_str(),
      quoted(args.source).c_str());
}

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<MetricSpec, double>> metrics;
};

/// Counts one pass; logs its wall and CPU time to stderr (per-pass figures,
/// for single-run spread; stdout keeps only the header and the result).
void count_pass(Result& result, const Pass& pass, double wall_s,
                double cpu_s) {
  ++result.attempted;
  std::fprintf(stderr, "pass %zu: %s s wall, %s s cpu\n", result.attempted,
               number(wall_s).c_str(), number(cpu_s).c_str());
  if (pass.failure.empty()) return;
  ++result.failed;
  std::fprintf(stderr, "pass %zu failed its output check: %s\n",
               result.attempted, pass.failure.c_str());
}

/// Fixed reference kernels owned by the benchmark, independent of the
/// study's code. Their wall time beside each pass measures how fast the
/// host is running at that moment; a shared host drifts by 30% and more
/// over minutes, in CPU time as much as in wall time.

/// Small allocations, string building, hashing and sorting: the
/// instruction mix of the study's hot paths.
void churn_kernel() {
  std::uint64_t x = 88172645463325252ull;
  std::unordered_map<std::string, std::uint64_t> counts;
  std::vector<std::string> keys;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string key = "key-" + std::to_string(x % 20011) + "-" +
                      std::to_string(x % 7);
    counts[key] += x;
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(counts.size() + keys.front().size(),
                 std::memory_order_relaxed);
}

/// 16 MiB ring for chase_kernel: slot i holds the next slot of one cycle
/// through all slots (a full-period LCG), so every step is a dependent load
/// at an address no prefetcher predicts.
std::vector<std::uint32_t> make_ring() {
  constexpr std::uint32_t kSlots = 1u << 22;
  std::vector<std::uint32_t> ring(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    ring[i] = (1664525u * i + 1013904223u) & (kSlots - 1);
  }
  return ring;
}

/// A dependent walk through the ring: memory latency, which the study's
/// table and map lookups wait on too, and which the host's neighbours
/// change without changing the churn kernel's time much.
void chase_kernel(const std::vector<std::uint32_t>& ring, std::size_t lane) {
  std::uint32_t at = static_cast<std::uint32_t>(lane * ring.size() / kLanes);
  for (int i = 0; i < 300000; ++i) at = ring[at];
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(at, std::memory_order_relaxed);
}

/// Median wall time of three rounds of `kernel(lane)` on kLanes threads at
/// once, as the workloads run on kLanes lanes (the first round pays the
/// fresh process's page faults).
template <typename Kernel>
double lane_rounds(const Kernel& kernel) {
  std::vector<double> rounds;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t start = now_ns();
    std::vector<std::thread> others;
    for (std::size_t lane = 1; lane < kLanes; ++lane) {
      others.emplace_back([&kernel, lane] { kernel(lane); });
    }
    kernel(0);
    for (std::thread& t : others) t.join();
    rounds.push_back(seconds(now_ns() - start));
  }
  return median(rounds);
}

/// `study_bench --calibrate`: prints on stdout the geometric mean of the
/// two kernels' round times. Each tracks host states the other misses: on
/// 8 matrix-observed runs in one period the churn kernel alone left the
/// spread of pass_s between runs at 0.119 (unscaled 0.116), the chase
/// alone brought it to 0.057 and the mean to 0.061, while in other periods
/// the churn kernel alone took it from 0.16 to 0.05.
int calibration_main() {
  const std::vector<std::uint32_t> ring = make_ring();
  const double churn = lane_rounds([](std::size_t) { churn_kernel(); });
  const double chase =
      lane_rounds([&ring](std::size_t lane) { chase_kernel(ring, lane); });
  std::printf("%s\n", number(std::sqrt(churn * chase)).c_str());
  return 0;
}

/// Times the kernels in a child process running this binary with
/// --calibrate, so they neither share the measured process's heap nor
/// leave their allocations in it.
double calibrate() {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("calibration: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  char arg0[] = "study_bench";
  char arg1[] = "--calibrate";
  char* argv[] = {arg0, arg1, nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buf[64];
  for (ssize_t n; spawned == 0 && (n = read(out[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(out[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("calibration process failed");
  }
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || value <= 0.0) {
    throw std::runtime_error("calibration process printed " + text);
  }
  return value;
}

/// calibrate()'s median on the host the benchmark was defined on (4-vCPU
/// 2.0 GHz Xeon VM). End-to-end times are reported at that host speed:
/// measured time x kReferenceCalibrationS / the run's median calibration.
constexpr double kReferenceCalibrationS = 0.042;

constexpr std::int64_t kMinSetupNs = 10'000'000;

/// One untimed pass at the workload's reference seed, whose output is known
/// exactly, so every run also checks the program against its known answer.
void run_reference(Workload& workload, const Args& args, Result& result) {
  if (args.smoke) return;
  workload.prepare(workload.reference_seed());
  const double cpu_start = process_cpu_s();
  const std::int64_t start = now_ns();
  const Pass pass = workload.run();
  count_pass(result, pass, seconds(now_ns() - start),
             process_cpu_s() - cpu_start);
}

Result run_untraced(Workload& workload, const Args& args) {
  Result result;
  std::vector<double> calibration, setup, pass_s, items_per_s, cpu;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    // A set-up shorter than kMinSetupNs is repeated for that long and its
    // median repetition taken, so a sub-millisecond preparation is read
    // neither off a single clock interval nor off one disturbed repetition.
    std::vector<double> reps;
    const std::int64_t setup_start = now_ns();
    do {
      const std::int64_t rep_start = now_ns();
      workload.prepare(args.seed + result.attempted);
      reps.push_back(seconds(now_ns() - rep_start));
    } while (now_ns() - setup_start < kMinSetupNs);
    setup.push_back(median(reps));

    const double cpu_start = process_cpu_s();
    const std::int64_t pass_start = now_ns();
    const Pass pass = workload.run();
    pass_s.push_back(seconds(now_ns() - pass_start));
    cpu.push_back(process_cpu_s() - cpu_start);
    items_per_s.push_back(static_cast<double>(pass.items) / pass.core_s);
    count_pass(result, pass, pass_s.back(), cpu.back());
    calibration.push_back(calibrate());
    std::fprintf(stderr, "calibration %s s\n",
                 number(calibration.back()).c_str());
  } while (!args.smoke && now_ns() < deadline);
  run_reference(workload, args, result);

  const double measured[] = {median(setup), median(pass_s),
                             median(items_per_s), median(cpu)};
  const double scale = kReferenceCalibrationS / median(calibration);
  std::fprintf(stderr,
               "host speed: calibration %s s (reference %s s); measured "
               "setup_s %s, pass_s %s, items_per_s %s, cpu_s %s\n",
               number(median(calibration)).c_str(),
               number(kReferenceCalibrationS).c_str(),
               number(measured[0]).c_str(), number(measured[1]).c_str(),
               number(measured[2]).c_str(), number(measured[3]).c_str());
  const double values[] = {measured[0] * scale, measured[1] * scale,
                           measured[2] / scale, measured[3] * scale,
                           peak_rss_mib()};
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    result.metrics.emplace_back(kEndToEnd[i], values[i]);
  }
  return result;
}

Result run_traced(Workload& workload, const Args& args) {
  Result result;
  Samples layers;
  // Traced / untraced wall time of each round after the first (a warm-up).
  std::vector<double> overhead;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  workload.prepare(args.seed);
  for (std::size_t round = 0;; ++round) {
    Pass plain;
    double plain_s = 0.0;
    const auto run_plain = [&] {
      const std::int64_t start = now_ns();
      plain = workload.run();
      plain_s = seconds(now_ns() - start);
    };
    // Odd rounds run the traced pass first, so neither pass always reads
    // the position after the other. The first round runs the untraced pass
    // first: the traced pass checks itself against the last untraced one.
    if (round % 2 == 0) run_plain();
    const double cpu_start = process_cpu_s();
    const std::int64_t start = now_ns();
    Pass traced = workload.run_traced(layers);
    const double traced_s = seconds(now_ns() - start);
    const double traced_cpu_s = process_cpu_s() - cpu_start;
    if (round % 2 == 1) run_plain();
    if (traced.failure.empty()) traced.failure = plain.failure;
    count_pass(result, traced, traced_s, traced_cpu_s);
    if (round > 0 || args.smoke) overhead.push_back(traced_s / plain_s);
    layers.add("bench.calibration_s", calibrate());
    if (args.smoke || (round > 0 && now_ns() >= deadline)) break;
  }
  run_reference(workload, args, result);

  layers.add("bench.trace_overhead", median(overhead));
  for (const std::string& name : layers.names()) {
    const bool declared =
        std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                    [&](const MetricSpec& spec) { return spec.name == name; });
    if (!declared) throw std::logic_error("undeclared metric " + name);
  }
  for (const MetricSpec& spec : kPerLayer) {
    result.metrics.emplace_back(spec, layers.median(spec.name));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--calibrate") {
    return calibration_main();
  }
  Args args;
  if (const char* error = parse(argc, argv, args)) return usage(error);
  WorkloadOptions options;
  options.baseline_path = args.baseline;
  options.smoke = args.smoke;
  const auto workload = make_workload(args.workload, options);
  if (workload == nullptr) return usage("unknown workload");

  print_header(args);
  std::fflush(stdout);
  Result result;
  try {
    result = args.trace == 1 ? run_traced(*workload, args)
                             : run_untraced(*workload, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "study_bench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [spec, value] = result.metrics[i];
    if (i > 0) json += ", ";
    json += quoted(spec.name) + ": {\"value\": " + number(value) +
            ", \"unit\": " + quoted(spec.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
