// Tests for the telemetry layer: histogram/registry mechanics, span
// tracing against the simulated clock, the exporters, and the determinism
// contract — an instrumented run_matrix over the full specimen corpus must
// produce identical metric snapshots, identical span traces, and a
// byte-identical Chrome trace for threads=1 and threads=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/seeds.hpp"
#include "env/clock.hpp"
#include "harness/experiment.hpp"
#include "obs/bus.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trial.hpp"

namespace faultstudy {
namespace {

// --- histogram ------------------------------------------------------------

/// -1, then every tick bound and the value just past it: 0, 1, 2, 3, 4, 5,
/// 8, 9, ..., 4096, 4097, 16384, 16385.
std::vector<std::int64_t> tick_edge_values() {
  std::vector<std::int64_t> values = {-1};
  for (const std::int64_t bound : telemetry::kTickBounds) {
    if (values.back() != bound) values.push_back(bound);
    values.push_back(bound + 1);
  }
  return values;
}

/// tick_edge_values() by bucket. Bounds are inclusive upper edges: -1 lands
/// below the first bound, a value at a bound stays in that bound's bucket,
/// bound + 1 moves to the next one, and 16385 is past the last bound, in
/// the overflow bucket.
constexpr telemetry::TickHistogram::Buckets kTickEdgeBuckets = {
    2,  // -1, 0
    1,  // 1
    1,  // 2
    2,  // 3, 4
    2,  // 5, 8
    2, 2, 2, 2, 2, 2, 2,  // (2^k, 2^(k+1)] for 8 <= 2^k <= 512
    2,  // 1025, 4096
    2,  // 4097, 16384
    1,  // 16385: overflow
};
constexpr std::uint64_t kTickEdgeCount = 27;
constexpr std::int64_t kTickEdgeSum = 45064;

TEST(TickHistogram, FoldsToTheDefaultTickHistogram) {
  // The registry folds a TickHistogram into the exported form: kTickBounds
  // as the bounds, one count per bucket, overflow last.
  telemetry::TickHistogram ticks;
  for (const std::int64_t v : tick_edge_values()) ticks.observe(v);
  EXPECT_EQ(ticks.buckets(), kTickEdgeBuckets);
  EXPECT_EQ(ticks.count(), kTickEdgeCount);
  EXPECT_EQ(ticks.sum(), kTickEdgeSum);

  telemetry::MetricsRegistry reg;
  reg.merge_histogram(reg.histogram("lat"), ticks);
  reg.histogram("idle");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 2u);
  const std::vector<std::int64_t> bounds(telemetry::kTickBounds.begin(),
                                         telemetry::kTickBounds.end());
  const auto& idle = snap.histograms[0];
  EXPECT_EQ(idle.name, "idle");
  EXPECT_EQ(idle.bounds, bounds);
  EXPECT_EQ(idle.buckets, std::vector<std::uint64_t>(bounds.size() + 1, 0));
  EXPECT_EQ(idle.count, 0u);
  EXPECT_EQ(idle.sum, 0);
  const auto& lat = snap.histograms[1];
  EXPECT_EQ(lat.name, "lat");
  EXPECT_EQ(lat.bounds, bounds);
  EXPECT_EQ(lat.buckets, std::vector<std::uint64_t>(kTickEdgeBuckets.begin(),
                                                    kTickEdgeBuckets.end()));
  EXPECT_EQ(lat.count, kTickEdgeCount);
  EXPECT_EQ(lat.sum, kTickEdgeSum);
}

TEST(TickHistogram, MergeAndResetMatchTheDefaultTickHistogram) {
  // Odd and even positions observed apart and merged equal one histogram
  // fed everything; a reset one is a fresh one.
  const auto values = tick_edge_values();
  telemetry::TickHistogram even;
  telemetry::TickHistogram odd;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 2 == 0 ? even : odd).observe(values[i]);
  }
  EXPECT_EQ(even.count(), 14u);
  EXPECT_EQ(odd.count(), 13u);
  even.merge(odd);
  EXPECT_EQ(even.buckets(), kTickEdgeBuckets);
  EXPECT_EQ(even.count(), kTickEdgeCount);
  EXPECT_EQ(even.sum(), kTickEdgeSum);
  even.reset();
  EXPECT_EQ(even, telemetry::TickHistogram{});
}

// --- registry -------------------------------------------------------------

TEST(MetricsRegistry, RegistrationInternsNames) {
  telemetry::MetricsRegistry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("x");
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(reg.counter("y").index, a.index);
}

TEST(MetricsRegistry, ShardsFoldIntoOneSnapshotValue) {
  // Repeated adds and peaks on one metric fold into one snapshot value.
  telemetry::MetricsRegistry reg;
  const auto c = reg.counter("hits");
  const auto g = reg.gauge("depth");
  for (const std::int64_t depth : {10, 30, 0, 20}) {
    reg.add(c, static_cast<std::uint64_t>(depth) + 1);
    reg.peak(g, depth);
  }
  EXPECT_EQ(reg.counter("hits").index, c.index);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 11u + 31u + 1u + 21u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 30);
}

TEST(MetricsRegistry, SnapshotSortsByName) {
  telemetry::MetricsRegistry reg;
  reg.add(reg.counter("zebra"));
  reg.add(reg.counter("alpha"));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zebra");
}

TEST(Counters, MergeSumsCountersAndMaxesPeaks) {
  using telemetry::counter_index;
  telemetry::TrialCounters a{};
  telemetry::TrialCounters b{};
  a[counter_index("env/proc/spawns")] = 2;
  a[counter_index("env/proc/peak")] = 5;
  b[counter_index("env/proc/spawns")] = 3;
  b[counter_index("env/proc/peak")] = 4;
  b[counter_index("env/fd/peak")] = 6;
  b[counter_index("recovery/attempts")] = 1;
  telemetry::merge(a, b);
  EXPECT_EQ(a[counter_index("env/proc/spawns")], 5u);
  EXPECT_EQ(a[counter_index("env/proc/peak")], 5u);
  EXPECT_EQ(a[counter_index("env/fd/peak")], 6u);
  EXPECT_EQ(a[counter_index("recovery/attempts")], 1u);

  // Every row folds by its kind, whichever side holds the larger value.
  constexpr std::uint64_t n = telemetry::kNumCounters;
  for (std::uint64_t i = 0; i < n; ++i) {
    a[i] = i;
    b[i] = n - i;
  }
  telemetry::merge(a, b);
  for (std::uint64_t i = 0; i < n; ++i) {
    const telemetry::CounterDef& def = telemetry::kCounters[i];
    EXPECT_EQ(a[i], def.fold == telemetry::Fold::kPeak ? std::max(i, n - i) : n)
        << def.name;
  }
}

TEST(Counters, FoldIntoKeepsTheMetricVocabulary) {
  // The exported names, copied from the hand-written fold this table
  // replaced, in its order. Every counter is set, so none is skipped as zero.
  constexpr std::string_view kCounterNames = R"(env/proc/spawns
env/proc/spawn_failures
env/proc/kills
env/proc/marked_hung
env/fd/acquired
env/fd/acquire_failures
env/fd/released
env/disk/writes
env/disk/bytes_written
env/disk/write_failures
env/disk/truncates
env/dns/lookups
env/dns/errors
env/dns/slow_replies
env/dns/reverse_misses
env/net/port_binds
env/net/port_bind_failures
env/net/ports_released
env/net/kernel_resource_denied
env/sched/draws
env/sched/replays
env/entropy/reads
env/entropy/blocked
env/entropy/bits_taken
app/requests_served
app/cache_fills
app/cgi_children
app/queries_ok
app/ui_events
recovery/m/attempts
recovery/m/successes
recovery/m/failures
recovery/m/items_rewound
recovery/m/checkpoints
recovery/m/failovers
recovery/m/cold_restarts
recovery/m/rejuvenation_cycles
recovery/m/proactive_rejuvenations
recovery/m/retries_sanitized)";
  constexpr std::string_view kGaugeNames = R"(env/proc/peak
env/fd/peak
env/disk/peak_used)";
  const auto sorted_lines = [](std::string_view text) {
    std::vector<std::string> lines;
    std::istringstream in{std::string(text)};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const auto names = [](const auto& metrics) {
    std::vector<std::string> out;
    for (const auto& m : metrics) out.push_back(m.name);
    return out;
  };

  telemetry::TrialTelemetry trial;
  trial.counters.fill(1);
  telemetry::MetricsRegistry reg;
  telemetry::fold_into(trial, "m", reg);
  auto snap = reg.snapshot();
  EXPECT_EQ(names(snap.counters), sorted_lines(kCounterNames));
  EXPECT_EQ(names(snap.gauges), sorted_lines(kGaugeNames));
  for (const auto& c : snap.counters) EXPECT_EQ(c.value, 1u) << c.name;
  for (const auto& g : snap.gauges) EXPECT_EQ(g.value, 1) << g.name;
  EXPECT_TRUE(snap.histograms.empty());

  // A silent trial registers its peaks and no sums.
  telemetry::MetricsRegistry silent;
  telemetry::fold_into(telemetry::TrialTelemetry{}, "m", silent);
  snap = silent.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_EQ(names(snap.gauges), sorted_lines(kGaugeNames));
}

/// Telemetry of real trials: `count` specimens under process-pairs.
std::vector<telemetry::TrialTelemetry> trial_telemetry(std::size_t count) {
  const auto seeds = corpus::all_seeds();
  const auto factory = harness::standard_mechanisms().front().make;
  std::vector<telemetry::TrialTelemetry> trials(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto plan = inject::plan_for(seeds[i * 7 % seeds.size()], 7 + i);
    auto mechanism = factory();
    harness::run_trial(plan, *mechanism, {}, nullptr,
                       {.telemetry = &trials[i]});
  }
  return trials;
}

TEST(TelemetryFold, MechanismSumMatchesPerCellFolds) {
  // run_matrix merges a mechanism's cells into one sum and folds it once;
  // that must register and bump exactly what folding every cell afresh
  // does: a silent cell registers only the peaks, a counter moved by one
  // cell appears once, and histogram merges add up.
  std::vector<telemetry::TrialTelemetry> cells = trial_telemetry(12);
  cells.insert(cells.begin(), telemetry::TrialTelemetry{});
  telemetry::TrialTelemetry sum;
  telemetry::MetricsRegistry per_cell;
  for (const auto& cell : cells) {
    sum.merge(cell);
    telemetry::fold_into(cell, "process-pairs", per_cell);
  }
  telemetry::MetricsRegistry once;
  telemetry::fold_into(sum, "process-pairs", once);
  EXPECT_EQ(once.snapshot(), per_cell.snapshot());
  EXPECT_FALSE(once.snapshot().histograms.empty());
}

TEST(TrialTelemetry, ResetLaneTelemetryEqualsAFreshOne) {
  // A matrix lane reuses one TrialTelemetry: after a trial and a reset it
  // must equal a fresh one (keeping its span buffer), and a trial recorded
  // into it must equal the same trial recorded into a fresh one.
  const auto seeds = corpus::all_seeds();
  const auto plan = inject::plan_for(seeds.front(), 7);
  const auto factory = harness::standard_mechanisms().front().make;
  const auto record = [&](telemetry::TrialTelemetry& into) {
    auto mechanism = factory();
    harness::run_trial(plan, *mechanism, {}, nullptr, {.telemetry = &into});
  };

  telemetry::TrialTelemetry lane;
  record(lane);
  ASSERT_FALSE(lane.spans.empty());
  ASSERT_GT(lane.item_latency_ticks.count(), 0u);
  const std::size_t capacity = lane.spans.spans().capacity();
  lane.reset();
  EXPECT_EQ(lane, telemetry::TrialTelemetry{});
  EXPECT_EQ(lane.spans.spans().capacity(), capacity);

  record(lane);
  telemetry::TrialTelemetry fresh;
  record(fresh);
  EXPECT_EQ(lane.counters, fresh.counters);
  EXPECT_EQ(lane.recovery_latency_ticks, fresh.recovery_latency_ticks);
  EXPECT_EQ(lane.item_latency_ticks, fresh.item_latency_ticks);
  EXPECT_EQ(lane.spans.spans(), fresh.spans.spans());
}

// --- spans ----------------------------------------------------------------

TEST(SpanTracer, SimSpansUseVirtualClock) {
  env::VirtualClock clock;
  telemetry::SpanTracer tracer;
  tracer.bind_sim(&clock);
  clock.advance(5);
  {
    telemetry::SpanScope outer(&tracer, "outer");
    clock.advance(10);
    {
      telemetry::SpanScope inner(&tracer, "inner");
      clock.advance(2);
    }
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].name, "outer");
  EXPECT_EQ(tracer.spans()[0].start, 5);
  EXPECT_EQ(tracer.spans()[0].duration, 12);
  EXPECT_EQ(tracer.spans()[0].depth, 0u);
  EXPECT_EQ(tracer.spans()[1].name, "inner");
  EXPECT_EQ(tracer.spans()[1].start, 15);
  EXPECT_EQ(tracer.spans()[1].duration, 2);
  EXPECT_EQ(tracer.spans()[1].depth, 1u);
}

TEST(SpanTracer, UnboundTracerRecordsNothing) {
  telemetry::SpanTracer tracer;
  { telemetry::SpanScope scope(&tracer, "ignored"); }
  EXPECT_TRUE(tracer.empty());
  { telemetry::SpanScope null_scope(nullptr, "also ignored"); }
}

TEST(TelemetryMacros, NullSinkIsANoOp) {
  // The counter view through the bus: an unbound bus is skipped, a bound
  // one bumps the row's counter and keeps the row's peak.
  telemetry::TrialTelemetry telemetry;
  const obs::TrialSinks* sinks = nullptr;
  obs::emit(sinks, obs::Event::kProcSpawned, 1, 9);
  const std::size_t spawns = telemetry::counter_index("env/proc/spawns");
  const std::size_t peak = telemetry::counter_index("env/proc/peak");
  EXPECT_EQ(telemetry.counters[spawns], 0u);
  const obs::TrialSinks bound{.telemetry = &telemetry};
  sinks = &bound;
  obs::emit(sinks, obs::Event::kProcSpawned, 1, 9);
  EXPECT_EQ(telemetry.counters[spawns], 1u);
  obs::emit(sinks, obs::Event::kProcSpawned, 2, 3);
  EXPECT_EQ(telemetry.counters[spawns], 2u);
  EXPECT_EQ(telemetry.counters[peak], 9u);
}

// --- exporters ------------------------------------------------------------

TEST(Exporters, ChromeTraceEmitsCompleteEvents) {
  env::VirtualClock clock;
  telemetry::SpanTracer tracer;
  tracer.bind_sim(&clock);
  {
    telemetry::SpanScope scope(&tracer, "trial");
    clock.advance(7);
  }
  const auto json = telemetry::to_chrome_trace({{"cell \"a\"", &tracer}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":7"), std::string::npos);
  EXPECT_NE(json.find("cell \\\"a\\\""), std::string::npos);  // escaped label
}

TEST(Exporters, PrometheusSanitizesNamesAndExpandsHistograms) {
  telemetry::MetricsRegistry reg;
  reg.add(reg.counter("env/proc/spawns"), 4);
  telemetry::TickHistogram lat;
  lat.observe(1);
  lat.observe(99);
  reg.merge_histogram(reg.histogram("lat"), lat);
  const auto text = telemetry::to_prometheus(reg.snapshot());
  // Counters get the conventional _total suffix plus HELP/TYPE headers.
  EXPECT_NE(text.find("env_proc_spawns_total 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE env_proc_spawns_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP env_proc_spawns_total"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2"), std::string::npos);
}

TEST(Exporters, PrometheusOutputPassesLintRules) {
  telemetry::MetricsRegistry reg;
  reg.add(reg.counter("9starts/with-digit"), 1);
  reg.add(reg.counter("already_total"), 2);
  reg.peak(reg.gauge("peak.procs"), 7);
  telemetry::TickHistogram latency;
  latency.observe(5);
  reg.merge_histogram(reg.histogram("recovery/latency"), latency);
  const auto text = telemetry::to_prometheus(reg.snapshot());

  // Promtool-style lint: every line is a comment or `name{labels} value`
  // with a legal metric name; HELP precedes TYPE for each metric.
  std::istringstream lines(text);
  std::string line;
  std::string last_help_name;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.starts_with("# HELP ")) {
      last_help_name = line.substr(7, line.find(' ', 7) - 7);
      continue;
    }
    if (line.starts_with("# TYPE ")) {
      // TYPE always follows the HELP line of the same metric.
      EXPECT_EQ(line.substr(7, line.find(' ', 7) - 7), last_help_name);
      continue;
    }
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    ASSERT_FALSE(name.empty());
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_' || name[0] == ':')
        << name;
    for (const char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << name;
    }
  }
  // Leading digits are prefixed, counters end in _total exactly once.
  EXPECT_NE(text.find("_9starts_with_digit_total 1"), std::string::npos);
  EXPECT_NE(text.find("already_total 2"), std::string::npos);
  EXPECT_EQ(text.find("already_total_total"), std::string::npos);
  // The gauge keeps its bare name; the histogram ends with +Inf == _count.
  EXPECT_NE(text.find("peak_procs 7"), std::string::npos);
  EXPECT_NE(text.find("recovery_latency_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("recovery_latency_count 1"), std::string::npos);
}

TEST(Exporters, JsonRoundsTripKeyValues) {
  telemetry::MetricsRegistry reg;
  reg.add(reg.counter("c"), 2);
  reg.peak(reg.gauge("g"), -3);
  const auto json = telemetry::to_json(reg.snapshot());
  EXPECT_NE(json.find("\"c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g\":-3"), std::string::npos);
}

// --- determinism ----------------------------------------------------------

TEST(TelemetryDeterminism, InstrumentedTrialMatchesItselfAndCounts) {
  const auto seeds = corpus::all_seeds();
  ASSERT_FALSE(seeds.empty());
  const auto plan = inject::plan_for(seeds.front(), 7);
  const auto factory = harness::standard_mechanisms().front().make;

  telemetry::TrialTelemetry a;
  telemetry::TrialTelemetry b;
  for (telemetry::TrialTelemetry* t : {&a, &b}) {
    auto mech = factory();
    harness::run_trial(plan, *mech, {}, nullptr, {.telemetry = t});
  }
  EXPECT_EQ(a.spans.spans(), b.spans.spans());
  EXPECT_EQ(a.recovery_latency_ticks, b.recovery_latency_ticks);
  EXPECT_EQ(a.item_latency_ticks, b.item_latency_ticks);
  // The workload ran, so per-item latencies were recorded.
  EXPECT_GT(a.item_latency_ticks.count(), 0u);
}

TEST(TelemetryDeterminism, MatrixSnapshotsAndTracesMatchAcrossThreadCounts) {
  // The full specimen corpus: the strongest form of the determinism
  // contract — study-level metrics, kept traces, and the serialized Chrome
  // timeline must be byte-identical for threads=1 and threads=4.
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();

  const auto run = [&](std::size_t threads) {
    harness::TrialConfig config;
    config.threads = threads;
    auto telem = std::make_unique<telemetry::StudyTelemetry>();
    harness::run_matrix(seeds, mechanisms, config, 3, telem.get());
    return telem;
  };
  const auto serial = run(1);
  const auto wide = run(4);

  EXPECT_EQ(serial->metrics.snapshot(), wide->metrics.snapshot());

  ASSERT_EQ(serial->traces.size(), wide->traces.size());
  for (std::size_t i = 0; i < serial->traces.size(); ++i) {
    EXPECT_EQ(serial->traces[i].first, wide->traces[i].first);
    EXPECT_EQ(serial->traces[i].second.spans(),
              wide->traces[i].second.spans())
        << serial->traces[i].first;
  }

  const auto to_threads = [](const telemetry::StudyTelemetry& t) {
    std::vector<telemetry::TraceThread> threads;
    threads.reserve(t.traces.size());
    for (const auto& [label, tracer] : t.traces) {
      threads.push_back({label, &tracer});
    }
    return threads;
  };
  EXPECT_EQ(telemetry::to_chrome_trace(to_threads(*serial)),
            telemetry::to_chrome_trace(to_threads(*wide)));
  EXPECT_EQ(telemetry::to_prometheus(serial->metrics.snapshot()),
            telemetry::to_prometheus(wide->metrics.snapshot()));
}

}  // namespace
}  // namespace faultstudy
