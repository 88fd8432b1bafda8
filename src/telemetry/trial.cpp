#include "telemetry/trial.hpp"

#include <algorithm>
#include <array>

namespace faultstudy::telemetry {

void TrialTelemetry::merge(const TrialTelemetry& other) noexcept {
  telemetry::merge(counters, other.counters);
  recovery_latency_ticks.merge(other.recovery_latency_ticks);
  item_latency_ticks.merge(other.item_latency_ticks);
}

void TrialTelemetry::reset() noexcept {
  counters.fill(0);
  recovery_latency_ticks.reset();
  item_latency_ticks.reset();
  spans.reset();
}

void fold_into(const TrialTelemetry& trial, std::string_view mechanism,
               MetricsRegistry& registry) {
  constexpr std::string_view kRecovery = "recovery/";
  const std::string mech(mechanism.empty() ? "trial" : mechanism);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const CounterDef& def = kCounters[i];
    const std::uint64_t value = trial.counters[i];
    if (def.fold == Fold::kSum && value == 0) continue;
    std::string name(def.name);
    if (name.starts_with(kRecovery)) {
      name.insert(kRecovery.size(), mech + '/');
    }
    if (def.fold == Fold::kPeak) {
      registry.peak(registry.gauge(name), static_cast<std::int64_t>(value));
    } else {
      registry.add(registry.counter(name), value);
    }
  }

  const auto fold_histogram = [&](const TickHistogram& h,
                                  std::string_view prefix,
                                  std::string_view suffix) {
    if (h.empty()) return;
    std::string name(prefix);
    name += mech;
    name += suffix;
    registry.merge_histogram(registry.histogram(name, kTickBounds),
                             h.to_histogram());
  };
  fold_histogram(trial.recovery_latency_ticks, "recovery/", "/latency_ticks");
  fold_histogram(trial.item_latency_ticks, "trial/", "/item_latency_ticks");
}

void fold_pool_stats(const util::PoolStats& stats, std::string_view prefix,
                     MetricsRegistry& registry) {
  const std::string base(prefix);
  std::uint64_t chunks = 0;
  std::uint64_t indices = 0;
  std::uint64_t micros = 0;
  std::uint64_t max_pending = 0;
  std::array<std::uint64_t, util::PoolStats::kLatencyBuckets> latency{};
  std::size_t active_lanes = 0;
  for (const auto& lane : stats.lanes) {
    if (lane.chunks > 0) ++active_lanes;
    chunks += lane.chunks;
    indices += lane.indices;
    micros += lane.micros;
    max_pending = std::max(max_pending, lane.max_pending);
    for (std::size_t b = 0; b < latency.size(); ++b) {
      latency[b] += lane.latency_log2_us[b];
    }
  }
  if (stats.sweeps == 0 && chunks == 0) return;

  registry.add(registry.counter(base + "/sweeps"), stats.sweeps);
  registry.add(registry.counter(base + "/chunks"), chunks);
  registry.add(registry.counter(base + "/indices"), indices);
  registry.add(registry.counter(base + "/busy_micros"), micros);
  registry.peak(registry.gauge(base + "/max_pending"),
                static_cast<std::int64_t>(max_pending));
  registry.peak(registry.gauge(base + "/active_lanes"),
                static_cast<std::int64_t>(active_lanes));

  // Bucket b of the lane profile covers [2^b, 2^(b+1)) microseconds, so its
  // inclusive upper edge is 2^(b+1)-1; the last lane bucket becomes the
  // histogram's overflow bucket.
  std::vector<std::int64_t> bounds;
  bounds.reserve(latency.size() - 1);
  for (std::size_t b = 0; b + 1 < latency.size(); ++b) {
    bounds.push_back((std::int64_t{1} << (b + 1)) - 1);
  }
  const HistogramId id =
      registry.histogram(base + "/chunk_latency_us", bounds);
  registry.merge_histogram(
      id, Histogram::from_buckets(
              std::move(bounds),
              std::vector<std::uint64_t>(latency.begin(), latency.end()),
              static_cast<std::int64_t>(micros)));
}

}  // namespace faultstudy::telemetry
